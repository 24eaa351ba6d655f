package main

import (
	"fmt"

	"github.com/repro/inspector/internal/workloads"
)

// scenario is one benchmark workload: a program and an input size pushed
// through the whole pipeline (native run, traced run, journal, stream to a
// loopback aggregator, analyze-to-query, then queries over the .cpg
// directory), with the knobs that decide which layers do the work.
type scenario struct {
	Name string
	Why  string

	// App and Size pick the recorded program; threads is always 2.
	App  string
	Size workloads.Size

	// PaceHz paces the streamed run's commit hook open-loop at this many
	// seals per second (0: unpaced, the recorder seals as fast as it can).
	PaceHz int

	// Files is how many .cpg files the served directory holds: the
	// program recorded under seeds seed..seed+Files-1.
	Files int
	// Budget is the store's resident-bytes budget (0: unlimited) and
	// NoCache disables its result cache.
	Budget  int64
	NoCache bool

	// ServeShare is the share of the measured seconds spent serving
	// queries; the rest records.
	ServeShare float64
	// VerifyEvery checks every n-th served result against Engine.Execute
	// on the in-memory analysis (1: all of them).
	VerifyEvery int
}

// coldBudget is a resident-bytes budget below one decoded graph of any
// scenario, so every query re-materialises its file. The three record-side
// scenarios serve their own graph this way: warm, a query on an 8-vertex
// graph is 45 us of loopback HTTP and nothing else, which no run repeats
// to better than 30%.
const coldBudget = 1 << 20

// scenarios is the fixed workload set; BENCHMARK.json and later issues
// cite these names.
var scenarios = []scenario{
	{
		Name: "record-branchy",
		Why:  "string_match large: 1.1M poorly-compressing branches in 8 sub-computations, so internal/pt and thunk-heavy frames do the work",
		App:  "string_match", Size: workloads.Large,
		Files: 1, Budget: coldBudget, NoCache: true,
		ServeShare: 0.25, VerifyEvery: 1,
	},
	{
		Name: "record-pagey",
		Why:  "canneal large: 19k page faults and 9.6k tiny epochs, so mem, threading, EndSub and the per-epoch fold/wire/journal path do the work",
		App:  "canneal", Size: workloads.Large,
		Files: 1, Budget: coldBudget, NoCache: true,
		ServeShare: 0.15, VerifyEvery: 1,
	},
	{
		Name: "stream-paced",
		Why:  "canneal medium streamed open-loop at 1000 seals/s: below the knee, so seal-to-query is true latency, not backlog drain",
		App:  "canneal", Size: workloads.Medium, PaceHz: 1000,
		Files: 1, Budget: coldBudget, NoCache: true,
		ServeShare: 0.2, VerifyEvery: 1,
	},
	{
		Name: "serve-resident",
		Why:  "16 canneal medium graphs, unlimited budget, result cache on: engine traversal, cache, JSON and HTTP do the work; each file decodes once",
		App:  "canneal", Size: workloads.Medium,
		Files: 16, ServeShare: 0.4, VerifyEvery: 16,
	},
	{
		Name: "serve-cold",
		Why:  "same 16 graphs, 1 MiB budget, no result cache: every query re-materialises, so the cpgfile and core read path dominate",
		App:  "canneal", Size: workloads.Medium,
		Files: 16, Budget: coldBudget, NoCache: true,
		ServeShare: 0.4, VerifyEvery: 1,
	},
}

func findScenario(name string) (scenario, error) {
	for _, sc := range scenarios {
		if sc.Name == name {
			return sc, nil
		}
	}
	return scenario{}, fmt.Errorf("unknown workload %q", name)
}
