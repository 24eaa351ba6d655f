package main

// The cpg experiment: self-timed microbenchmarks of the Concurrent
// Provenance Graph core — the EndSub append path (serial and contended),
// the indexed data-edge derivation, analysis construction, wide slices,
// invariant checking, and the page-set hot path — plus the provenance
// query engine (slice and taint, serial and 8-way parallel) and the
// bounded-memory CPG store (cold decode-under-eviction vs warm
// result-cache hits over 16- and 256-file fleets). The scenario bodies
// live in internal/core/cpgbench, provenance/enginebench, and
// provenance/storebench — shared verbatim with those packages' go-test
// suites — and the snapshot goes through the same baseline-carrying
// plumbing as the mem and pt experiments (benchsnap.go). The committed
// baseline is the pre-columnar core (global RWMutex, map page sets,
// string thunks, map adjacency); the QueryEngine rows have no baseline
// counterpart (the engine is new with the provenance package). See
// ROADMAP.md ("perf trajectory convention") for the regeneration
// workflow.

import (
	"io"

	"github.com/repro/inspector/internal/core/cpgbench"
	"github.com/repro/inspector/provenance/enginebench"
	"github.com/repro/inspector/provenance/storebench"
)

// cpgBenchSchema versions the BENCH_cpg.json format.
const cpgBenchSchema = "inspector-cpgbench/v1"

// runCPGBench measures the shared CPG-core and query-engine scenarios
// and writes the BENCH_cpg.json snapshot.
func runCPGBench(w io.Writer, outPath, baselinePath string) error {
	var cases []benchCase
	for _, c := range cpgbench.Cases() {
		cases = append(cases, benchCase{name: c.Name, bytes: c.Bytes, fn: c.Fn})
	}
	// The live-pipeline rows (IncrementalAnalyze vs ReAnalyze at a
	// 1/8/64-epoch cadence, plus the 8-worker Parallel variants) have no
	// baseline counterpart: before the incremental fold existed, serving
	// queries mid-run was impossible — ReAnalyze *is* the naive
	// alternative, snapshotted alongside. The Large rows scale the same
	// comparison to a >=10^6-vertex execution, where
	// IncrementalAnalyzeLarge/serial is the retained full-rebuild
	// reference fold the delta-overlay store replaces.
	for _, c := range cpgbench.LiveCases() {
		cases = append(cases, benchCase{name: c.Name, bytes: c.Bytes, fn: c.Fn})
	}
	for _, c := range cpgbench.LargeCases() {
		cases = append(cases, benchCase{name: c.Name, bytes: c.Bytes, fn: c.Fn})
	}
	for _, c := range enginebench.Cases() {
		cases = append(cases, benchCase{name: c.Name, bytes: c.Bytes, fn: c.Fn})
	}
	// The Store rows (cold decode-under-eviction vs warm result-cache
	// hit over 16- and 256-file fleets) likewise have no baseline
	// counterpart: before the on-disk columnar format existed, serving a
	// directory of CPGs meant eagerly decoding every file up front.
	for _, c := range storebench.Cases() {
		cases = append(cases, benchCase{name: c.Name, bytes: c.Bytes, fn: c.Fn})
	}
	return runBenchSnapshot(w, outPath, baselinePath, cpgBenchSchema, 0, cases)
}
