package harness

// Cross-workload CPG export drift test. The columnar core refactor (interned
// sites, compact page sets, sharded vertex store) must not move a single byte
// of the exported provenance artifacts: testdata/cpg_drift.json pins the
// SHA-256 of the JSON and DOT exports of every workload, single- and
// multi-thread, as produced by the pre-refactor (seed) implementation.
//
// The JSON dump contains the complete graph state (IDs, clocks, read/write
// sets, thunks with site labels, sync events, virtual times, sync edges), so
// JSON byte-identity is full semantic identity. Two caveats, both properties
// of the seed rather than of the refactor:
//
//   - Multi-thread runs of mutex-contended workloads are scheduling-dependent
//     (which thread wins a lock changes the recorded vector clocks), so their
//     exports legitimately differ run to run. The update mode runs every
//     configuration three times and byte-pins only the stable ones; unstable
//     configurations are pinned on their deterministic counters (vertex
//     count) and still get the .cpg self-consistency checks.
//   - The snapshot a run is reloaded from, the .cpg file, is not pinned
//     against the seed (the seed had no such format). It is held to
//     decoding back to exactly the JSON-pinned content and to
//     byte-determinism: re-encoding the loaded analysis reproduces the file.
//
// Regenerate after an intentional format change with:
//
//	go test ./internal/harness -run TestCPGExportDriftAgainstSeed -update-cpg-drift

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/workloads"
)

var updateCPGDrift = flag.Bool("update-cpg-drift", false,
	"rewrite testdata/cpg_drift.json from the current implementation")

const driftPath = "testdata/cpg_drift.json"

// driftEntry pins one workload configuration. Stable configurations carry
// export hashes; scheduling-dependent ones only their deterministic counters.
type driftEntry struct {
	App     string `json:"app"`
	Threads int    `json:"threads"`
	Subs    int    `json:"subs"`
	// Stable marks runs whose exports are byte-reproducible (three
	// consecutive seed runs agreed).
	Stable  bool   `json:"stable"`
	JSONSHA string `json:"json_sha256,omitempty"`
	DOTSHA  string `json:"dot_sha256,omitempty"`
}

type driftFile struct {
	Note    string       `json:"note"`
	Size    string       `json:"size"`
	Seed    int64        `json:"seed"`
	Entries []driftEntry `json:"entries"`
}

func updateDriftFile(t *testing.T) {
	df := driftFile{
		Note: "SHA-256 of CPG exports as produced by the pre-refactor (seed) core; " +
			"stable=false marks scheduling-dependent multi-thread runs (pinned on counters only); " +
			"see cpgdrift_test.go for the regeneration command",
		Size: "small",
		Seed: 1,
	}
	for _, app := range workloads.Names() {
		for _, threads := range []int{1, 4} {
			ent := driftEntry{App: app, Threads: threads, Stable: true}
			for rep := 0; rep < 3; rep++ {
				// Fresh runs, not the corpus's one: stability is what
				// three of them agreeing means.
				r := record(t, newAggregator(t).URL, app, threads)
				js, ds, subs := r.jsonSHA, r.dotSHA, r.analysis.Graph().NumSubs()
				if rep == 0 {
					ent.JSONSHA, ent.DOTSHA, ent.Subs = js, ds, subs
					continue
				}
				if subs != ent.Subs {
					t.Fatalf("%s t=%d: vertex count varies across seed runs (%d vs %d)",
						app, threads, subs, ent.Subs)
				}
				if js != ent.JSONSHA || ds != ent.DOTSHA {
					ent.Stable = false
				}
			}
			if !ent.Stable {
				ent.JSONSHA, ent.DOTSHA = "", ""
			}
			df.Entries = append(df.Entries, ent)
		}
	}
	data, err := json.MarshalIndent(df, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.MkdirAll(filepath.Dir(driftPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(driftPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	stable := 0
	for _, e := range df.Entries {
		if e.Stable {
			stable++
		}
	}
	t.Logf("wrote %s (%d entries, %d byte-pinned)", driftPath, len(df.Entries), stable)
}

func TestCPGExportDriftAgainstSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	if *updateCPGDrift {
		updateDriftFile(t)
		return
	}

	data, err := os.ReadFile(driftPath)
	if err != nil {
		t.Fatalf("missing pinned hashes (run with -update-cpg-drift to create): %v", err)
	}
	var df driftFile
	if err := json.Unmarshal(data, &df); err != nil {
		t.Fatal(err)
	}
	for _, want := range df.Entries {
		want := want
		t.Run(want.App+"/t"+strconv.Itoa(want.Threads), func(t *testing.T) {
			r := corpus.get(t, want.App, want.Threads)
			if subs := r.analysis.Graph().NumSubs(); subs != want.Subs {
				t.Errorf("sub-computations = %d, seed recorded %d", subs, want.Subs)
			}
			if want.Stable {
				if r.jsonSHA != want.JSONSHA {
					t.Errorf("JSON export drifted from seed: sha %s, want %s", r.jsonSHA, want.JSONSHA)
				}
				if r.dotSHA != want.DOTSHA {
					t.Errorf("DOT export drifted from seed: sha %s, want %s", r.dotSHA, want.DOTSHA)
				}
			}
			// The run's .cpg file must load back to exactly this run's
			// content...
			loaded, hdr, err := cpgfile.Load(r.cpg)
			if err != nil {
				t.Fatalf("load .cpg: %v", err)
			}
			if renderSHA(t, loaded.Graph().EncodeJSON) != r.jsonSHA {
				t.Errorf(".cpg round-trip disagrees with the JSON export")
			}
			// ...and be deterministic: re-encoding the loaded analysis
			// reproduces the file exactly.
			file, err := os.ReadFile(r.cpg)
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := cpgfile.Encode(&again, loaded, cpgfile.Meta{RunID: hdr.RunID, App: hdr.App}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(file, again.Bytes()) {
				t.Error(".cpg export is not byte-deterministic")
			}
		})
	}
}
