package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"github.com/repro/inspector"
	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile/cpgtest"
	"github.com/repro/inspector/internal/journal"
	"github.com/repro/inspector/provenance"
)

// TestSnapshotIsJournalPrefix is the snapshot link of the equivalence
// chain: a §VI snapshot is a retained epoch of the one fold, so with a
// journal beside the ring, snapshot k encodes to the .cpg bytes of the
// journal replayed up to record k, answers queries as that replay does,
// survives the .cpg round trip, and its cut is Chandy-Lamport
// consistent against the finished graph. One take is forced from a
// commit hook mid-run (the SIGUSR2 path: an extra epoch every sink
// sees), one after Close (the final epoch).
func TestSnapshotIsJournalPrefix(t *testing.T) {
	for _, app := range []string{"canneal", "histogram", "word_count"} {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s-t%d", app, threads), func(t *testing.T) {
				// SnapshotMode changes the trace mode, so the corpus cannot serve.
				w, cfg := smallWorkload(t, app, threads)
				dir := t.TempDir()
				rec, err := inspector.New(inspector.Options{
					AppName:            app,
					MaxThreads:         w.MaxThreads(cfg),
					Journal:            dir,
					JournalFsync:       "none",
					SnapshotMode:       true,
					SnapshotEverySyncs: 3,
					SnapshotSlots:      6,
				})
				if err != nil {
					t.Fatal(err)
				}
				var forced *inspector.Snapshot
				var once sync.Once
				rec.Unwrap().RegisterCommitHook(func(core.SubID) {
					once.Do(func() { forced, _ = rec.TakeSnapshot() })
				})
				if err := w.Run(rec.Unwrap(), cfg); err != nil {
					t.Fatalf("%s: %v", app, err)
				}
				if err := rec.Close(); err != nil {
					t.Fatal(err)
				}
				final, ok := rec.TakeSnapshot()
				if !ok || final.Cut.Epoch != rec.Epoch() || final.Cut.Size() != rec.CPG().NumSubs() {
					t.Fatalf("take after Close = %+v, %v; want epoch %d over %d subs", final, ok, rec.Epoch(), rec.CPG().NumSubs())
				}
				if forced == nil {
					t.Fatal("no sub-computation sealed")
				}
				snaps := append(rec.Snapshots(), forced) // forced may have left the ring by now
				if len(snaps) < 3 {
					t.Fatalf("only %d snapshots to compare", len(snaps))
				}
				for _, snap := range snaps {
					label := fmt.Sprintf("snapshot@%d", snap.Cut.Epoch)
					if err := snap.Cut.Validate(rec.CPG()); err != nil {
						t.Errorf("%s: %v", label, err)
					}
					if err := snap.Analysis.Verify(); err != nil {
						t.Errorf("%s: %v", label, err)
					}
					rep, err := journal.Recover(dir, journal.RecoverOptions{MaxEpoch: snap.Cut.Epoch})
					if err != nil {
						t.Fatalf("%s: Recover: %v", label, err)
					}
					if rep.Epoch != snap.Cut.Epoch || !bytes.Equal(cpgtest.Bytes(t, snap.Analysis), cpgtest.Bytes(t, rep.Analysis)) {
						t.Fatalf("%s: .cpg differs from the journal replayed to epoch %d", label, rep.Epoch)
					}
					roundTripCPGFile(t, snap.Analysis, label)

					// Any query kind can be asked of a snapshot; the answers
					// are the recovered prefix's.
					target := snap.Analysis.Subs()[snap.Cut.Size()-1].ID.String()
					mine := provenance.NewEngine(snap.Analysis, provenance.EngineOptions{})
					theirs := provenance.NewEngine(rep.Analysis, provenance.EngineOptions{})
					for _, q := range []provenance.Query{
						{Kind: provenance.KindStats},
						{Kind: provenance.KindSlice, Target: target},
						{Kind: provenance.KindVerify},
					} {
						got, want := executeJSON(t, mine, q), executeJSON(t, theirs, q)
						if !bytes.Equal(got, want) {
							t.Errorf("%s: %s answers\n%s\nthe journal prefix answers\n%s", label, q.Kind, got, want)
						}
					}
				}
			})
		}
	}
}

// executeJSON answers q in wire form.
func executeJSON(t *testing.T, e *provenance.Engine, q provenance.Query) []byte {
	t.Helper()
	res, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", q.Kind, err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
