package core_test

// Tests of the fold at the cadence the product runs: one epoch per
// sealed sub-computation, thousands of epochs per execution. The random-
// prefix sweeps fold at most 17 times, so they never stack more than a
// few overlay layers and never reseal the base twice; here the overlay
// passes through every tier depth and several base generations.

import (
	"bytes"
	"math/bits"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/core/cpgbench"
)

// TestIncrementalPerSealCadenceMatchesReference folds a cpgbench
// schedule once per step and holds the epoch Analysis byte-identical to
// the full-rebuild ReferenceAnalyzer at every 97th epoch and the last,
// to the delta replay (FoldDelta → ApplyDelta + Fold on a second graph)
// at the same epochs, and to the batch Analyze at the end.
func TestIncrementalPerSealCadenceMatchesReference(t *testing.T) {
	steps := 4096
	if testing.Short() {
		steps = 2048
	}
	for _, threads := range []int{4, 8} {
		sched := cpgbench.DrawSchedule(threads, steps, 256, 2, int64(47+threads))
		rp := sched.NewReplay()
		inc := core.NewIncrementalAnalyzer(rp.Graph)
		ref := core.NewReferenceAnalyzer(rp.Graph)
		replayed := core.NewGraph(threads)
		replayInc := core.NewIncrementalAnalyzer(replayed)

		reseals, lastBase, maxDepth := 0, 0, 0
		var last []byte
		for s := 1; s <= steps; s++ {
			rp.To(s)
			a, d := inc.FoldDelta()
			if err := core.ApplyDelta(replayed, d); err != nil {
				t.Fatalf("threads=%d step=%d: ApplyDelta: %v", threads, s, err)
			}
			ra := replayInc.Fold()

			layers, _, baseRefs, _ := inc.OverlayShape()
			maxDepth = max(maxDepth, layers)
			if baseRefs != lastBase {
				reseals, lastBase = reseals+1, baseRefs
			}
			if s%97 != 0 && s != steps {
				continue
			}
			want := exportBytes(t, ref.Fold())
			if got := exportBytes(t, a); !bytes.Equal(got, want) {
				t.Fatalf("threads=%d step=%d: epoch %d export differs from the reference fold", threads, s, a.Epoch())
			}
			if got := exportBytes(t, ra); !bytes.Equal(got, want) {
				t.Fatalf("threads=%d step=%d: epoch %d delta replay differs from the reference fold", threads, s, ra.Epoch())
			}
			if err := a.Verify(); err != nil {
				t.Fatalf("threads=%d step=%d: epoch %d invalid: %v", threads, s, a.Epoch(), err)
			}
			last = want
		}
		if got := exportBytes(t, rp.Graph.Analyze()); !bytes.Equal(got, last) {
			t.Fatalf("threads=%d: batch Analyze differs from the final per-seal fold", threads)
		}
		// The point of the cadence: without these the run would prove no
		// more than the short sweeps do.
		if reseals < 3 || maxDepth < 5 {
			t.Fatalf("threads=%d: %d base reseals, overlay at most %d layers deep; want >= 3 and >= 5", threads, reseals, maxDepth)
		}
	}
}

// TestCompactionWorkIsLogLinear pins the store's complexity rather than
// its speed: over N single-edge epochs compaction may pass at most
// 2·N·(log₂N + 1) refs through a merge, and after every epoch the
// overlay is at most log₂(overlay refs) + 2 layers deep. Re-merging the
// whole overlay every fixed number of epochs — what the store did before
// it was size-tiered — copies ~N²/16 and fails the first bound from
// N = 2¹⁰ on.
func TestCompactionWorkIsLogLinear(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14} {
		g := core.NewGraph(1)
		rec, err := core.NewRecorder(g, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		inc := core.NewIncrementalAnalyzer(g)
		// Every sub-computation reads the page its predecessor wrote:
		// one data edge per epoch, nothing else.
		for i := 0; i <= n; i++ {
			rec.OnRead(uint64(i))
			rec.OnWrite(uint64(i + 1))
			if _, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
				t.Fatal(err)
			}
			inc.Fold()
			layers, layerRefs, _, _ := inc.OverlayShape()
			if layerRefs > 0 && layers > bits.Len(uint(layerRefs))+1 {
				t.Fatalf("N=%d epoch %d: %d layers over %d overlay refs", n, i, layers, layerRefs)
			}
		}
		_, layerRefs, baseRefs, merged := inc.OverlayShape()
		if layerRefs+baseRefs != n {
			t.Fatalf("N=%d: store holds %d refs", n, layerRefs+baseRefs)
		}
		if bound := 2 * n * bits.Len(uint(n)); merged > bound {
			t.Errorf("N=%d: compaction merged %d refs, want at most 2·N·(log₂N+1) = %d", n, merged, bound)
		}
		t.Logf("N=%d: compaction merged %d refs (%.1f per epoch)", n, merged, float64(merged)/float64(n))
	}
}
