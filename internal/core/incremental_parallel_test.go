package core_test

// Tests of the parallel fold path: SetFoldWorkers fans the fold's
// data-edge derivation across workers, and nothing about the result may
// depend on the fan-out. The equivalence oracle is the test-only
// ReferenceAnalyzer (export_test.go) — the serial full-rebuild fold —
// plus the batch Analyze.

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/core/cpgbench"
)

// TestIncrementalParallelMatchesReferenceOverRandomPrefixes folds the
// same random executions through the reference analyzer and the
// incremental analyzer at every worker fan-out, at shared random fold
// points, and requires byte-identical exports at each epoch — across 1
// and 4 recording threads and FoldWorkers in {1, 4, GOMAXPROCS}.
func TestIncrementalParallelMatchesReferenceOverRandomPrefixes(t *testing.T) {
	for _, threads := range []int{1, 4} {
		for _, workers := range []int{1, 4, 0} { // 0 = GOMAXPROCS
			for seed := int64(0); seed < 4; seed++ {
				lr := newLiveRecording(t, threads, 48, seed)
				ref := core.NewReferenceAnalyzer(lr.g)
				inc := core.NewIncrementalAnalyzer(lr.g)
				inc.SetFoldWorkers(workers)
				foldR := rand.New(rand.NewSource(seed*1301 + int64(workers)))
				steps := 50 + int(seed)*13
				for s := 0; s < steps; s++ {
					lr.step(t, 48)
					if foldR.Intn(7) != 0 {
						continue
					}
					want := exportBytes(t, ref.Fold())
					got := exportBytes(t, inc.Fold())
					if !bytes.Equal(got, want) {
						t.Fatalf("threads=%d workers=%d seed=%d step=%d: parallel fold diverges from reference",
							threads, workers, seed, s)
					}
				}
				lr.finish(t)
				want := exportBytes(t, ref.Fold())
				got := exportBytes(t, inc.Fold())
				if !bytes.Equal(got, want) {
					t.Fatalf("threads=%d workers=%d seed=%d: final parallel fold diverges from reference",
						threads, workers, seed)
				}
				if batch := exportBytes(t, lr.g.Analyze()); !bytes.Equal(want, batch) {
					t.Fatalf("threads=%d workers=%d seed=%d: reference fold diverges from batch",
						threads, workers, seed)
				}
			}
		}
	}
}

// TestIncrementalParallelWorkerFanOut pins that the parallel path
// actually runs: with enough new vertices per epoch and FoldWorkers=4,
// the worker hook must observe more than one distinct worker, and with
// FoldWorkers=1 exactly one.
func TestIncrementalParallelWorkerFanOut(t *testing.T) {
	record := func(workers int) map[int]bool {
		g := core.NewGraph(2)
		rec, err := core.NewRecorder(g, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			rec.OnRead(uint64(i % 64))
			rec.OnWrite(uint64((i + 7) % 64))
			if _, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
				t.Fatal(err)
			}
		}
		inc := core.NewIncrementalAnalyzer(g)
		inc.SetFoldWorkers(workers)
		seen := map[int]bool{}
		var mu sync.Mutex
		inc.SetWorkerHook(func(worker int) {
			mu.Lock()
			seen[worker] = true
			mu.Unlock()
		})
		inc.Fold()
		return seen
	}
	if seen := record(1); len(seen) != 1 || !seen[0] {
		t.Fatalf("FoldWorkers=1: hook saw workers %v, want exactly {0}", seen)
	}
	if seen := record(4); len(seen) < 2 {
		t.Fatalf("FoldWorkers=4 over 300 new vertices: hook saw workers %v, want >1", seen)
	}
}

// TestIncrementalParallelFoldRacedQueries races concurrent recorders,
// parallel folds, and mixed queries against published epochs (run under
// -race in CI): every published Analysis must stay internally
// consistent while recording continues, and after quiesce the final
// parallel fold must export byte-identically to both the serial
// reference fold and the batch Analyze.
func TestIncrementalParallelFoldRacedQueries(t *testing.T) {
	const threads = 4
	g := core.NewGraph(threads)
	lock := g.NewSyncObject("l", false)
	inc := core.NewIncrementalAnalyzer(g)
	inc.SetFoldWorkers(4)

	var published atomic.Pointer[core.Analysis]
	published.Store(inc.Fold())

	var wg sync.WaitGroup
	for slot := 0; slot < threads; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			rec, err := core.NewRecorder(g, slot, 0)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 250; i++ {
				rec.OnRead(uint64((slot*31 + i) % 64))
				rec.OnWrite(uint64((slot*17 + i) % 64))
				sc, err := rec.EndSub(core.SyncEvent{Kind: core.SyncRelease, Object: lock.Ref()}, 0)
				if err != nil {
					t.Error(err)
					return
				}
				rec.Release(lock, sc)
				rec.Acquire(lock)
			}
			if _, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
				t.Error(err)
			}
		}(slot)
	}

	recorded := make(chan struct{})
	go func() { wg.Wait(); close(recorded) }()

	// Query workers hammer whichever epoch is newest with a mix of
	// traversals while folds keep publishing fresher ones.
	stop := make(chan struct{})
	var qwg sync.WaitGroup
	for q := 0; q < 3; q++ {
		qwg.Add(1)
		go func(q int) {
			defer qwg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a := published.Load()
				if a.NumVertices() == 0 {
					runtime.Gosched()
					continue
				}
				subs := a.Subs()
				target := subs[(q*13+i)%len(subs)].ID
				switch (q + i) % 3 {
				case 0:
					a.SliceCtx(bg, target)
				case 1:
					a.TaintedByCtx(bg, target)
				case 2:
					a.PageLineageCtx(bg, uint64(i%64), target)
				}
			}
		}(q)
	}

	for alive := true; alive; {
		select {
		case <-recorded:
			alive = false
		default:
		}
		a := inc.Fold()
		if err := a.Verify(); err != nil {
			t.Fatalf("epoch %d invalid during recording: %v", a.Epoch(), err)
		}
		published.Store(a)
	}
	close(stop)
	qwg.Wait()

	final := exportBytes(t, inc.Fold())
	ref := core.NewReferenceAnalyzer(g)
	if want := exportBytes(t, ref.Fold()); !bytes.Equal(final, want) {
		t.Fatal("final parallel fold diverges from serial reference after quiesce")
	}
	if want := exportBytes(t, g.Analyze()); !bytes.Equal(final, want) {
		t.Fatal("final parallel fold diverges from batch after quiesce")
	}
}

// TestIncrementalDeferredAcquirerManyEpochs pins the deferred sync-edge
// backlog across many epochs: seven threads acquire mutexes and stay
// open while thread 0 keeps sealing epochs (the backlog is re-examined
// and carried forward every fold), then the acquirers seal one per
// epoch, draining the backlog from the middle of its sorted order. The
// epoch export must match the batch analysis at every step — the
// regression guard for the backlog merge that once re-sorted (and could
// mis-order) the carried edges each fold.
func TestIncrementalDeferredAcquirerManyEpochs(t *testing.T) {
	const threads = 8
	g := core.NewGraph(threads)
	recs := make([]*core.Recorder, threads)
	for i := range recs {
		rec, err := core.NewRecorder(g, i, 0)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
	}
	inc := core.NewIncrementalAnalyzer(g)
	inc.SetFoldWorkers(4)

	check := func(stage string, epoch int) {
		a := inc.Fold()
		if got, want := exportBytes(t, a), exportBytes(t, g.Analyze()); !bytes.Equal(got, want) {
			t.Fatalf("%s epoch %d: fold diverges from batch with deferred backlog", stage, epoch)
		}
	}

	// Thread 0 releases one mutex per peer; each peer acquires it and
	// leaves its first sub-computation open, parking one deferred edge.
	own := g.NewSyncObject("own", false)
	for k := 1; k < threads; k++ {
		m := g.NewSyncObject("m"+string(rune('0'+k)), false)
		sc, err := recs[0].EndSub(core.SyncEvent{Kind: core.SyncRelease, Object: m.Ref()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		recs[0].Release(m, sc)
		recs[k].Acquire(m)
	}

	// Epochs with the backlog parked: thread 0 keeps sealing (its own
	// release/acquire chain adds fresh ready edges that must merge with
	// the carried backlog, not disturb it).
	for e := 0; e < 8; e++ {
		for i := 0; i < 3; i++ {
			recs[0].OnWrite(uint64(e*8 + i))
			sc, err := recs[0].EndSub(core.SyncEvent{Kind: core.SyncRelease, Object: own.Ref()}, 0)
			if err != nil {
				t.Fatal(err)
			}
			recs[0].Release(own, sc)
			recs[0].Acquire(own)
		}
		check("parked", e)
	}

	// Drain: one acquirer seals per epoch, releasing one deferred edge
	// from the middle of the sorted backlog each fold.
	for k := 1; k < threads; k++ {
		if _, err := recs[k].EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
			t.Fatal(err)
		}
		check("drain", k)
	}
	if _, err := recs[0].EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
		t.Fatal(err)
	}

	a := inc.Fold()
	syncs := 0
	for _, e := range a.Edges() {
		if e.Kind == core.EdgeSync && e.To.Alpha == 0 && e.To.Thread != 0 {
			syncs++
		}
	}
	if syncs != threads-1 {
		t.Fatalf("drained backlog produced %d acquirer edges, want %d", syncs, threads-1)
	}
	if got, want := exportBytes(t, a), exportBytes(t, g.Analyze()); !bytes.Equal(got, want) {
		t.Fatal("final fold diverges from batch")
	}
}

// TestIncrementalLargeScheduleEquivalence is the reduced-size cut of
// BenchmarkIncrementalAnalyzeLarge, run as a test (and in CI's -race
// sweep): the benchmarks compare the full-rebuild reference fold against
// the incremental delta-overlay fold, which is only meaningful if they
// compute the same thing. It replays the large-schedule shape (same
// threads/pageRange/rw/seed, fewer steps) at a 16-epoch cadence through
// the reference fold and the incremental fold at 1 and 8 workers,
// requiring byte-identical exports per epoch, and a final export
// identical to the post-mortem batch Analyze.
func TestIncrementalLargeScheduleEquivalence(t *testing.T) {
	steps, epochs := 20000, 16
	if testing.Short() {
		steps, epochs = 4000, 8
	}
	sched := cpgbench.DrawSchedule(8, steps, 4096, 2, 46)

	replayFolds := func(mk func(g *core.Graph) func() *core.Analysis,
		onEpoch func(e int, a *core.Analysis)) *core.Graph {
		rp := sched.NewReplay()
		fold := mk(rp.Graph)
		for e := 1; e <= epochs; e++ {
			rp.To(steps * e / epochs)
			onEpoch(e, fold())
		}
		return rp.Graph
	}

	want := make([][]byte, 0, epochs)
	g := replayFolds(func(g *core.Graph) func() *core.Analysis {
		return core.NewReferenceAnalyzer(g).Fold
	}, func(_ int, a *core.Analysis) {
		want = append(want, exportBytes(t, a))
	})

	for _, workers := range []int{1, 8} {
		replayFolds(func(g *core.Graph) func() *core.Analysis {
			inc := core.NewIncrementalAnalyzer(g)
			inc.SetFoldWorkers(workers)
			return inc.Fold
		}, func(e int, a *core.Analysis) {
			if got := exportBytes(t, a); !bytes.Equal(got, want[e-1]) {
				t.Fatalf("workers=%d: epoch %d export differs from reference fold", workers, e)
			}
		})
	}

	if got := exportBytes(t, g.Analyze()); !bytes.Equal(got, want[epochs-1]) {
		t.Fatalf("batch Analyze export differs from final fold")
	}
}
