package core_test

// Tests of the epoch-based incremental analysis path. The load-bearing
// property: at any quiesced point, the IncrementalAnalyzer's folded
// Analysis must be indistinguishable from a from-scratch Graph.Analyze
// over the same prefix — ExportJSON byte-identical — for random
// workload prefixes, fold points, and thread counts. That equivalence is
// what lets every query surface (Runtime.Query, cpg-query,
// inspector-serve) swap between the batch and live paths freely.
//
// Graph.Analyze is itself one fold of a fresh analyzer, so "matches
// batch" proves k folds = one fold (deferred acquires, compaction and
// all); TestIncrementalMatchesSpecOverRandomPrefixes anchors the same
// corpus on the independent oracles: dataEdgesReference for the
// derivation, the flat newAnalysis for the store.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/repro/inspector/internal/core"
)

// liveRecording drives a deterministic random multithreaded recording
// one step at a time, so tests can interleave folds at arbitrary
// prefixes. Each step makes one thread read/write random pages, seal its
// sub-computation, and transfer one of a few mutexes (release then
// acquire), which builds a rich happens-before web across threads.
type liveRecording struct {
	g     *core.Graph
	recs  []*core.Recorder
	locks []*core.SyncObject
	r     *rand.Rand
}

func newLiveRecording(t *testing.T, threads, pageRange int, seed int64) *liveRecording {
	t.Helper()
	g := core.NewGraph(threads)
	lr := &liveRecording{g: g, r: rand.New(rand.NewSource(seed))}
	for i := 0; i < threads; i++ {
		rec, err := core.NewRecorder(g, i, 0)
		if err != nil {
			t.Fatalf("recorder %d: %v", i, err)
		}
		lr.recs = append(lr.recs, rec)
	}
	lr.locks = []*core.SyncObject{
		g.NewSyncObject("m0", false),
		g.NewSyncObject("m1", false),
		g.NewSyncObject("bar", true),
	}
	return lr
}

// step seals one random sub-computation. Occasionally it leaves an
// acquire freshly logged with its sub-computation still open, so folds
// exercise the deferred (pending) sync-edge path.
func (lr *liveRecording) step(t *testing.T, pageRange int) {
	t.Helper()
	rec := lr.recs[lr.r.Intn(len(lr.recs))]
	for i := 0; i < 1+lr.r.Intn(3); i++ {
		rec.OnRead(uint64(lr.r.Intn(pageRange)))
		rec.OnWrite(uint64(lr.r.Intn(pageRange)))
	}
	lock := lr.locks[lr.r.Intn(len(lr.locks))]
	sc, err := rec.EndSub(core.SyncEvent{Kind: core.SyncRelease, Object: lock.Ref()}, 0)
	if err != nil {
		t.Fatalf("EndSub: %v", err)
	}
	rec.Release(lock, sc)
	rec.Acquire(lock)
}

// finish seals every thread's in-progress sub-computation, as thread
// exit does in real runs.
func (lr *liveRecording) finish(t *testing.T) {
	t.Helper()
	for _, rec := range lr.recs {
		if _, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
			t.Fatalf("EndSub: %v", err)
		}
	}
}

// exportBytes renders an analysis through the deterministic export.
func exportBytes(t *testing.T, a *core.Analysis) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.ExportJSON(&buf); err != nil {
		t.Fatalf("ExportJSON: %v", err)
	}
	return buf.Bytes()
}

// TestIncrementalMatchesBatchOverRandomPrefixes is the equivalence
// property: fold at random prefixes of random executions and require the
// epoch Analysis to export byte-identically to a from-scratch Analyze of
// the same prefix (k folds = one fold), across 1 and 4 threads.
func TestIncrementalMatchesBatchOverRandomPrefixes(t *testing.T) {
	for _, threads := range []int{1, 4} {
		for seed := int64(0); seed < 8; seed++ {
			lr := newLiveRecording(t, threads, 48, seed)
			inc := core.NewIncrementalAnalyzer(lr.g)
			foldR := rand.New(rand.NewSource(seed * 7731))
			steps := 60 + int(seed)*17
			folds := 0
			for s := 0; s < steps; s++ {
				lr.step(t, 48)
				if foldR.Intn(9) != 0 {
					continue
				}
				folds++
				a := inc.Fold()
				want := exportBytes(t, lr.g.Analyze())
				got := exportBytes(t, a)
				if !bytes.Equal(got, want) {
					t.Fatalf("threads=%d seed=%d step=%d: epoch %d export diverges from batch",
						threads, seed, s, a.Epoch())
				}
				if err := a.Verify(); err != nil {
					t.Fatalf("threads=%d seed=%d step=%d: epoch analysis invalid: %v",
						threads, seed, s, err)
				}
			}
			lr.finish(t)
			final := inc.Fold()
			if got, want := exportBytes(t, final), exportBytes(t, lr.g.Analyze()); !bytes.Equal(got, want) {
				t.Fatalf("threads=%d seed=%d: final epoch diverges from batch", threads, seed)
			}
			if final.Epoch() != uint64(folds+1) {
				t.Fatalf("threads=%d seed=%d: epoch = %d after %d folds", threads, seed, final.Epoch(), folds+1)
			}
		}
	}
}

// TestIncrementalMatchesSpecOverRandomPrefixes anchors the fold on the
// spec over the same corpus: at every epoch the data section must equal
// dataEdgesReference over the epoch's vertices, and the export must be
// byte-identical to a flat newAnalysis over the reference sections —
// across 1 and 4 threads and fold workers {1, 4, GOMAXPROCS}. The one
// fold Graph.Analyze takes is held to the same oracle at the end.
func TestIncrementalMatchesSpecOverRandomPrefixes(t *testing.T) {
	check := func(a *core.Analysis, where string) {
		t.Helper()
		syncRef, dataRef := core.ReferenceSections(a)
		sync, data := a.EdgeSections()
		if len(data)+len(dataRef) > 0 && !reflect.DeepEqual(data, dataRef) {
			t.Fatalf("%s: epoch %d data section diverges from dataEdgesReference", where, a.Epoch())
		}
		// Stats counts edges by arithmetic over the layered index; the
		// materialized sequence is the definition.
		if st := a.Stats(); st.SyncEdges != len(sync) || st.DataEdges != len(data) ||
			st.ControlEdges+st.SyncEdges+st.DataEdges != len(a.Edges()) {
			t.Fatalf("%s: epoch %d Stats counts %d control, %d sync, %d data edges; Edges holds %d, %d sync, %d data",
				where, a.Epoch(), st.ControlEdges, st.SyncEdges, st.DataEdges, len(a.Edges()), len(sync), len(data))
		}
		if got, want := exportBytes(t, a), exportBytes(t, core.FlatAnalysis(a, syncRef, dataRef)); !bytes.Equal(got, want) {
			t.Fatalf("%s: epoch %d export diverges from the flat reference analysis", where, a.Epoch())
		}
	}
	for _, threads := range []int{1, 4} {
		for _, workers := range []int{1, 4, 0} { // 0 = GOMAXPROCS
			for seed := int64(0); seed < 8; seed++ {
				lr := newLiveRecording(t, threads, 48, seed)
				inc := core.NewIncrementalAnalyzer(lr.g)
				inc.SetFoldWorkers(workers)
				foldR := rand.New(rand.NewSource(seed * 7731))
				where := func(s int) string {
					return fmt.Sprintf("threads=%d workers=%d seed=%d step=%d", threads, workers, seed, s)
				}
				steps := 60 + int(seed)*17
				for s := 0; s < steps; s++ {
					lr.step(t, 48)
					if foldR.Intn(9) == 0 {
						check(inc.Fold(), where(s))
					}
				}
				lr.finish(t)
				check(inc.Fold(), where(steps))
				check(lr.g.Analyze(), where(steps)+" (Analyze)")
			}
		}
	}
}

// TestIncrementalEmptyAndIdleFolds covers the degenerate epochs: folding
// an empty graph, and folding with nothing new sealed in between.
func TestIncrementalEmptyAndIdleFolds(t *testing.T) {
	lr := newLiveRecording(t, 2, 16, 1)
	inc := core.NewIncrementalAnalyzer(lr.g)
	a1 := inc.Fold()
	if a1.Epoch() != 1 || a1.NumVertices() != 0 {
		t.Fatalf("empty fold: epoch %d, %d vertices", a1.Epoch(), a1.NumVertices())
	}
	if got, want := exportBytes(t, a1), exportBytes(t, lr.g.Analyze()); !bytes.Equal(got, want) {
		t.Fatal("empty fold diverges from batch")
	}
	lr.step(t, 16)
	a2 := inc.Fold()
	a3 := inc.Fold()
	if a3.Epoch() != 3 {
		t.Fatalf("idle fold epoch = %d", a3.Epoch())
	}
	if got, want := exportBytes(t, a3), exportBytes(t, a2); !bytes.Equal(got, want) {
		t.Fatal("idle fold changed the analysis")
	}
}

// TestIncrementalPendingAcquireDeferred pins the deferred sync-edge
// path directly: an acquire logs its schedule edge before the acquiring
// sub-computation seals, so a fold taken in between must withhold the
// edge and a fold after the seal must include it.
func TestIncrementalPendingAcquireDeferred(t *testing.T) {
	g := core.NewGraph(2)
	r0, _ := core.NewRecorder(g, 0, 0)
	r1, _ := core.NewRecorder(g, 1, 0)
	m := g.NewSyncObject("m", false)
	sc, err := r0.EndSub(core.SyncEvent{Kind: core.SyncRelease, Object: m.Ref()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r0.Release(m, sc)
	r1.Acquire(m) // edge T0.0 -> T1.0 logged; T1.0 still open

	inc := core.NewIncrementalAnalyzer(g)
	a := inc.Fold()
	for _, e := range a.Edges() {
		if e.Kind == core.EdgeSync {
			t.Fatalf("sync edge %v -> %v included before its acquirer sealed", e.From, e.To)
		}
	}
	if got, want := exportBytes(t, a), exportBytes(t, g.Analyze()); !bytes.Equal(got, want) {
		t.Fatal("mid-acquire fold diverges from batch")
	}

	if _, err := r1.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r0.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
		t.Fatal(err)
	}
	a = inc.Fold()
	found := false
	for _, e := range a.Edges() {
		if e.Kind == core.EdgeSync && e.From == sc.ID && e.To == (core.SubID{Thread: 1, Alpha: 0}) {
			found = true
		}
	}
	if !found {
		t.Fatal("deferred sync edge never included after its acquirer sealed")
	}
	if got, want := exportBytes(t, a), exportBytes(t, g.Analyze()); !bytes.Equal(got, want) {
		t.Fatal("post-seal fold diverges from batch")
	}
}

// TestIncrementalFoldDuringConcurrentRecording races folds against live
// recorder appends (run under -race in CI): every epoch must be a valid
// CPG over a causally consistent prefix, and the final fold — after the
// recorders quiesce — must match the batch analysis exactly.
func TestIncrementalFoldDuringConcurrentRecording(t *testing.T) {
	const threads = 4
	g := core.NewGraph(threads)
	lock := g.NewSyncObject("l", false)
	inc := core.NewIncrementalAnalyzer(g)

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
			for i := 0; i < 300; i++ {
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
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		a := inc.Fold()
		if err := a.Verify(); err != nil {
			t.Fatalf("epoch %d invalid during recording: %v", a.Epoch(), err)
		}
	}
	final := inc.Fold()
	if got, want := exportBytes(t, final), exportBytes(t, g.Analyze()); !bytes.Equal(got, want) {
		t.Fatal("final fold diverges from batch after quiesce")
	}
}

// TestAnalyzeDuringConcurrentRecording races Graph.Analyze against live
// recorder appends (run under -race in CI). Analyze takes the fold's
// causally closed cut, so every included vertex's clock must lie inside
// the analyzed prefix — a reader never appears without the writers it
// has seen — and every mid-run analysis must verify. Measuring the
// shard lengths one by one instead (the pre-fold Analyze) admits a
// reader sealed after its writer's shard was measured, and with it an
// edge from an older, hidden writer.
func TestAnalyzeDuringConcurrentRecording(t *testing.T) {
	const threads = 4
	g := core.NewGraph(threads)
	lock := g.NewSyncObject("l", false)

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
			for i := 0; i < 300; i++ {
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
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		a := g.Analyze()
		if a.Epoch() != 0 {
			t.Fatalf("Analyze stamped epoch %d, want 0", a.Epoch())
		}
		lens := a.ThreadLens()
		for _, sc := range a.Subs() {
			for u, n := range lens {
				if seen := int(sc.Clock.Get(u)); seen > n {
					t.Fatalf("%v has seen %d vertices of thread %d, the analyzed prefix holds %d", sc.ID, seen, u, n)
				}
			}
		}
		if err := a.Verify(); err != nil {
			t.Fatalf("mid-run Analyze over prefix %v invalid: %v", lens, err)
		}
	}
}
