package core_test

// The CPG-core benchmark suite: the EndSub append path serial and
// contended, the data-edge derivation sparse and dense, analysis
// construction, a wide backward slice, the full invariant check, the
// PageSet hot path, the live pipeline's epoch folds against the naive
// full re-Analyze at the same cadence, and the fold at the cadence the
// recorder runs it (one epoch per seal). Everything drives the public
// core API only (plus the test-only ReferenceAnalyzer), so the scenarios
// stay valid across store rewrites.
// TestAllocsSliceVerifyPerVertex bounds the traversals' allocations,
// TestAllocsFoldPerSeal the per-seal fold's.

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/core/cpgbench"
)

const (
	// endSubBatch is the sub-computations recorded per op in the EndSub
	// benchmarks; batching keeps the graph (which retains every vertex)
	// freshly rebuilt each op so memory stays bounded at any b.N.
	endSubBatch = 1000
	// endSubWorkers is the recording-thread count of the parallel
	// benchmark. Serial and parallel record the same total work per op,
	// so their ns/op are directly comparable: the gap is pure
	// contention on the vertex-append path.
	endSubWorkers = 8
)

// endSubs drives n sub-computations through g's recorder slot: 4 reads,
// 4 writes, 2 branches, then the sync boundary.
func endSubs(g *core.Graph, slot, n int, pageBase uint64) {
	rec, err := core.NewRecorder(g, slot, 0)
	if err != nil {
		panic(err)
	}
	sa := g.InternSite("bench.a")
	sb := g.InternSite("bench.b")
	ev := core.SyncEvent{Kind: core.SyncRelease, Object: g.InternObject("l")}
	for i := 0; i < n; i++ {
		p := pageBase + uint64(i%29)
		rec.OnRead(p)
		rec.OnRead(p + 3)
		rec.OnRead(p + 7)
		rec.OnRead(p + 11)
		rec.OnWrite(p + 1)
		rec.OnWrite(p + 5)
		rec.OnWrite(p + 9)
		rec.OnWrite(p + 13)
		rec.OnBranch(sa, i%2 == 0)
		rec.OnBranch(sb, i%3 == 0)
		if _, err := rec.EndSub(ev, 0); err != nil {
			panic(err)
		}
	}
}

// bg is the context of the queries this package's tests never cancel.
var bg = context.Background()

// The fixtures are read-only across benchmarks, so each — and the CI
// 1-iteration smoke — pays the setup once.
var (
	sparseGraph = sync.OnceValue(func() *core.Graph { return cpgbench.BuildRandomGraph(8, 2000, 64, 1, 42) })
	denseGraph  = sync.OnceValue(func() *core.Graph { return cpgbench.BuildRandomGraph(8, 2000, 24, 4, 43) })
	sparseA     = sync.OnceValue(func() *core.Analysis { return sparseGraph().Analyze() })
	// wideA is the Slice/wide fixture: thread 0's last vertex of a
	// 4000-vertex, 16-page execution, whose backward closure spans
	// nearly the whole graph.
	wideA = sync.OnceValues(func() (*core.Analysis, core.SubID) {
		g := cpgbench.BuildRandomGraph(4, 4000, 16, 1, 44)
		var target core.SubID
		for _, sc := range g.Subs() {
			if sc.ID.Thread == 0 {
				target = sc.ID
			}
		}
		return g.Analyze(), target
	})
	// liveSchedule is the DataEdges/sparse execution, pre-drawn.
	liveSchedule = sync.OnceValue(func() *cpgbench.Schedule { return cpgbench.DrawSchedule(8, 2000, 64, 1, 42) })
	// largeSchedule is a 2^20-step 8-thread execution (>=10^6 vertices),
	// drawn lazily so runs that filter the Large benchmarks out never
	// pay the draw or its memory.
	largeSchedule = sync.OnceValue(func() *cpgbench.Schedule { return cpgbench.DrawSchedule(8, 1<<20, 4096, 2, 46) })
)

// BenchmarkEndSub measures the vertex-append path: one op records 1000
// sub-computations (4 reads, 4 writes, 2 branches each) into a fresh
// graph through a single recorder.
func BenchmarkEndSub(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		endSubs(core.NewGraph(endSubWorkers), 0, endSubBatch, 0)
	}
}

// BenchmarkEndSubParallel records the same 1000 sub-computations per op
// split across 8 concurrent recorders — the decentralization check: with
// per-thread shards this should approach EndSub/8, where the global
// RWMutex of the pre-columnar store kept it at EndSub or worse.
func BenchmarkEndSubParallel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := core.NewGraph(endSubWorkers)
		var wg sync.WaitGroup
		for w := 0; w < endSubWorkers; w++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				endSubs(g, slot, endSubBatch/endSubWorkers, uint64(slot)*64)
			}(w)
		}
		wg.Wait()
	}
}

func benchDataEdges(b *testing.B, g *core.Graph) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.DataEdges()
	}
}

// BenchmarkDataEdges measures the update-use derivation over a
// 2000-vertex, 64-page random execution.
func BenchmarkDataEdges(b *testing.B) { benchDataEdges(b, sparseGraph()) }

// BenchmarkDataEdgesDense is the high-sharing variant (24 pages, 4
// accesses per sub-computation).
func BenchmarkDataEdgesDense(b *testing.B) { benchDataEdges(b, denseGraph()) }

// BenchmarkAnalyze measures full analysis construction (edge derivation
// plus CSR adjacency).
func BenchmarkAnalyze(b *testing.B) {
	g := sparseGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Analyze()
	}
}

// BenchmarkSliceWide measures a backward slice whose closure spans
// nearly the whole 4000-vertex graph — the regression guard for how a
// closure orders its result (a quadratic insertion sort once; a scan of
// the visited bitmap now).
func BenchmarkSliceWide(b *testing.B) {
	a, target := wideA()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SliceCtx(bg, target)
	}
}

// BenchmarkVerify measures the full invariant check (clock order,
// acyclicity, and the data-edge page-containment of invariant 3).
func BenchmarkVerify(b *testing.B) {
	a := sparseA()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageSetAdd measures the read/write-set hot path: 96 inserts
// (duplicates included, as fault streams produce them) over a 1024-page
// range.
func BenchmarkPageSetAdd(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	input := make([]uint64, 96)
	for i := range input {
		input[i] = uint64(r.Intn(1024))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.NewPageSet()
		for _, p := range input {
			s.Add(p)
		}
	}
}

// benchLive replays sched in `epochs` evenly sized chunks per op,
// calling the analyze function newAnalyze returns for that op's graph
// after each chunk. Recording happens off the clock, so the measured
// cost is purely the analysis work (setting the analyzer up included) —
// the cumulative number the live pipeline pays per run at a given epoch
// cadence.
func benchLive(b *testing.B, sched *cpgbench.Schedule, epochs int, newAnalyze func(g *core.Graph) func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rp := sched.NewReplay()
		var analyze func()
		for e := 1; e <= epochs; e++ {
			rp.To(sched.Steps() * e / epochs)
			b.StartTimer()
			if e == 1 {
				analyze = newAnalyze(rp.Graph)
			}
			analyze()
			b.StopTimer()
		}
		b.StartTimer()
	}
}

// incrementalFold folds each epoch with one IncrementalAnalyzer per
// graph, its derivation fan-out pinned to workers (0 = GOMAXPROCS).
func incrementalFold(workers int) func(g *core.Graph) func() {
	return func(g *core.Graph) func() {
		inc := core.NewIncrementalAnalyzer(g)
		inc.SetFoldWorkers(workers)
		return func() { inc.Fold() }
	}
}

// referenceFold is the full-rebuild-per-epoch fold (export_test.go).
func referenceFold(g *core.Graph) func() {
	ref := core.NewReferenceAnalyzer(g)
	return func() { ref.Fold() }
}

// reAnalyze runs the post-mortem batch Analyze at every epoch boundary
// — the naive way to serve queries mid-run, quadratic in graph size.
func reAnalyze(g *core.Graph) func() { return func() { g.Analyze() } }

// BenchmarkIncrementalAnalyze measures the live pipeline's cumulative
// analysis cost over the DataEdges/sparse execution folded at an
// 8-epoch cadence; the /1 and /64 variants bracket it. Compare against
// BenchmarkReAnalyze at the same cadence: the fold derives each
// vertex's edges once, the naive re-Analyze pays the whole prefix at
// every epoch.
func BenchmarkIncrementalAnalyze(b *testing.B) {
	benchLive(b, liveSchedule(), 8, incrementalFold(0))
}
func BenchmarkIncrementalAnalyze1(b *testing.B) {
	benchLive(b, liveSchedule(), 1, incrementalFold(0))
}
func BenchmarkIncrementalAnalyze64(b *testing.B) {
	benchLive(b, liveSchedule(), 64, incrementalFold(0))
}

// BenchmarkReAnalyze is the naive live baseline: one full batch Analyze
// at every epoch boundary of the same schedule.
func BenchmarkReAnalyze(b *testing.B)   { benchLive(b, liveSchedule(), 8, reAnalyze) }
func BenchmarkReAnalyze1(b *testing.B)  { benchLive(b, liveSchedule(), 1, reAnalyze) }
func BenchmarkReAnalyze64(b *testing.B) { benchLive(b, liveSchedule(), 64, reAnalyze) }

// BenchmarkIncrementalAnalyzeParallel runs the same fold with the
// data-edge derivation fanned across 8 workers; with fewer idle cores
// than workers it measures the fan-out overhead, not a speedup.
func BenchmarkIncrementalAnalyzeParallel(b *testing.B) {
	benchLive(b, liveSchedule(), 8, incrementalFold(8))
}
func BenchmarkIncrementalAnalyzeParallel64(b *testing.B) {
	benchLive(b, liveSchedule(), 64, incrementalFold(8))
}

// largeEpochs is the fold cadence of the large-graph benchmarks.
const largeEpochs = 64

// BenchmarkIncrementalAnalyzeLarge scales the fold comparison to the
// 2^20-step execution at a 64-epoch cadence: this one is the
// full-rebuild reference fold (the "serial" row), Workers1 and Workers8
// the incremental delta-overlay fold at a fixed derivation fan-out.
func BenchmarkIncrementalAnalyzeLarge(b *testing.B) {
	benchLive(b, largeSchedule(), largeEpochs, referenceFold)
}
func BenchmarkIncrementalAnalyzeLargeWorkers1(b *testing.B) {
	benchLive(b, largeSchedule(), largeEpochs, incrementalFold(1))
}
func BenchmarkIncrementalAnalyzeLargeWorkers8(b *testing.B) {
	benchLive(b, largeSchedule(), largeEpochs, incrementalFold(8))
}

// foldPerSeal replays sched one step at a time, sealing an epoch through
// FoldDelta after every step when fold is set. It returns the time spent
// inside the folds and the objects the whole replay allocated: the
// recording is deterministic, so a folding replay's count minus a plain
// one's is exactly what the folds allocated.
func foldPerSeal(sched *cpgbench.Schedule, fold bool) (folding time.Duration, mallocs uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rp := sched.NewReplay()
	inc := core.NewIncrementalAnalyzer(rp.Graph)
	for s := 1; s <= sched.Steps(); s++ {
		rp.To(s)
		if fold {
			start := time.Now()
			inc.FoldDelta()
			folding += time.Since(start)
		}
	}
	runtime.ReadMemStats(&after)
	return folding, after.Mallocs - before.Mallocs
}

// BenchmarkFoldPerSeal measures the fold at the recorder's cadence — one
// FoldDelta per sealed sub-computation, which is what a journaled or
// streamed run pays — over the DataEdges/sparse execution (2000 epochs)
// and, unless -short, the 2^20-step one. ns/epoch and allocs/epoch are
// the fold's own; ns/op also covers recording the execution.
func BenchmarkFoldPerSeal(b *testing.B) {
	run := func(sched func() *cpgbench.Schedule) func(b *testing.B) {
		return func(b *testing.B) {
			s := sched()
			_, recording := foldPerSeal(s, false)
			b.ResetTimer()
			var folding time.Duration
			var mallocs uint64
			for i := 0; i < b.N; i++ {
				d, m := foldPerSeal(s, true)
				folding += d
				mallocs += m - recording
			}
			epochs := float64(b.N * s.Steps())
			b.ReportMetric(float64(folding.Nanoseconds())/epochs, "ns/epoch")
			b.ReportMetric(float64(mallocs)/epochs, "allocs/epoch")
		}
	}
	b.Run("live", run(liveSchedule))
	if !testing.Short() {
		b.Run("large", run(largeSchedule))
	}
}

// TestAllocsFoldPerSeal pins the per-seal fold's allocation diet: an
// epoch that seals one sub-computation allocates what it hands out (the
// delta and its slices, the Analysis view, the derived edges, the
// overlay layer) and amortized growth, nothing per-epoch besides.
func TestAllocsFoldPerSeal(t *testing.T) {
	sched := liveSchedule()
	_, recording := foldPerSeal(sched, false)
	_, folded := foldPerSeal(sched, true)
	perEpoch := float64(folded-recording) / float64(sched.Steps())
	t.Logf("%.2f allocs per epoch", perEpoch)
	if perEpoch > 10 {
		t.Errorf("per-seal FoldDelta allocates %.2f objects per epoch, want at most 10", perEpoch)
	}
}

// TestAllocsSliceVerifyPerVertex bounds what the closure, path and
// verify walks allocate per vertex they visit: result and work-list
// growth only, never a per-visit object (the synthesized control Edge
// once escaped through the visit callback — 3999 and 2005 allocs/op on
// these two fixtures). (Named Allocs*, not after the walks, so -race
// -run patterns never select it: the race detector allocates.)
func TestAllocsSliceVerifyPerVertex(t *testing.T) {
	wide, target := wideA()
	sparse := sparseA()
	for _, c := range []struct {
		name     string
		vertices int
		fn       func()
	}{
		{"Slice/wide", wide.NumVertices(), func() { wide.SliceCtx(bg, target) }},
		{"Path/wide", wide.NumVertices(), func() { wide.PathCtx(bg, core.SubID{Thread: 0, Alpha: 0}, target) }},
		{"Verify/sparse", sparse.NumVertices(), func() {
			if err := sparse.Verify(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(5, c.fn); got > float64(c.vertices)/10 {
			t.Errorf("%s: %v allocs per run over %d vertices, want at most one per 10", c.name, got, c.vertices)
		}
	}
}
