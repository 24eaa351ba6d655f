package provenance_test

// The query-engine benchmark suite: slice and taint — the two
// closure-heavy query kinds — against the dense cpgbench execution (24
// pages, 4 accesses per sub-computation over 8 threads: a rich
// happens-before web; the same graph as internal/core's
// BenchmarkDataEdgesDense), serially and 8-way parallel. Serial and
// parallel perform the same per-op work, so their ratio exposes how well
// concurrent clients share one immutable Analysis — given idle cores to
// run them on.

import (
	"context"
	"sync"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/core/cpgbench"
	"github.com/repro/inspector/provenance"
)

// queryWorkers is the fan-out of the parallel benchmarks.
const queryWorkers = 8

// benchEngine memoizes the fixture (read-only across benchmarks): the
// engine over the dense graph and a slice of thread 0's last vertex.
var benchEngine = sync.OnceValues(func() (*provenance.Engine, provenance.Query) {
	g := cpgbench.BuildRandomGraph(8, 2000, 24, 4, 43)
	var target core.SubID
	for _, sc := range g.Subs() {
		if sc.ID.Thread == 0 {
			target = sc.ID
		}
	}
	return provenance.NewEngine(g.Analyze(), provenance.EngineOptions{}),
		provenance.Query{Kind: provenance.KindSlice, Target: target.String()}
})

var taintQuery = provenance.Query{Kind: provenance.KindTaint, Target: "T1.0"}

func benchSerial(b *testing.B, eng *provenance.Engine, q provenance.Query) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// benchParallel runs queryWorkers concurrent executions per op (the same
// total work as queryWorkers serial ops), so ns/op divided by the serial
// benchmark measures scaling, not a smaller workload.
func benchParallel(b *testing.B, eng *provenance.Engine, q provenance.Query) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make(chan error, queryWorkers)
		for w := 0; w < queryWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := eng.Execute(ctx, q); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryEngine measures one backward slice through the Engine
// (query validation, closure traversal, wire conversion).
func BenchmarkQueryEngine(b *testing.B) {
	eng, sliceQuery := benchEngine()
	benchSerial(b, eng, sliceQuery)
}

// BenchmarkQueryEngineParallel runs 8 concurrent slices per op against
// the shared engine — the inspector-serve concurrency story.
func BenchmarkQueryEngineParallel(b *testing.B) {
	eng, sliceQuery := benchEngine()
	benchParallel(b, eng, sliceQuery)
}

// BenchmarkQueryEngineTaint measures forward taint through the Engine.
func BenchmarkQueryEngineTaint(b *testing.B) {
	eng, _ := benchEngine()
	benchSerial(b, eng, taintQuery)
}

// BenchmarkQueryEngineTaintPerSeal is the taint query over an execution
// of the same shape, but through the analysis a live source serves:
// folded once per sealed sub-computation, so the forward traversal
// merges each vertex's successor runs across the sealed base and
// whatever overlay layers the last epochs left, where the batch Analyze
// above reads one base.
func BenchmarkQueryEngineTaintPerSeal(b *testing.B) {
	sched := cpgbench.DrawSchedule(8, 2000, 24, 4, 43)
	rp := sched.NewReplay()
	inc := core.NewIncrementalAnalyzer(rp.Graph)
	var a *core.Analysis
	for s := 1; s <= sched.Steps(); s++ {
		rp.To(s)
		a = inc.Fold()
	}
	benchSerial(b, provenance.NewEngine(a, provenance.EngineOptions{}), taintQuery)
}

// BenchmarkQueryEngineTaintParallel is the 8-way taint variant.
func BenchmarkQueryEngineTaintParallel(b *testing.B) {
	eng, _ := benchEngine()
	benchParallel(b, eng, taintQuery)
}
