package cpgfile

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"github.com/repro/inspector/internal/allocpin"
	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/core/cpgbench"
)

// encodeFixture is the core suite's DataEdges/sparse execution (8
// threads, 2000 steps, 64 pages), analyzed once.
var encodeFixture = sync.OnceValue(func() *core.Analysis {
	return cpgbench.BuildRandomGraph(8, 2000, 64, 1, 42).Analyze()
})

// BenchmarkEncode measures the encode layer of the .cpg format: one
// Encode of a finished analysis into memory, the step a recording pays
// between its Analyze and the file it serves.
func BenchmarkEncode(b *testing.B) {
	a := encodeFixture()
	var buf bytes.Buffer
	if err := Encode(&buf, a, Meta{RunID: "bench", App: "random"}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Encode(&buf, a, Meta{RunID: "bench", App: "random"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMappedAnalysis measures what a cold query pays the read
// path: one Analysis of a Mapped whose first materialization is done,
// so each op is a re-materialization. sparse is encodeFixture's file,
// whose vertices carry no control path; thunky is a 64-vertex graph of
// 128 000 thunks, where the thunks section is nearly the whole file and
// is copied and checksummed, never decoded.
func BenchmarkMappedAnalysis(b *testing.B) {
	for _, fx := range []struct {
		name string
		a    func() *core.Analysis
	}{
		{"sparse", encodeFixture},
		{"thunky", func() *core.Analysis { return thunkyGraph(64, 2000).Analyze() }},
	} {
		b.Run(fx.name, func(b *testing.B) {
			path, file := encodeFile(b, fx.a())
			m, err := Open(path)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			if _, _, err := m.Analysis(); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(file)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.Analysis(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAllocsMappedAnalysis pins what a re-materialization allocates:
// vertices from slabs of 128, their words from shared chunks, each
// thread's run and sync log restored whole, so the count is
// O(vertices/64 + threads), not one or more per vertex (a decode that
// allocated per vertex made 6 266 objects of this fixture). It measures
// in a process of its own (allocpin.MeasureAlone).
func TestAllocsMappedAnalysis(t *testing.T) {
	if !allocpin.MeasureAlone(t) {
		return
	}
	a := encodeFixture()
	path, _ := encodeFile(t, a)
	m := openMapped(t, path)
	if _, _, err := m.Analysis(); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(5, func() {
		if _, _, err := m.Analysis(); err != nil {
			t.Fatal(err)
		}
	})
	vertices, threads := a.NumVertices(), len(a.ThreadLens())
	limit := float64(vertices/64 + 16*threads + 32)
	t.Logf("%v allocs per re-materialization of %d vertices on %d threads (limit %v)", got, vertices, threads, limit)
	if got > limit {
		t.Errorf("re-materialization allocated %v objects, want at most %v (vertices/64 + 16 x threads + 32)", got, limit)
	}
}

// TestSlabsFillTheirSizeClass pins slabLen's premise, the runtime's size
// classes: every slab it sizes allocates less than one vertex beyond its
// vertices and the 8-byte malloc header, and it never sizes one longer
// than asked.
func TestSlabsFillTheirSizeClass(t *testing.T) {
	size := uint64(unsafe.Sizeof(core.SubComputation{}))
	var before, after runtime.MemStats
	for want := 1; want <= slabVertices; want++ {
		n := slabLen(want)
		if n < 1 || n > want {
			t.Fatalf("slabLen(%d) = %d", want, n)
		}
		// The least of three tries: another goroutine's allocation can
		// land between the reads.
		got := uint64(math.MaxUint64)
		for range 3 {
			runtime.ReadMemStats(&before)
			slabSink = make([]core.SubComputation, n)
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		if got >= uint64(n)*size+8+size {
			t.Errorf("a slab of %d vertices (for %d) allocated %d B, a vertex or more beyond its %d and the header", n, want, got, uint64(n)*size)
		}
	}
}

var slabSink []core.SubComputation

// TestFootprintTracksRetainedHeap holds decodeAnalysis's footprint
// estimate, what the serving layer budgets resident analyses by, to
// within 25 % of the heap a re-materialization of encodeFixture's file
// keeps live: HeapAlloc after a collection with the analysis live,
// minus HeapAlloc after one before it. It measures in a process of its
// own (allocpin.MeasureAlone).
func TestFootprintTracksRetainedHeap(t *testing.T) {
	if !allocpin.MeasureAlone(t) {
		return
	}
	path, _ := encodeFile(t, encodeFixture())
	m := openMapped(t, path)
	if _, _, err := m.Analysis(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	a, estimate, err := m.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(a)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("estimated %d B, retained %d B (%.2fx) for %d vertices, %d edges", estimate, retained,
		float64(estimate)/float64(retained), a.NumVertices(), a.Stats().SyncEdges+a.Stats().DataEdges)
	if diff := estimate - retained; 4*diff > retained || -4*diff > retained {
		t.Errorf("footprint estimate %d B is more than 25%% off the %d B the analysis retains", estimate, retained)
	}
}
