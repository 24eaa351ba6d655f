// Ablations of the design decisions DESIGN.md calls out. The paper's
// figures and tables are regenerated by cmd/inspector-bench (the code is
// internal/harness/experiments.go, gated by its TestFigure*/TestTable*).
//
// The ablations report virtual-time and byte counts via b.ReportMetric;
// wall-clock ns/op measures the simulator itself, not the paper's claim.
// Run with:
//
//	go test -bench=. -benchmem
package inspector_test

import (
	"fmt"
	"testing"

	"github.com/repro/inspector/internal/mem"
	"github.com/repro/inspector/internal/perf"
	"github.com/repro/inspector/internal/threading"
	"github.com/repro/inspector/internal/vtime"
	"github.com/repro/inspector/internal/workloads"
)

// BenchmarkAblationGranularity ablates design decision 1: read/write-set
// tracking granularity. Smaller pages mean more faults but finer
// provenance; 4 KiB is the paper's choice.
func BenchmarkAblationGranularity(b *testing.B) {
	for _, pageSize := range []int{256, 1024, 4096, 16384} {
		b.Run(fmt.Sprintf("page=%d", pageSize), func(b *testing.B) {
			var faults, time float64
			for i := 0; i < b.N; i++ {
				w, err := workloads.Get("histogram")
				if err != nil {
					b.Fatal(err)
				}
				cfg := workloads.Config{Size: workloads.Small, Threads: 4, Seed: 1}
				rt, err := threading.NewRuntime(threading.Options{
					AppName: "histogram", Mode: threading.ModeInspector,
					MaxThreads: w.MaxThreads(cfg), PageSize: pageSize,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := w.Run(rt, cfg); err != nil {
					b.Fatal(err)
				}
				rep := rt.LastReport()
				faults = float64(rep.Faults())
				time = float64(rep.Time) / 1e6
			}
			b.ReportMetric(faults, "faults")
			b.ReportMetric(time, "vtime-Mcy")
		})
	}
}

// BenchmarkAblationCommit ablates design decision 2: diff-based commit
// versus whole-page copy, measured as bytes actually published.
func BenchmarkAblationCommit(b *testing.B) {
	// A fresh backing per iteration keeps the diff non-empty: rewriting
	// identical values into a warm backing would diff to nothing.
	freshBacking := func() *mem.Backing {
		backing, err := mem.NewBacking("heap", 0x10000, 1<<22, 4096)
		if err != nil {
			b.Fatal(err)
		}
		return backing
	}
	b.Run("diff-commit", func(b *testing.B) {
		var published float64
		for i := 0; i < b.N; i++ {
			backing := freshBacking()
			s := mem.NewSpace(1, []*mem.Backing{backing}, nil, true)
			// Sparse writes: 8 bytes in each of 64 pages.
			for p := 0; p < 64; p++ {
				if _, err := s.StoreU64(mem.Addr(0x10000+p*4096), uint64(p)+1); err != nil {
					b.Fatal(err)
				}
			}
			res := s.Commit()
			published = float64(res.CommittedBytes)
		}
		b.ReportMetric(published, "bytes-published")
	})
	b.Run("whole-page-copy", func(b *testing.B) {
		// The alternative design publishes every dirty page in full.
		var published float64
		for i := 0; i < b.N; i++ {
			backing := freshBacking()
			s := mem.NewSpace(2, []*mem.Backing{backing}, nil, true)
			for p := 0; p < 64; p++ {
				if _, err := s.StoreU64(mem.Addr(0x10000+p*4096), uint64(p)+1); err != nil {
					b.Fatal(err)
				}
			}
			res := s.Commit()
			published = float64(res.DirtyPages * 4096)
		}
		b.ReportMetric(published, "bytes-published")
	})
}

// BenchmarkAblationOrdering ablates design decision 3: decentralized
// vector clocks versus a single global serializing recorder, measured as
// virtual time of a lock-heavy run when every sync op costs a global
// round trip instead of a vclock merge.
func BenchmarkAblationOrdering(b *testing.B) {
	run := func(model vtime.CostModel) float64 {
		w, err := workloads.Get("canneal")
		if err != nil {
			b.Fatal(err)
		}
		cfg := workloads.Config{Size: workloads.Small, Threads: 8, Seed: 1}
		rt, err := threading.NewRuntime(threading.Options{
			AppName: "canneal", Mode: threading.ModeInspector,
			MaxThreads: w.MaxThreads(cfg), Model: model,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Run(rt, cfg); err != nil {
			b.Fatal(err)
		}
		return float64(rt.LastReport().Time) / 1e6
	}
	b.Run("vector-clocks", func(b *testing.B) {
		var t float64
		for i := 0; i < b.N; i++ {
			t = run(vtime.Default())
		}
		b.ReportMetric(t, "vtime-Mcy")
	})
	b.Run("global-serialization", func(b *testing.B) {
		// A total-order recorder serializes every sync event through one
		// channel: model it as a much costlier sync operation (a global
		// lock round trip under contention) with no per-slot clock cost.
		m := vtime.Default()
		m.SyncOp = 8000
		m.VectorClockPerSlot = 0
		var t float64
		for i := 0; i < b.N; i++ {
			t = run(m)
		}
		b.ReportMetric(t, "vtime-Mcy")
	})
}

// BenchmarkAblationPTEncoding ablates design decision 4: TNT bit-packing
// and last-IP compression versus naive fixed-width event records,
// measured as trace bytes per branch.
func BenchmarkAblationPTEncoding(b *testing.B) {
	w, err := workloads.Get("string_match")
	if err != nil {
		b.Fatal(err)
	}
	cfg := workloads.Config{Size: workloads.Small, Threads: 4, Seed: 1}
	b.Run("pt-packets", func(b *testing.B) {
		var bytesPerBranch float64
		for i := 0; i < b.N; i++ {
			rt, err := threading.NewRuntime(threading.Options{
				AppName: "string_match", Mode: threading.ModeInspector, MaxThreads: w.MaxThreads(cfg),
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := w.Run(rt, cfg); err != nil {
				b.Fatal(err)
			}
			rep := rt.LastReport()
			bytesPerBranch = float64(rep.TraceBytes) / float64(rep.Branches)
		}
		b.ReportMetric(bytesPerBranch, "bytes/branch")
	})
	b.Run("naive-records", func(b *testing.B) {
		// The strawman encodes every branch as a fixed 9-byte record
		// (8-byte IP + 1-byte outcome), with no TNT packing or IP
		// compression.
		var bytesPerBranch float64
		for i := 0; i < b.N; i++ {
			bytesPerBranch = 9.0
		}
		b.ReportMetric(bytesPerBranch, "bytes/branch")
	})
}

// BenchmarkSnapshot measures design decision 5: the bounded snapshot ring
// versus retaining the full trace.
func BenchmarkSnapshot(b *testing.B) {
	w, err := workloads.Get("canneal")
	if err != nil {
		b.Fatal(err)
	}
	cfg := workloads.Config{Size: workloads.Small, Threads: 4, Seed: 1}
	for _, snapshotMode := range []bool{false, true} {
		name := "full-trace"
		if snapshotMode {
			name = "snapshot-ring"
		}
		b.Run(name, func(b *testing.B) {
			var retainedMB float64
			for i := 0; i < b.N; i++ {
				opts := threading.Options{
					AppName: "canneal", Mode: threading.ModeInspector,
					MaxThreads: w.MaxThreads(cfg), AuxSize: 64 << 10,
				}
				if snapshotMode {
					opts.TraceMode = perf.ModeSnapshot
				}
				rt, err := threading.NewRuntime(opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := w.Run(rt, cfg); err != nil {
					b.Fatal(err)
				}
				retainedMB = float64(rt.Session().TotalTraceBytes()) / 1e6
			}
			b.ReportMetric(retainedMB, "retained-MB")
		})
	}
}
