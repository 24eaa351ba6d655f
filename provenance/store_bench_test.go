package provenance_test

// The bounded-memory store benchmark suite: the cost model the on-disk
// CPG store trades on. A cold query pays mmap-backed decode plus
// traversal under LRU eviction pressure, a warm query is a
// content-addressed result-cache hit. Each benchmark reports per-op
// p50/p99 latency and the resident-bytes estimate alongside ns/op — the
// tail the eviction churn produces and the memory ceiling the budget
// holds.

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/repro/inspector/internal/core/cpgbench"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/provenance"
)

// storeBudget is the resident-bytes budget every benchmark runs under —
// deliberately far below the fleet's total decoded size, so the cold
// rounds measure decode-under-eviction rather than a warm LRU.
const storeBudget = 256 << 10

// BenchmarkStore runs fleet sizes 16 and 256, each cold (round-robin
// over the fleet, result cache disabled — every op decodes and
// traverses) and warm (repeated identical query — every op after the
// first is a pure result-cache hit): BenchmarkStore/n16/cold,
// .../warm, n256 likewise.
func BenchmarkStore(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprintf("n%d/cold", n), func(b *testing.B) { benchStore(b, n, false) })
		b.Run(fmt.Sprintf("n%d/warm", n), func(b *testing.B) { benchStore(b, n, true) })
	}
}

// benchStore writes an n-file fleet, opens it under the tiny budget,
// and times one query per op. Setup (graph generation, encoding,
// OpenDir's checksum sweep) is untimed.
func benchStore(b *testing.B, n int, warm bool) {
	dir := b.TempDir()
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		g := cpgbench.BuildRandomGraph(2, 200, 24, 4, int64(i+1))
		id := fmt.Sprintf("cpg-%03d", i)
		if err := cpgfile.Write(filepath.Join(dir, id+".cpg"), g.Analyze(), cpgfile.Meta{RunID: id}); err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	opts := provenance.StoreOptions{ResidentBudget: storeBudget}
	if !warm {
		// Cold must pay decode + traversal every op; with the cache
		// on, the second lap over the fleet would be all hits.
		opts.ResultCacheCapacity = -1
	}
	store, err := provenance.OpenDir(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()

	ctx := context.Background()
	q := provenance.Query{Kind: provenance.KindSlice, Target: "T0.1"}
	durs := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[0]
		if !warm {
			id = ids[i%n]
		}
		start := time.Now()
		if _, err := store.Query(ctx, id, q); err != nil {
			b.Fatal(err)
		}
		durs = append(durs, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	b.ReportMetric(float64(durs[len(durs)/2].Nanoseconds()), "p50_ns")
	b.ReportMetric(float64(durs[len(durs)*99/100].Nanoseconds()), "p99_ns")
	st := store.Stats()
	if st.ResidentBudget > 0 && st.ResidentBytes > st.ResidentBudget {
		b.Fatalf("resident %d over budget %d", st.ResidentBytes, st.ResidentBudget)
	}
	b.ReportMetric(float64(st.ResidentBytes), "resident_B")
}
