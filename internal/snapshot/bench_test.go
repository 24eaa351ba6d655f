package snapshot

import (
	"fmt"
	"testing"

	"github.com/repro/inspector/internal/core/cpgbench"
	"github.com/repro/inspector/internal/perf"
)

// BenchmarkTake times one forced take over a graph of n vertices: four
// recorders, the n-vertex prefix recorded and cut every 64 seals
// outside the timer, then per timed iteration 64 more seals — a few
// percent of the time — and a take, which waits for the follower to
// fold both cuts.
// Run it with -benchtime=300x: the graph grows under the timer. It
// profiles a layer; compare it only with a same-hour run of another
// commit.
func BenchmarkTake(b *testing.B) {
	const every = 64
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%dk", n/1000), func(b *testing.B) {
			rep := cpgbench.DrawSchedule(4, n+every*b.N, 4096, 2, 46).NewReplay()
			r, drv := pipeline(rep.Graph, perf.NewSession(perf.SessionOptions{Mode: perf.ModeSnapshot}), every, Options{})
			for done := every; done <= n; done += every {
				rep.To(done)
				drv.Cut()
			}
			r.Take(drv) // the follower has folded the prefix
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep.To(n + every*(i+1))
				r.Take(drv)
			}
		})
	}
}
