package epoch_test

import (
	"testing"
	"time"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/core/cpgbench"
	"github.com/repro/inspector/internal/epoch"
)

// BenchmarkDriverPerSeal records internal/core's live schedule (the
// DataEdges/sparse execution: 8 threads, 2000 steps) with one epoch per
// seal and one every-epoch consumer, an epoch.Follower (follow). It
// reports the sealing thread's ns/seal (the commit hook's time) and
// ns/epoch from the first seal until Close returns, recording included.
func BenchmarkDriverPerSeal(b *testing.B) {
	sched := cpgbench.DrawSchedule(8, 2000, 64, 1, 42)
	b.Run("follow", func(b *testing.B) {
		var sealing, total time.Duration
		var epochs uint64
		for i := 0; i < b.N; i++ {
			rp := sched.NewReplay()
			f := epoch.NewFollower(rp.Graph, nil, epoch.ObserverFunc(func(*core.Analysis, *core.EpochDelta) {}))
			d := epoch.NewDriver(rp.Graph, epoch.Options{}, f)
			hook := d.CommitHook()
			start := time.Now()
			for s := 1; s <= sched.Steps(); s++ {
				rp.To(s)
				t0 := time.Now()
				hook(core.SubID{})
				sealing += time.Since(t0)
			}
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
			total += time.Since(start)
			epochs += d.Epoch()
		}
		b.ReportMetric(float64(sealing.Nanoseconds())/float64(b.N*sched.Steps()), "ns/seal")
		b.ReportMetric(float64(total.Nanoseconds())/float64(epochs), "ns/epoch")
	})
}
