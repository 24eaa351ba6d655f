package epoch_test

import (
	"runtime"
	"testing"
	"time"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/core/cpgbench"
	"github.com/repro/inspector/internal/epoch"
)

// frameSink asks for every epoch's frame and drops it: a journal or an
// uploader without its I/O.
type frameSink struct{}

func (frameSink) Emit(_ core.Cut, frame epoch.Frame) error { _, err := frame(); return err }
func (frameSink) Finish(uint64) error                      { return nil }

// BenchmarkDriverPerSeal records internal/core's live schedule (the
// DataEdges/sparse execution: 8 threads, 2000 steps) with one epoch per
// seal and one every-epoch consumer: an epoch.Follower (follow), or a
// sink that frames every epoch (frame). It reports the sealing thread's
// ns/seal (the commit hook's time), ns/epoch from the first seal until
// Close returns, and allocs/epoch beyond what the recording allocates
// alone, both recording included.
func BenchmarkDriverPerSeal(b *testing.B) {
	sched := cpgbench.DrawSchedule(8, 2000, 64, 1, 42)
	run := func(sink func(*core.Graph) epoch.Sink) (sealing, total time.Duration, epochs, mallocs uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rp := sched.NewReplay()
		var hook func(core.SubID)
		var d *epoch.Driver
		if sink != nil {
			d = epoch.NewDriver(rp.Graph, epoch.Options{}, sink(rp.Graph))
			hook = d.CommitHook()
		}
		start := time.Now()
		for s := 1; s <= sched.Steps(); s++ {
			rp.To(s)
			if hook != nil {
				t0 := time.Now()
				hook(core.SubID{})
				sealing += time.Since(t0)
			}
		}
		if d != nil {
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
			epochs = d.Epoch()
		}
		total = time.Since(start)
		runtime.ReadMemStats(&after)
		return sealing, total, epochs, after.Mallocs - before.Mallocs
	}
	for _, v := range []struct {
		name string
		sink func(*core.Graph) epoch.Sink
	}{
		{"follow", func(g *core.Graph) epoch.Sink {
			return epoch.NewFollower(g, nil, epoch.ObserverFunc(func(*core.Analysis, uint64) {}))
		}},
		{"frame", func(*core.Graph) epoch.Sink { return frameSink{} }},
	} {
		b.Run(v.name, func(b *testing.B) {
			_, _, _, recording := run(nil)
			b.ResetTimer()
			var sealing, total time.Duration
			var epochs, mallocs uint64
			for i := 0; i < b.N; i++ {
				s, t, e, m := run(v.sink)
				sealing, total, epochs, mallocs = sealing+s, total+t, epochs+e, mallocs+m-min(m, recording)
			}
			b.ReportMetric(float64(sealing.Nanoseconds())/float64(b.N*sched.Steps()), "ns/seal")
			b.ReportMetric(float64(total.Nanoseconds())/float64(epochs), "ns/epoch")
			b.ReportMetric(float64(mallocs)/float64(epochs), "allocs/epoch")
		})
	}
}
