package provenance

import (
	"context"
	"testing"
	"time"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/core/cpgbench"
	"github.com/repro/inspector/internal/epoch"
)

// drainEpochs is the backlog BenchmarkUploaderDrain queues.
const drainEpochs = 4096

// BenchmarkUploaderDrain measures the uploader's drain of a backlog:
// drainEpochs per-seal deltas queued behind a parked first POST to a
// loopback aggregator, Finish called, then the release and the drain
// through the seal — what Close pays when the stream has fallen behind.
// ns/epoch covers the release to Wait's return, the aggregator's apply,
// fold and publish included; posts/drain counts the stream's POSTs, the
// parked one included.
func BenchmarkUploaderDrain(b *testing.B) {
	sched := cpgbench.DrawSchedule(2, drainEpochs, 256, 2, 61)
	rp := sched.NewReplay()
	inc := core.NewIncrementalAnalyzer(rp.Graph)
	deltas := make([]*core.EpochDelta, drainEpochs)
	for s := range deltas {
		rp.To(s + 1)
		deltas[s] = inc.Cut()
	}
	ctx := context.Background()
	var draining time.Duration
	posts := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		agg := newGatedAggregator(b)
		u, err := NewUploader(agg.c, 2, StreamOptions{Source: "bench", RunID: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		for j, d := range deltas {
			if err := u.Emit(epoch.Epoch{Delta: d}); err != nil {
				b.Fatal(err)
			}
			if j == 0 {
				agg.awaitFirst(b)
			}
		}
		if err := u.Finish(deltas[drainEpochs-1].Epoch); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		start := time.Now()
		agg.open()
		if err := u.Wait(ctx); err != nil {
			b.Fatal(err)
		}
		draining += time.Since(start)
		b.StopTimer()
		posts += len(agg.posted())
		agg.close()
		b.StartTimer()
	}
	b.ReportMetric(float64(draining.Nanoseconds())/float64(b.N*drainEpochs), "ns/epoch")
	b.ReportMetric(float64(posts)/float64(b.N), "posts/drain")
}
