package provenance_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/core/cpgbench"
	"github.com/repro/inspector/internal/wire"
	"github.com/repro/inspector/provenance"
)

// ingestBatch is the deltas per POST of BenchmarkIngestBatch.
const ingestBatch = 64

// BenchmarkIngestBatch measures the aggregator's apply side: one POST of
// ingestBatch deltas, recorded one epoch per seal the way a streamed
// run ships them, through the ingest handler into a fresh source
// (frame parse, decode, validate and append per delta, then the batch's
// fold and publish). ns/epoch and allocs/epoch cover the handler call
// only; the fresh hub and server each op builds are outside both.
func BenchmarkIngestBatch(b *testing.B) {
	sched := cpgbench.DrawSchedule(2, ingestBatch, 256, 2, 61)
	rp := sched.NewReplay()
	inc := core.NewIncrementalAnalyzer(rp.Graph)
	deltas := make([]*core.EpochDelta, 0, ingestBatch)
	for s := 1; s <= ingestBatch; s++ {
		rp.To(s)
		_, d := inc.FoldDelta()
		deltas = append(deltas, d)
	}
	body, err := provenance.EncodeFrames(wire.Hello{RunID: "bench", App: "bench", Threads: 2}, deltas, nil)
	if err != nil {
		b.Fatal(err)
	}

	var handling time.Duration
	var mallocs uint64
	var before, after runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv := provenance.NewServer(nil, provenance.ServerOptions{Ingest: provenance.NewIngestHub(provenance.IngestOptions{})})
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest/bench", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		start := time.Now()
		srv.ServeHTTP(rec, req)
		handling += time.Since(start)
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		if rec.Code != http.StatusOK {
			b.Fatalf("ingest POST: HTTP %d: %s", rec.Code, rec.Body)
		}
		b.StartTimer()
	}
	epochs := float64(b.N * ingestBatch)
	b.ReportMetric(float64(handling.Nanoseconds())/epochs, "ns/epoch")
	b.ReportMetric(float64(mallocs)/epochs, "allocs/epoch")
}
