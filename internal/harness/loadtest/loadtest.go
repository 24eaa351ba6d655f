// Package loadtest soaks the distributed provenance fabric: M streaming
// recorders and N query/watch clients against one aggregator, all in
// process. The pass criteria are the fabric's contract, not vague
// throughput: zero dropped epochs (every source sealed exactly at its
// recorder's final epoch) and byte-identical exports (the aggregator's
// GET /export is the .cpg of the recorder's own fold for every source).
// The report carries ingest and query throughput plus query latency
// quantiles for BenchmarkFabric.
package loadtest

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/provenance"
)

// Options size the soak.
type Options struct {
	// Recorders is M, the streaming recorder count (default 2).
	Recorders int
	// Clients is N, the query/watch client count (default 4).
	Clients int
	// Steps is the sub-computations each recorder seals (default 200).
	Steps int
	// Threads is each recorder's graph width (default 2).
	Threads int
	// Every cuts one epoch per N seals (default 2).
	Every uint64
	// Batch bounds deltas per upload (default 8).
	Batch int
	// Seed makes the synthetic workloads deterministic (default 1).
	Seed int64
}

func (o Options) normalize() Options {
	if o.Recorders <= 0 {
		o.Recorders = 2
	}
	if o.Clients <= 0 {
		o.Clients = 4
	}
	if o.Steps <= 0 {
		o.Steps = 200
	}
	if o.Threads <= 0 {
		o.Threads = 2
	}
	if o.Every == 0 {
		o.Every = 2
	}
	if o.Batch <= 0 {
		o.Batch = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Report is one soak's outcome.
type Report struct {
	// Recorders/Clients echo the effective options.
	Recorders int `json:"recorders"`
	Clients   int `json:"clients"`
	// Epochs is the total epochs folded and shipped across sources.
	Epochs uint64 `json:"epochs"`
	// IngestSecs is the wall time of the recording+upload phase.
	IngestSecs float64 `json:"ingest_secs"`
	// FramesPerSec is delta frames ingested per second.
	FramesPerSec float64 `json:"frames_per_sec"`
	// Queries is the total queries the clients completed.
	Queries int `json:"queries"`
	// QueryP50Ns and QueryP99Ns are query latency quantiles.
	QueryP50Ns int64 `json:"query_p50_ns"`
	QueryP99Ns int64 `json:"query_p99_ns"`
	// DroppedEpochs counts epochs a recorder folded that the aggregator
	// does not hold. The contract demands zero.
	DroppedEpochs uint64 `json:"dropped_epochs"`
	// Mismatched counts sources whose aggregator export differs from the
	// recorder's local fold. The contract demands zero.
	Mismatched int `json:"mismatched"`
}

// recorderResult is one recorder's ground truth.
type recorderResult struct {
	source string
	epoch  uint64
	cpg    []byte // the .cpg of the recorder's own final fold
	err    error
}

// driveRecorder runs one synthetic workload through an epoch driver
// whose one sink is an uploader.
func driveRecorder(baseURL, source string, opts Options, seed int64) recorderResult {
	res := recorderResult{source: source}
	g := core.NewGraph(opts.Threads)
	c := &provenance.Client{BaseURL: baseURL, MaxRetries: 8, RetryBase: time.Millisecond}
	up, err := provenance.NewUploader(c, opts.Threads, provenance.StreamOptions{
		Source: source,
		RunID:  source,
		App:    "loadtest",
		Batch:  opts.Batch,
	})
	if err != nil {
		res.err = err
		return res
	}
	drv := epoch.NewDriver(g, epoch.Options{Every: opts.Every}, up)
	hook := drv.CommitHook()
	recs := make([]*core.Recorder, opts.Threads)
	for i := range recs {
		if recs[i], err = core.NewRecorder(g, i, 0); err != nil {
			res.err = err
			return res
		}
	}
	locks := []*core.SyncObject{g.NewSyncObject("m0", false), g.NewSyncObject("m1", false)}
	r := rand.New(rand.NewSource(seed))
	seal := func(rec *core.Recorder, lock *core.SyncObject) error {
		ev := core.SyncEvent{Kind: core.SyncNone}
		if lock != nil {
			ev = core.SyncEvent{Kind: core.SyncRelease, Object: lock.Ref()}
		}
		sc, err := rec.EndSub(ev, 0)
		if err != nil {
			return err
		}
		if lock != nil {
			rec.Release(lock, sc)
			rec.Acquire(lock)
		}
		hook(sc.ID)
		return nil
	}
	for s := 0; s < opts.Steps; s++ {
		rec := recs[r.Intn(opts.Threads)]
		rec.OnRead(uint64(r.Intn(64)))
		rec.OnWrite(uint64(r.Intn(64)))
		if err := seal(rec, locks[r.Intn(len(locks))]); err != nil {
			res.err = err
			return res
		}
	}
	for _, rec := range recs {
		if err := seal(rec, nil); err != nil {
			res.err = err
			return res
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	drv.Close() // the uploader's errors come from Wait
	if err := up.Wait(ctx); err != nil {
		res.err = err
		return res
	}
	res.epoch = drv.Epoch()
	var buf bytes.Buffer
	if err := cpgfile.Encode(&buf, g.AnalyzeAs(res.epoch), cpgfile.Meta{}); err != nil {
		res.err = err
		return res
	}
	res.cpg = buf.Bytes()
	return res
}

// clientLoop hammers the aggregator with stats queries and epoch
// watches until stop closes, recording query latencies.
func clientLoop(baseURL string, sources []string, seed int64, stop <-chan struct{}) []int64 {
	c := &provenance.Client{BaseURL: baseURL, MaxRetries: 4, RetryBase: time.Millisecond}
	r := rand.New(rand.NewSource(seed))
	var lat []int64
	ctx := context.Background()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return lat
		default:
		}
		src := sources[r.Intn(len(sources))]
		if i%4 == 3 {
			// Watch: ride the push wire for the next epoch. Sources that
			// are not bound yet answer 404; that is part of the load.
			if st, err := c.WaitEpoch(ctx, src, 1+uint64(r.Intn(50)), 50*time.Millisecond); err == nil && st.Closed {
				continue
			}
			continue
		}
		start := time.Now()
		if _, err := c.Stats(ctx, src); err == nil {
			lat = append(lat, time.Since(start).Nanoseconds())
		}
	}
}

// quantile picks the q-quantile of sorted ns latencies (0 when empty).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// Run executes one soak and verifies the zero-loss, byte-identity
// contract. A contract violation is reported in the Report (and as an
// error), so benchmarks and tests share one pass criterion.
func Run(opts Options) (*Report, error) {
	opts = opts.normalize()
	hub := provenance.NewIngestHub(provenance.IngestOptions{})
	ts := httptest.NewServer(provenance.NewServer(nil, provenance.ServerOptions{Ingest: hub}))
	defer ts.Close()

	sources := make([]string, opts.Recorders)
	for i := range sources {
		sources[i] = fmt.Sprintf("rec-%d", i)
	}

	stop := make(chan struct{})
	var cwg sync.WaitGroup
	lats := make([][]int64, opts.Clients)
	for i := 0; i < opts.Clients; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			lats[i] = clientLoop(ts.URL, sources, opts.Seed+int64(1000+i), stop)
		}(i)
	}

	start := time.Now()
	results := make([]recorderResult, opts.Recorders)
	var rwg sync.WaitGroup
	for i := 0; i < opts.Recorders; i++ {
		rwg.Add(1)
		go func(i int) {
			defer rwg.Done()
			results[i] = driveRecorder(ts.URL, sources[i], opts, opts.Seed+int64(i))
		}(i)
	}
	rwg.Wait()
	ingestSecs := time.Since(start).Seconds()
	close(stop)
	cwg.Wait()

	rep := &Report{Recorders: opts.Recorders, Clients: opts.Clients, IngestSecs: ingestSecs}
	c := &provenance.Client{BaseURL: ts.URL}
	ctx := context.Background()
	for _, res := range results {
		if res.err != nil {
			return rep, fmt.Errorf("recorder %s: %w", res.source, res.err)
		}
		rep.Epochs += res.epoch
		st, found, err := c.IngestOffset(ctx, res.source)
		if err != nil {
			return rep, fmt.Errorf("offset %s: %w", res.source, err)
		}
		switch {
		case !found:
			rep.DroppedEpochs += res.epoch
		case st.NextEpoch < res.epoch+1:
			rep.DroppedEpochs += res.epoch + 1 - st.NextEpoch
		case !st.Sealed:
			return rep, fmt.Errorf("source %s not sealed (next=%d)", res.source, st.NextEpoch)
		}
		got, err := c.Export(ctx, res.source)
		if err != nil {
			return rep, fmt.Errorf("export %s: %w", res.source, err)
		}
		if !bytes.Equal(got, res.cpg) {
			rep.Mismatched++
		}
	}
	if ingestSecs > 0 {
		rep.FramesPerSec = float64(rep.Epochs) / ingestSecs
	}
	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep.Queries = len(all)
	rep.QueryP50Ns = quantile(all, 0.50)
	rep.QueryP99Ns = quantile(all, 0.99)
	if rep.DroppedEpochs > 0 || rep.Mismatched > 0 {
		return rep, fmt.Errorf("fabric contract violated: %d dropped epochs, %d mismatched exports",
			rep.DroppedEpochs, rep.Mismatched)
	}
	return rep, nil
}
