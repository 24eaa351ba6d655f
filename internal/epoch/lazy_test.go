package epoch_test

// A sink that only persists or ships deltas must cost its run no
// derivation: the driver only cuts, and only a follower folds.

import (
	"context"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/repro/inspector"
	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/faultinject"
	"github.com/repro/inspector/internal/workloads"
	"github.com/repro/inspector/provenance"
)

// aggregator starts an in-process ingest daemon.
func aggregator(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(provenance.NewServer(nil, provenance.ServerOptions{Ingest: provenance.NewIngestHub(provenance.IngestOptions{})}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestLazySinksDeriveNothing records a workload through
// inspector.New{Journal, Stream} — no Live, no snapshot ring — with the
// slow-fold fault armed on every fold worker: the run cuts an epoch per
// seal, and not one derivation may start. Then a driver whose only
// analysis consumer is a Follower wanting every epoch: the follower
// folds once per epoch.
func TestLazySinksDeriveNothing(t *testing.T) {
	w, err := workloads.Get("canneal")
	if err != nil {
		t.Fatal(err)
	}
	cfg := workloads.Config{Threads: 2, Size: workloads.Small, Seed: 1}
	faults := faultinject.New(faultinject.Schedule{Rules: []faultinject.Rule{{Point: faultinject.SlowFold, Every: 1}}})
	rt, err := inspector.New(inspector.Options{
		AppName: "canneal", MaxThreads: w.MaxThreads(cfg), RunID: "lazy",
		Journal: t.TempDir(), Stream: aggregator(t), Faults: faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(rt.Unwrap(), cfg); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.WaitStream(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rt.Epoch() < 10 {
		t.Fatalf("the run cut %d epochs; nothing exercised", rt.Epoch())
	}
	if n := faults.Fired(faultinject.SlowFold); n != 0 {
		t.Fatalf("a journal- and stream-only run started %d fold workers over %d epochs, want none", n, rt.Epoch())
	}

	// A follower whose observer wants every epoch folds each one on its
	// own analyzer.
	g := core.NewGraph(2)
	var followerFolds atomic.Int64
	f := epoch.NewFollower(g, func(int) { followerFolds.Add(1) }, epoch.ObserverFunc(func(*core.Analysis, uint64) {}))
	d := epoch.NewDriver(g, epoch.Options{}, f)
	recordPingPong(t, g, d.CommitHook(), 200)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if n := followerFolds.Load(); n < int64(d.Epoch()) {
		t.Fatalf("the follower started %d fold workers over %d epochs, want one fold per epoch", n, d.Epoch())
	}
}
