package epoch_test

// A sink that only persists or ships deltas must cost its run no
// derivation: the driver cuts, and folds only when somebody asks.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/repro/inspector"
	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/faultinject"
	"github.com/repro/inspector/internal/journal"
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
// analysis consumer is a Follower: the follower folds, the driver not.
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

	// A follower folds every epoch on its own analyzer; the driver's,
	// with no sink asking, still folds nothing.
	g := core.NewGraph(2)
	var driverFolds, followerFolds atomic.Int64
	f := epoch.NewFollower(g.Threads(), func(int) { followerFolds.Add(1) }, func(*core.Analysis, *core.EpochDelta) {})
	d := epoch.NewDriver(g, epoch.Options{WorkerHook: func(int) { driverFolds.Add(1) }}, f)
	recordPingPong(t, g, d.CommitHook(), 200)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if n := driverFolds.Load(); n != 0 {
		t.Fatalf("beside a follower the driver started %d fold workers over %d epochs, want none", n, d.Epoch())
	}
	if n := followerFolds.Load(); n < int64(d.Epoch()) {
		t.Fatalf("the follower started %d fold workers over %d epochs, want one fold per epoch", n, d.Epoch())
	}
}

// TestLazyDriverFoldsOnAsk drives a journal writer and a stream uploader
// by hand: cutting and closing derive nothing; the first
// Driver.Analysis folds once, over the whole recording, into the
// analysis Graph.Analyze builds, numbered by the last cut; asking again
// returns it without folding.
func TestLazyDriverFoldsOnAsk(t *testing.T) {
	g := core.NewGraph(2)
	jw, err := journal.Create(journal.Options{Dir: t.TempDir(), Threads: g.Threads(), RunID: "lazy"})
	if err != nil {
		t.Fatal(err)
	}
	up, err := provenance.NewUploader(&provenance.Client{BaseURL: aggregator(t)}, g.Threads(), provenance.StreamOptions{Source: "lazy", RunID: "lazy"})
	if err != nil {
		t.Fatal(err)
	}
	var folds atomic.Int64
	d := epoch.NewDriver(g, epoch.Options{WorkerHook: func(int) { folds.Add(1) }}, jw, up)
	recordPingPong(t, g, d.CommitHook(), 200)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := up.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := folds.Load(); n != 0 || d.Epoch() != 201 {
		t.Fatalf("%d fold workers over %d epochs before anyone asked, want none over 201", n, d.Epoch())
	}
	a := d.Analysis()
	if n := folds.Load(); n != 1 {
		t.Fatalf("the first Analysis started %d fold workers, want one fold", n)
	}
	if a.Epoch() != d.Epoch() {
		t.Fatalf("deferred fold is epoch %d, the last cut %d", a.Epoch(), d.Epoch())
	}
	var got, want bytes.Buffer
	if err := a.ExportJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := g.Analyze().ExportJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) || a.Stats() != g.Analyze().Stats() {
		t.Fatal("the deferred fold differs from Graph.Analyze")
	}
	if d.Analysis() != a || folds.Load() != 1 {
		t.Fatal("asking again folded again")
	}
}
