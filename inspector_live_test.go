package inspector_test

import (
	"context"
	"errors"
	"testing"
	"time"

	inspector "github.com/repro/inspector"
	"github.com/repro/inspector/internal/faultinject"
)

// TestLiveQueryDuringRun is the acceptance check for the live pipeline's
// library surface: a Query issued while Run is still executing answers
// from a completed epoch, carries the epoch id, and covers the
// sub-computations sealed so far; after Run returns the final epoch
// matches the batch analysis of the complete graph.
func TestLiveQueryDuringRun(t *testing.T) {
	t.Run("off-thread", func(t *testing.T) {
		liveQueryDuringRun(t, inspector.Options{AppName: "live-test", Live: true})
	})
	// With a snapshot ring the feed and the ring observe the same
	// follower, feed first.
	t.Run("beside-snapshots", func(t *testing.T) {
		liveQueryDuringRun(t, inspector.Options{AppName: "live-test", Live: true, SnapshotMode: true, SnapshotEverySyncs: 4})
	})
}

func liveQueryDuringRun(t *testing.T, opts inspector.Options) {
	rt, err := inspector.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	m := rt.NewMutex("state")
	firstPhase := make(chan struct{})
	release := make(chan struct{})
	runDone := make(chan error, 1)

	go func() {
		_, err := rt.Run(func(main *inspector.Thread) {
			addr := main.Malloc(64)
			for i := 0; i < 8; i++ {
				m.Lock(main)
				main.Store64(addr, uint64(i))
				m.Unlock(main)
			}
			close(firstPhase)
			<-release
			for i := 0; i < 8; i++ {
				m.Lock(main)
				_ = main.Load64(addr)
				m.Unlock(main)
			}
		})
		runDone <- err
	}()

	<-firstPhase
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// The first phase sealed 16 sub-computations (two boundaries per
	// lock/unlock pair); wait until an epoch has folded some of them.
	if _, err := rt.WaitEpoch(ctx, 2); err != nil {
		t.Fatalf("WaitEpoch: %v", err)
	}
	res, err := rt.Query(ctx, inspector.Query{Kind: inspector.QueryStats})
	if err != nil {
		t.Fatalf("live query: %v", err)
	}
	if res.Epoch == 0 {
		t.Fatal("live query result carries no epoch")
	}
	if res.Stats.SubComputations == 0 {
		t.Fatal("live query saw no sealed sub-computations mid-run")
	}
	midSubs := res.Stats.SubComputations
	midEpoch := res.Epoch
	if opts.SnapshotMode {
		// 16 seals at one snapshot per 4: the ring is full of epochs the
		// feed has already published.
		snaps := rt.Snapshots()
		if len(snaps) != 4 || snaps[3].Cut.Epoch > rt.Epoch() || snaps[3].Cut.Size() != 16 {
			t.Fatalf("mid-run ring = %d snapshots at live epoch %d, want 4 with the newest covering 16 subs", len(snaps), rt.Epoch())
		}
	}

	close(release)
	if err := <-runDone; err != nil {
		t.Fatalf("Run: %v", err)
	}

	// Post-run: the final epoch covers the complete graph.
	res, err = rt.Query(ctx, inspector.Query{Kind: inspector.QueryStats})
	if err != nil {
		t.Fatalf("post-run query: %v", err)
	}
	if res.Epoch <= midEpoch {
		t.Fatalf("epoch did not advance after run: %d -> %d", midEpoch, res.Epoch)
	}
	if res.Stats.SubComputations <= midSubs {
		t.Fatalf("final subs %d, mid-run subs %d — second phase missing",
			res.Stats.SubComputations, midSubs)
	}
	if want := rt.CPG().NumSubs(); res.Stats.SubComputations != want {
		t.Fatalf("final epoch sees %d subs, graph holds %d", res.Stats.SubComputations, want)
	}
	if err := rt.CPG().Analyze().Verify(); err != nil {
		t.Fatalf("final graph invalid: %v", err)
	}
	// One graph: the follower folded the recorder's own, and the run's
	// analysis is the feed's final fold.
	final := rt.Source().Engine().Analysis()
	if final.Graph() != rt.CPG() {
		t.Fatal("the live analysis folds a graph other than the recorder's")
	}
	if rt.Analysis() != final || final.Epoch() != rt.Epoch() {
		t.Fatalf("run analysis at epoch %d is not the feed's final fold (epoch %d)", rt.Analysis().Epoch(), rt.Epoch())
	}
}

// TestLiveOptionValidation pins the Options contract around Live.
func TestLiveOptionValidation(t *testing.T) {
	if _, err := inspector.New(inspector.Options{Live: true, Native: true}); !errors.Is(err, inspector.ErrBadOptions) {
		t.Fatalf("Live+Native accepted: %v", err)
	}
	rt, err := inspector.New(inspector.Options{AppName: "not-live"})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Epoch(); got != 0 {
		t.Fatalf("Epoch without Live = %d", got)
	}
	if _, err := rt.WaitEpoch(context.Background(), 1); !errors.Is(err, inspector.ErrNotLive) {
		t.Fatalf("WaitEpoch without Live = %v, want ErrNotLive", err)
	}
}

// TestFaultsCountEpochsAndSeals: under Options.Faults the follower
// keeps its batched fold cadence, yet slow-fold fires once per epoch
// folded (the seals outpace the slowed folds, so they batch) and
// slow-seal counts commits, so a schedule's hits do not depend on how
// the folds were batched.
func TestFaultsCountEpochsAndSeals(t *testing.T) {
	faults := faultinject.New(faultinject.Schedule{Rules: []faultinject.Rule{
		{Point: faultinject.SlowFold}, {Point: faultinject.SlowSeal, Every: 8},
	}})
	rt, err := inspector.New(inspector.Options{AppName: "faults", Live: true, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	m := rt.NewMutex("m")
	if _, err := rt.Run(func(main *inspector.Thread) {
		for i := 0; i < 40; i++ {
			m.Lock(main)
			m.Unlock(main)
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Every seal cuts an epoch and Close cuts the final one.
	epochs := rt.Epoch()
	if got := faults.Fired(faultinject.SlowFold); got != epochs || epochs < 80 {
		t.Fatalf("slow-fold fired %d times over %d epochs, want once per epoch", got, epochs)
	}
	if got, seals := faults.Fired(faultinject.SlowSeal), epochs-1; got != (seals+7)/8 {
		t.Fatalf("slow-seal fired %d times over %d seals, want every 8th", got, seals)
	}
}
