package harness

// The fold-worker chaos round: slow-fold faults fire inside the
// parallel fold's derivation workers, and on odd seeds some of those
// hits escalate to worker panics. The invariants are liveness and
// degradation, not output bytes — a stalled or crashed worker must
// never deadlock the LiveEngine (the workload finishes, WaitEpoch
// callers wake, Close returns), the last good epoch stays servable
// throughout, and a run with zero injected panics must still converge
// on the complete graph.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/faultinject"
	"github.com/repro/inspector/provenance"
)

// foldChaosResult captures one schedule's observable outcome.
type foldChaosResult struct {
	runErr   error
	closeErr error
	panics   int64
	fired    uint64
	epoch    uint64
	export   []byte
	batch    []byte
}

// foldChaosRun records one workload under a live engine whose fold
// workers are slowed and (panicky=true) occasionally crashed. The whole
// run executes under a watchdog: a deadlocked fold shows up as a test
// timeout here, not a hung suite.
func foldChaosRun(t *testing.T, seed int, panicky bool) foldChaosResult {
	t.Helper()
	// The hook panics on its own schedule — more than Options.Faults'
	// slow-fold delay — so the live engine is wired by hand.
	rt, run := bareRuntime(t, "histogram", 2)

	in := faultinject.New(faultinject.Schedule{Rules: []faultinject.Rule{
		// After stays at 0/1: folds coalesce, so a fast run may only hit
		// the point a handful of times and a deep After would starve it.
		{Point: faultinject.SlowFold, After: uint64(seed % 2), Every: uint64(1 + seed%4)},
	}})
	var res foldChaosResult
	var panics atomic.Int64
	hook := func(worker int) {
		if !in.Fire(faultinject.SlowFold) {
			return
		}
		if panicky && panics.Load() < 3 && (int64(worker)+panics.Load())%2 == 0 {
			panics.Add(1)
			panic(fmt.Sprintf("chaos: injected fold-worker %d panic", worker))
		}
		time.Sleep(50 * time.Microsecond)
	}
	eng := provenance.NewLiveEngine(rt.Graph(), provenance.EngineOptions{}, hook)
	rt.RegisterCommitHook(func(core.SubID) { eng.Notify() })

	// A waiter asking for an unreachable epoch proves the close path
	// wakes blocked subscribers even when folds are crashing.
	waiterDone := make(chan error, 1)
	go func() {
		_, err := eng.WaitEpoch(context.Background(), 1<<60)
		waiterDone <- err
	}()

	done := make(chan struct{})
	go func() {
		defer close(done)
		res.runErr = run()
		res.closeErr = eng.Close()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("seed %d panicky=%v: workload+close did not finish: fold pipeline deadlocked", seed, panicky)
	}
	select {
	case err := <-waiterDone:
		if !errors.Is(err, provenance.ErrLiveClosed) {
			t.Fatalf("seed %d panicky=%v: blocked WaitEpoch returned %v, want ErrLiveClosed", seed, panicky, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("seed %d panicky=%v: WaitEpoch caller still blocked after Close", seed, panicky)
	}

	res.panics = panics.Load()
	res.fired = in.Fired(faultinject.SlowFold)
	e := eng.Engine()
	if e == nil {
		t.Fatalf("seed %d panicky=%v: live engine lost its servable epoch", seed, panicky)
	}
	res.epoch = e.Epoch()
	var buf bytes.Buffer
	if err := e.Analysis().ExportJSON(&buf); err != nil {
		t.Fatalf("seed %d panicky=%v: served epoch failed to export: %v", seed, panicky, err)
	}
	res.export = buf.Bytes()
	buf.Reset()
	if err := rt.Graph().Analyze().ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	res.batch = buf.Bytes()
	return res
}

// TestChaosFoldWorkerSlowAndPanic sweeps seeded schedules twice — slow
// workers only, then slow workers with injected panics. Invariants per
// schedule:
//
//  1. the workload always finishes and the engine always closes — a
//     slow or dead fold worker never wedges recording or shutdown;
//  2. with no panics, Close reports success and the final epoch is the
//     complete graph (export identical to batch Analyze);
//  3. with panics, Close surfaces the first fold failure while the
//     engine still serves the last good epoch, whose export is a valid
//     analysis the batch oracle verifies against only when the final
//     fold happened to succeed.
func TestChaosFoldWorkerSlowAndPanic(t *testing.T) {
	n := chaosSchedules()
	if n > 25 {
		n = n / 4 // each round records a full workload; keep the CI sweep bounded
	}
	for seed := 0; seed < n; seed++ {
		res := foldChaosRun(t, seed, false)
		if res.runErr != nil {
			t.Fatalf("seed %d: slow fold workers broke the workload: %v", seed, res.runErr)
		}
		if res.closeErr != nil {
			t.Fatalf("seed %d: slow fold workers surfaced a fold error: %v", seed, res.closeErr)
		}
		if res.fired == 0 {
			t.Fatalf("seed %d: slow-fold schedule never fired; nothing exercised", seed)
		}
		if !bytes.Equal(res.export, res.batch) {
			t.Errorf("seed %d: final epoch (after clean close) differs from batch analysis", seed)
		}

		res = foldChaosRun(t, seed, true)
		if res.runErr != nil {
			t.Fatalf("seed %d: panicking fold worker broke the workload: %v", seed, res.runErr)
		}
		if res.panics > 0 && res.closeErr == nil {
			t.Errorf("seed %d: %d injected fold panics but Close reported success", seed, res.panics)
		}
		if res.epoch < 1 {
			t.Errorf("seed %d: no servable epoch after fold panics", seed)
		}
		if res.closeErr == nil && !bytes.Equal(res.export, res.batch) {
			t.Errorf("seed %d: clean close but served epoch differs from batch analysis", seed)
		}
	}
}
