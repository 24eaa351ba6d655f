package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"strconv"
	"testing"

	"github.com/repro/inspector"
	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/faultinject"
	"github.com/repro/inspector/internal/threading"
)

// chaosResult captures everything the chaos invariants assert over.
type chaosResult struct {
	runErr     error
	jsonExport []byte
	summary    string
	dropped    uint64
	comp       core.Completeness
}

// chaosRun executes one workload under a fault schedule, through the
// product assembly, and returns the observable outcome. Panics are
// injected at commit boundaries; AUX loss through the lossy sink
// wrapper. It never lets a fault crash the test process — that escape
// is itself the failure the suite exists to catch.
func chaosRun(t *testing.T, app string, threads int, sched faultinject.Schedule) chaosResult {
	t.Helper()
	w, cfg := smallWorkload(t, app, threads)
	in := faultinject.New(sched)
	rec, err := inspector.New(inspector.Options{AppName: app, MaxThreads: w.MaxThreads(cfg), Faults: in})
	if err != nil {
		t.Fatal(err)
	}
	rt := rec.Unwrap()
	res := chaosResult{runErr: w.Run(rt, cfg)}
	var buf bytes.Buffer
	if err := rt.Graph().EncodeJSON(&buf); err != nil {
		t.Fatalf("degraded graph failed to export: %v", err)
	}
	res.jsonExport = buf.Bytes()
	res.summary = in.Summary()
	res.dropped = in.DroppedBytes()
	res.comp = rt.Graph().Completeness()
	return res
}

// chaosSchedules reads the sweep width from CHAOS_SCHEDULES (the chaos
// CI job sets 100); the default keeps plain `go test ./...` quick.
func chaosSchedules() int {
	if s := os.Getenv("CHAOS_SCHEDULES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 25
}

// TestChaosRandomizedSchedules sweeps seeded random fault schedules over
// a single-thread workload (single-thread keeps a panicking thread from
// stranding peers on a workload lock, and makes the whole run — and
// therefore its export — deterministic). Invariants per schedule:
//
//  1. no fault escapes as a process crash — a panic surfaces only as
//     ErrWorkloadPanic from Run;
//  2. the graph's completeness accounting matches the injected loss
//     byte-for-byte;
//  3. the same schedule reproduces the same faults, the same summary,
//     and a byte-identical CPG export.
func TestChaosRandomizedSchedules(t *testing.T) {
	n := chaosSchedules()
	for seed := 0; seed < n; seed++ {
		sched := faultinject.Randomized(int64(seed), faultinject.AuxLoss, faultinject.WorkloadPanic)
		res := chaosRun(t, "histogram", 1, sched)
		if res.runErr != nil && !errors.Is(res.runErr, threading.ErrWorkloadPanic) {
			t.Fatalf("seed %d: fault escaped as %v", seed, res.runErr)
		}
		if res.dropped > 0 && res.comp.Complete {
			t.Errorf("seed %d: %d bytes dropped but graph claims complete", seed, res.dropped)
		}
		if res.comp.LostBytes != res.dropped {
			t.Errorf("seed %d: graph accounts %d lost bytes, injector dropped %d",
				seed, res.comp.LostBytes, res.dropped)
		}
		if res.runErr != nil && res.comp.Complete {
			t.Errorf("seed %d: recovered panic left no incompleteness mark", seed)
		}

		again := chaosRun(t, "histogram", 1, sched)
		if again.summary != res.summary {
			t.Errorf("seed %d: fault sequence not reproducible: %q vs %q", seed, again.summary, res.summary)
		}
		if !bytes.Equal(again.jsonExport, res.jsonExport) {
			t.Errorf("seed %d: same schedule produced different CPG exports", seed)
		}
	}
}

// TestChaosLosslessIsByteIdenticalToSeed pins the compatibility half of
// the tentpole: running under an injector whose schedule never fires
// must yield the exact bytes a run without any injector yields — the
// degraded-trace machinery is invisible until loss actually happens.
func TestChaosLosslessIsByteIdenticalToSeed(t *testing.T) {
	empty := chaosRun(t, "histogram", 1, faultinject.Schedule{})
	if empty.runErr != nil {
		t.Fatal(empty.runErr)
	}
	if !empty.comp.Complete || empty.summary != "" {
		t.Fatalf("empty schedule still faulted: %+v %q", empty.comp, empty.summary)
	}

	sum := sha256.Sum256(empty.jsonExport)
	if hex.EncodeToString(sum[:]) != corpus.get(t, "histogram", 1).jsonSHA {
		t.Error("wrapped-but-lossless run differs from the corpus's recording")
	}
}

// TestChaosMultiThreadAuxLoss exercises loss under real concurrency
// (4 threads, guaranteed firing): the run must finish without error and
// the degraded marking must be consistent with the drop accounting.
// Panic injection is deliberately absent — a panicking thread may hold a
// workload mutex, which is a workload deadlock, not a pipeline bug.
func TestChaosMultiThreadAuxLoss(t *testing.T) {
	sched := faultinject.Schedule{Rules: []faultinject.Rule{
		{Point: faultinject.AuxLoss, After: 10, Every: 4},
	}}
	res := chaosRun(t, "histogram", 4, sched)
	if res.runErr != nil {
		t.Fatalf("aux loss broke the run: %v", res.runErr)
	}
	if res.dropped == 0 {
		t.Fatal("schedule never fired; nothing exercised")
	}
	if res.comp.Complete || res.comp.LostBytes != res.dropped {
		t.Errorf("completeness %+v inconsistent with %d dropped bytes", res.comp, res.dropped)
	}
}
