package threading

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/faultinject"
)

// TestLosslessRunHasNoGaps pins the default: without injected faults or
// ring overruns, the recorded graph carries no gap intervals and is not
// degraded — the invariant the byte-identical drift corpora rest on.
func TestLosslessRunHasNoGaps(t *testing.T) {
	rt := newRT(t, ModeInspector)
	m := rt.NewMutex("m")
	if _, err := rt.Run(func(main *Thread) {
		for i := 0; i < 5; i++ {
			m.Lock(main)
			main.Store64(rt.GlobalsBase(), uint64(i))
			m.Unlock(main)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if rt.Graph().Degraded() {
		t.Fatalf("lossless run marked degraded: %+v", rt.Graph().Gaps())
	}
	if gaps := rt.Graph().Gaps(); gaps != nil {
		t.Errorf("lossless run recorded gaps: %+v", gaps)
	}
}

// TestInjectedAuxLossMarksGaps runs a workload under an aux-loss
// schedule and checks the tentpole path end to end: the lossy sink's
// partial accepts surface as per-thread gap intervals in the graph, with
// the loss attributed to sealed sub-computations, and the analysis
// summarizes them as incompleteness.
func TestInjectedAuxLossMarksGaps(t *testing.T) {
	in := faultinject.New(faultinject.Schedule{Rules: []faultinject.Rule{
		{Point: faultinject.AuxLoss, After: 2, Every: 3},
	}})
	rt, err := NewRuntime(Options{
		AppName:       "test",
		Mode:          ModeInspector,
		MaxThreads:    8,
		WrapTraceSink: in.WrapSink,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := rt.NewMutex("m")
	if _, err := rt.Run(func(main *Thread) {
		for i := 0; i < 20; i++ {
			m.Lock(main)
			main.Store64(rt.GlobalsBase(), uint64(i))
			// Branches are what PT actually traces; without them the
			// encoder emits nothing and the lossy sink never fires.
			for j := 0; j < 10; j++ {
				main.Branch("main.loop", j%2 == 0)
			}
			m.Unlock(main)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if in.Fired(faultinject.AuxLoss) == 0 {
		t.Fatal("schedule never fired; the test exercises nothing")
	}
	g := rt.Graph()
	if !g.Degraded() {
		t.Fatal("injected loss did not mark the graph degraded")
	}
	comp := g.Completeness()
	if comp.Complete || comp.GapIntervals == 0 || comp.LostBytes == 0 {
		t.Fatalf("completeness = %+v", comp)
	}
	maxAlpha := uint64(0)
	for _, sc := range g.Subs() {
		if sc.ID.Thread == 0 && sc.ID.Alpha > maxAlpha {
			maxAlpha = sc.ID.Alpha
		}
	}
	for _, tg := range g.Gaps() {
		for _, gp := range tg.Gaps {
			if gp.Kind != core.GapAuxLoss && gp.Kind != core.GapTruncated {
				t.Errorf("unexpected gap kind %v", gp.Kind)
			}
			if gp.ToAlpha > maxAlpha {
				t.Errorf("gap %v beyond the last sealed sub α%d", gp, maxAlpha)
			}
			if gp.Bytes == 0 {
				t.Errorf("gap %v carries no byte count", gp)
			}
		}
	}
	// The analysis carries the same summary, and the degraded flag rides
	// into every Analysis built over this graph.
	a := g.Analyze()
	if !a.Degraded() || a.Completeness().GapIntervals != comp.GapIntervals {
		t.Errorf("analysis completeness %+v disagrees with graph %+v", a.Completeness(), comp)
	}
	// The .cpg round-trip preserves the gaps: a degraded CPG stays marked
	// degraded after export and reload, in the header and in the graph.
	path := filepath.Join(t.TempDir(), "degraded.cpg")
	if err := cpgfile.Write(path, a, cpgfile.Meta{}); err != nil {
		t.Fatal(err)
	}
	back, hdr, err := cpgfile.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	bc := back.Completeness()
	if !hdr.Degraded || !back.Degraded() || bc.GapThreads != comp.GapThreads ||
		bc.GapIntervals != comp.GapIntervals || bc.LostBytes != comp.LostBytes {
		t.Errorf(".cpg round-trip lost gaps: %+v vs %+v", bc, comp)
	}
}

// TestWorkloadPanicRecovered is the satellite regression: a panicking
// workload no longer crashes the process — Run returns ErrWorkloadPanic,
// the runtime still produces a report, and the panic is marked as a gap
// on the panicking thread.
func TestWorkloadPanicRecovered(t *testing.T) {
	rt := newRT(t, ModeInspector)
	_, err := rt.Run(func(main *Thread) {
		main.Store64(rt.GlobalsBase(), 1)
		panic("deliberate workload bug")
	})
	if !errors.Is(err, ErrWorkloadPanic) {
		t.Fatalf("Run() = %v, want ErrWorkloadPanic", err)
	}
	if !strings.Contains(err.Error(), "deliberate workload bug") {
		t.Errorf("panic value lost from the error: %v", err)
	}
	if rt.LastReport() == nil {
		t.Fatal("no report after a recovered panic")
	}
	found := false
	for _, tg := range rt.Graph().Gaps() {
		for _, gp := range tg.Gaps {
			if gp.Kind == core.GapPanic {
				found = true
			}
		}
	}
	if !found {
		t.Error("panic left no GapPanic mark in the graph")
	}
}

// TestCommitHookPanicAtTeardownIsWorkloadPanic pins the classification
// the chaos suite first caught missing: a commit hook that panics on
// the thread's final seal — which happens inside teardown, after a
// healthy body — must still surface as ErrWorkloadPanic with a
// GapPanic mark, not as an unclassified teardown error.
func TestCommitHookPanicAtTeardownIsWorkloadPanic(t *testing.T) {
	for name, body := range map[string]func(*Thread){
		// No sync boundaries in the body: the only seal (and so the only
		// hook invocation) is the teardown one.
		"teardown": func(main *Thread) { main.Store64(main.rt.GlobalsBase(), 1) },
		// The hook also panics on the parent's release inside Spawn,
		// after slot 1 was reserved and before its thread exists: the
		// report is built over a slot that never got a thread.
		"spawn": func(main *Thread) { main.Spawn(func(*Thread) {}) },
	} {
		rt := newRT(t, ModeInspector)
		rt.RegisterCommitHook(func(core.SubID) { panic("hook bug") })
		rep, err := rt.Run(body)
		if !errors.Is(err, ErrWorkloadPanic) {
			t.Fatalf("%s: Run() = %v, want ErrWorkloadPanic", name, err)
		}
		if !strings.Contains(err.Error(), "hook bug") {
			t.Errorf("%s: panic value lost from the error: %v", name, err)
		}
		if !rt.Graph().Degraded() {
			t.Errorf("%s: hook panic left the graph unmarked", name)
		}
		if rep == nil {
			t.Errorf("%s: no partial report beside the error", name)
		}
	}
}

// TestChildPanicReleasesJoin checks the cross-thread half: a child
// thread's panic must still close its join object (the parent cannot
// hang) and surface in Run's error.
func TestChildPanicReleasesJoin(t *testing.T) {
	rt := newRT(t, ModeInspector)
	_, err := rt.Run(func(main *Thread) {
		child := main.Spawn(func(w *Thread) {
			panic("child bug")
		})
		main.Join(child)
		main.Store64(rt.GlobalsBase(), 7)
	})
	if !errors.Is(err, ErrWorkloadPanic) {
		t.Fatalf("Run() = %v, want ErrWorkloadPanic from the child", err)
	}
	if !strings.Contains(err.Error(), "child bug") {
		t.Errorf("child panic value lost: %v", err)
	}
}
