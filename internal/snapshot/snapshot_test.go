package snapshot

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/perf"
	"github.com/repro/inspector/internal/threading"
)

// pipeline lists a fresh ring as the only sink of a driver over g, the
// way inspector.New assembles a snapshot-only run.
func pipeline(g *core.Graph, sess *perf.Session, every uint64, opts Options) (*Ring, *epoch.Driver) {
	r := New(sess, opts)
	return r, epoch.NewDriver(g, epoch.Options{Every: every}, r)
}

// seal ends one sub-computation on rec and runs the driver's commit
// hook for it, as threading's sync boundary does.
func seal(t *testing.T, rec *core.Recorder, hook func(core.SubID)) {
	t.Helper()
	sc, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0)
	if err != nil {
		t.Fatal(err)
	}
	hook(sc.ID)
}

// buildGraph makes a graph with a lock handoff T0 -> T1.
func buildGraph(t *testing.T) *core.Graph {
	t.Helper()
	g := core.NewGraph(2)
	lock := g.NewSyncObject("lock", false)
	r0, err := core.NewRecorder(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := core.NewRecorder(g, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := r0.EndSub(core.SyncEvent{Kind: core.SyncRelease, Object: g.InternObject("lock")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r0.Release(lock, s0)
	if _, err := r1.EndSub(core.SyncEvent{Kind: core.SyncAcquire, Object: g.InternObject("lock")}, 0); err != nil {
		t.Fatal(err)
	}
	r1.Acquire(lock)
	if _, err := r1.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r0.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestComputeCutConsistent: the fold's frontier over a lock handoff is a
// Chandy-Lamport cut, and with recording quiesced it is the whole graph.
func TestComputeCutConsistent(t *testing.T) {
	g := buildGraph(t)
	r, drv := pipeline(g, perf.NewSession(perf.SessionOptions{}), 1, Options{})
	snap := r.Take(drv.Fold)
	if err := snap.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
	if snap.Cut.Size() != g.NumSubs() {
		t.Errorf("cut size %d, want %d", snap.Cut.Size(), g.NumSubs())
	}
	if snap.Cut.Epoch != 1 || snap.Analysis.Epoch() != 1 || len(snap.Analysis.Subs()) != g.NumSubs() {
		t.Errorf("snapshot is epoch %d with analysis epoch %d over %d subs, want epoch 1 over %d",
			snap.Cut.Epoch, snap.Analysis.Epoch(), len(snap.Analysis.Subs()), g.NumSubs())
	}
	if err := snap.Analysis.Verify(); err != nil {
		t.Error(err)
	}
}

// TestSnapshotterRing: forced takes fill the ring, overwrite the oldest
// slot once it is full, and read back oldest first by epoch.
func TestSnapshotterRing(t *testing.T) {
	g := core.NewGraph(1)
	rec, err := core.NewRecorder(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, drv := pipeline(g, perf.NewSession(perf.SessionOptions{Mode: perf.ModeSnapshot}), 1, Options{Slots: 2})
	if got := r.Snapshots(); len(got) != 0 {
		t.Fatalf("fresh ring holds %d snapshots", len(got))
	}
	for i := 0; i < 5; i++ {
		seal(t, rec, func(core.SubID) {}) // sealed but not folded: the take folds it
		if snap := r.Take(drv.Fold); snap.Cut.Epoch != uint64(i+1) || snap.Cut.Size() != i+1 {
			t.Fatalf("take %d: epoch %d over %d subs", i, snap.Cut.Epoch, snap.Cut.Size())
		}
	}
	snaps := r.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("ring holds %d, want 2", len(snaps))
	}
	// Oldest-first: epochs 4, 5 after five captures into two slots.
	if snaps[0].Cut.Epoch != 4 || snaps[1].Cut.Epoch != 5 {
		t.Errorf("ring epochs = %d, %d; want 4, 5", snaps[0].Cut.Epoch, snaps[1].Cut.Epoch)
	}
}

func TestSnapshotCapturesPTWindows(t *testing.T) {
	g := buildGraph(t)
	sess := perf.NewSession(perf.SessionOptions{Mode: perf.ModeSnapshot, AuxSize: 64})
	st := sess.Attach(1)
	for i := 0; i < 30; i++ {
		st.WriteTrace([]byte{byte(i), byte(i + 1)})
	}
	r, drv := pipeline(g, sess, 1, Options{})
	snap := r.Take(drv.Fold)
	if len(snap.PTWindows[1]) == 0 {
		t.Error("no PT window captured")
	}
	if len(snap.PTWindows[1]) > 64 {
		t.Errorf("window exceeds ring size: %d", len(snap.PTWindows[1]))
	}
}

// TestSnapshotSlotBudgetTruncates: the slot budget is spent in ascending
// PID order, the same stream survives every take, and TruncatedPT is
// every byte of every window that was not retained.
func TestSnapshotSlotBudgetTruncates(t *testing.T) {
	g := buildGraph(t)
	for _, pids := range [][]int32{{1}, {4, 2, 3, 1}} {
		for take := 0; take < 20; take++ {
			sess := perf.NewSession(perf.SessionOptions{Mode: perf.ModeSnapshot, AuxSize: 1024})
			for _, pid := range pids {
				sess.Attach(pid).WriteTrace(make([]byte, 1024))
			}
			r, drv := pipeline(g, sess, 1, Options{SlotSize: 100})
			snap := r.Take(drv.Fold)
			if want := uint64(len(pids)*1024 - 100); snap.TruncatedPT != want {
				t.Fatalf("%d streams, take %d: TruncatedPT = %d, want %d", len(pids), take, snap.TruncatedPT, want)
			}
			if len(snap.PTWindows) != 1 || len(snap.PTWindows[1]) != 100 {
				t.Fatalf("%d streams, take %d: windows = %v, want 100 bytes of pid 1 only", len(pids), take, snap.PTWindows)
			}
		}
	}
}

// TestHookPeriodicCapture: the cadence counts sealed sub-computations on
// the epoch's cut, whatever the driver's own fold cadence.
func TestHookPeriodicCapture(t *testing.T) {
	for _, foldEvery := range []uint64{1, 2} { // a journaled run's cadence; a snapshot-only run's
		g := core.NewGraph(1)
		rec, err := core.NewRecorder(g, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		r, drv := pipeline(g, perf.NewSession(perf.SessionOptions{}), foldEvery, Options{Slots: 8, EverySeals: 2})
		hook := drv.CommitHook()
		for i := 0; i < 6; i++ {
			seal(t, rec, hook)
		}
		if n := len(r.Snapshots()); n != 3 {
			t.Errorf("fold every %d: ring retained %d snapshots, want 3 (every 2 of 6 seals)", foldEvery, n)
		}
		for i, snap := range r.Snapshots() {
			if want := 2 * (i + 1); snap.Cut.Size() != want {
				t.Errorf("fold every %d: snapshot %d covers %d subs, want %d", foldEvery, i, snap.Cut.Size(), want)
			}
		}
		// A forced take does not shift the cadence: the next automatic
		// capture still falls on the next multiple.
		seal(t, rec, hook)
		r.Take(drv.Fold)
		seal(t, rec, hook)
		if snaps := r.Snapshots(); len(snaps) != 5 || snaps[3].Cut.Size() != 7 || snaps[4].Cut.Size() != 8 {
			t.Errorf("fold every %d: after a forced take at 7 and a seal the ring holds %d snapshots, want 5 ending in cuts of 7 and 8",
				foldEvery, len(snaps))
		}
	}
	// Disabled automatic capture:
	g := core.NewGraph(1)
	rec, err := core.NewRecorder(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, drv := pipeline(g, perf.NewSession(perf.SessionOptions{}), 1, Options{})
	seal(t, rec, drv.CommitHook())
	if len(r.Snapshots()) != 0 {
		t.Error("ring captured despite EverySeals=0")
	}
}

// TestEndToEndWithRuntime drives the ring as inspector.New does, under
// the real threading runtime: forced takes before the first seal and
// after Close, periodic ones in between, every cut consistent.
func TestEndToEndWithRuntime(t *testing.T) {
	rt, err := threading.NewRuntime(threading.Options{
		AppName:    "snaptest",
		Mode:       threading.ModeInspector,
		MaxThreads: 4,
		TraceMode:  perf.ModeSnapshot,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, drv := pipeline(rt.Graph(), rt.Session(), 2, Options{Slots: 3, EverySeals: 2})
	rt.RegisterCommitHook(drv.CommitHook())
	if snap := r.Take(drv.Fold); snap == nil || snap.Cut.Size() != 0 || snap.Cut.Epoch != 1 {
		t.Fatalf("take before the first seal = %+v, want the empty epoch 1", snap)
	}

	base := rt.GlobalsBase()
	m := rt.NewMutex("m")
	if _, err := rt.Run(func(main *threading.Thread) {
		child := main.Spawn(func(w *threading.Thread) {
			for i := 0; i < 10; i++ {
				m.Lock(w)
				w.Store64(base, uint64(i))
				m.Unlock(w)
			}
		})
		for i := 0; i < 10; i++ {
			m.Lock(main)
			_ = main.Load64(base)
			m.Unlock(main)
		}
		main.Join(child)
	}); err != nil {
		t.Fatal(err)
	}
	if len(r.Snapshots()) != 3 {
		t.Fatalf("ring holds %d snapshots after the run, want all 3 slots in use", len(r.Snapshots()))
	}
	if err := drv.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close a take keeps the final epoch, once.
	final := r.Take(drv.Fold)
	if final == nil || final.Cut.Epoch != drv.Epoch() || final.Cut.Size() != rt.Graph().NumSubs() {
		t.Fatalf("take after Close = %+v, want final epoch %d over %d subs", final, drv.Epoch(), rt.Graph().NumSubs())
	}
	if oldest := r.Snapshots()[0]; r.Take(drv.Fold) != final || r.Snapshots()[0] != oldest {
		t.Error("a second take after Close retained the final epoch again")
	}
	// Every retained snapshot's cut must be consistent against the final
	// graph, its analysis a valid CPG over exactly the cut, and the ring
	// ordered oldest first.
	snaps := r.Snapshots()
	if len(snaps) != 3 || snaps[2] != final {
		t.Fatalf("ring holds %d snapshots, want 3 ending in the final epoch", len(snaps))
	}
	for i, snap := range snaps {
		if err := snap.Cut.Validate(rt.Graph()); err != nil {
			t.Errorf("snapshot %d: %v", i, err)
		}
		if err := snap.Analysis.Verify(); err != nil {
			t.Errorf("snapshot %d: %v", i, err)
		}
		if len(snap.Analysis.Subs()) != snap.Cut.Size() {
			t.Errorf("snapshot %d: analysis over %d subs, cut over %d", i, len(snap.Analysis.Subs()), snap.Cut.Size())
		}
		if i > 0 && snaps[i-1].Cut.Epoch >= snap.Cut.Epoch {
			t.Errorf("ring not oldest first: epoch %d before %d", snaps[i-1].Cut.Epoch, snap.Cut.Epoch)
		}
	}
}

func TestQuickCutAlwaysConsistent(t *testing.T) {
	// Random executions, folds forced at random prefixes of the
	// recording: the frontier must always be a valid cut, then and
	// against the final graph.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := core.NewGraph(3)
		recs := make([]*core.Recorder, 3)
		for i := range recs {
			rec, err := core.NewRecorder(g, i, 0)
			if err != nil {
				return false
			}
			recs[i] = rec
		}
		lock := g.NewSyncObject("l", false)
		ring, drv := pipeline(g, perf.NewSession(perf.SessionOptions{}), 1, Options{Slots: 64})
		held := -1
		for step := 0; step < 60; step++ {
			th := r.Intn(3)
			rec := recs[th]
			switch {
			case held == th:
				sc, err := rec.EndSub(core.SyncEvent{Kind: core.SyncRelease, Object: g.InternObject("l")}, 0)
				if err != nil {
					return false
				}
				rec.Release(lock, sc)
				held = -1
			case held == -1 && r.Intn(2) == 0:
				if _, err := rec.EndSub(core.SyncEvent{Kind: core.SyncAcquire, Object: g.InternObject("l")}, 0); err != nil {
					return false
				}
				rec.Acquire(lock)
				held = th
			default:
				rec.OnWrite(uint64(r.Intn(8)))
			}
			// Take a cut at random points mid-execution.
			if r.Intn(10) == 0 && ring.Take(drv.Fold).Cut.Validate(g) != nil {
				return false
			}
		}
		final := ring.Take(drv.Fold)
		if final.Cut.Size() != g.NumSubs() {
			return false
		}
		for _, snap := range ring.Snapshots() {
			if snap.Cut.Validate(g) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
