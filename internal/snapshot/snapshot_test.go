package snapshot

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/perf"
	"github.com/repro/inspector/internal/threading"
)

// fakeSource drives the snapshotter without a full runtime.
type fakeSource struct {
	g    *core.Graph
	sess *perf.Session
	seq  uint64
}

func (f *fakeSource) Graph() *core.Graph     { return f.g }
func (f *fakeSource) Session() *perf.Session { return f.sess }
func (f *fakeSource) SyncSeq() uint64        { return f.seq }

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

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil source accepted")
	}
}

func TestComputeCutConsistent(t *testing.T) {
	g := buildGraph(t)
	cut := ComputeCut(g)
	if err := cut.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Full graph is itself consistent here: everything included.
	if cut.Size() != g.NumSubs() {
		t.Errorf("cut size %d, want %d", cut.Size(), g.NumSubs())
	}
}

func TestCutRetreatsDanglingAcquire(t *testing.T) {
	// Build a graph where the acquirer's sub is recorded but the
	// releaser's is NOT (simulates capture racing a slow thread):
	// the cut must exclude the acquire.
	g := core.NewGraph(2)
	lock := g.NewSyncObject("lock", false)
	r1, err := core.NewRecorder(g, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Forge a release from a sub-computation that is never added to the
	// graph (thread 0 hasn't completed it yet).
	ghost := &core.SubComputation{ID: core.SubID{Thread: 0, Alpha: 5}, Clock: nil}
	lockRelease(lock, ghost)
	if _, err := r1.EndSub(core.SyncEvent{Kind: core.SyncAcquire, Object: g.InternObject("lock")}, 0); err != nil {
		t.Fatal(err)
	}
	r1.Acquire(lock)
	if _, err := r1.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
		t.Fatal(err)
	}
	cut := ComputeCut(g)
	if err := cut.Validate(g); err != nil {
		t.Fatalf("cut not repaired: %v", err)
	}
	// The acquire at T1.1 must be excluded (its release T0.5 missing).
	if cut.Contains(core.SubID{Thread: 1, Alpha: 1}) {
		t.Error("dangling acquire included in cut")
	}
}

// lockRelease releases with a recorder-independent sub (test helper for
// forging incomplete release state).
func lockRelease(s *core.SyncObject, sub *core.SubComputation) {
	// Use a scratch recorder on a scratch graph to drive the release.
	g := core.NewGraph(8)
	r, err := core.NewRecorder(g, sub.ID.Thread, 0)
	if err != nil {
		panic(err)
	}
	if sub.Clock == nil {
		sub.Clock = r.Clock().Copy()
	}
	r.Release(s, sub)
}

func TestSnapshotterRing(t *testing.T) {
	g := buildGraph(t)
	src := &fakeSource{g: g, sess: perf.NewSession(perf.SessionOptions{Mode: perf.ModeSnapshot})}
	s, err := New(src, Options{Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		src.seq = uint64(i)
		s.TakeSnapshot()
	}
	snaps := s.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("ring holds %d, want 2", len(snaps))
	}
	// Oldest-first: seqs 3, 4 after five captures into two slots.
	if snaps[0].Cut.Seq != 3 || snaps[1].Cut.Seq != 4 {
		t.Errorf("ring seqs = %d, %d; want 3, 4", snaps[0].Cut.Seq, snaps[1].Cut.Seq)
	}
	if s.Taken() != 5 {
		t.Errorf("Taken = %d", s.Taken())
	}
}

func TestSnapshotCapturesPTWindows(t *testing.T) {
	g := buildGraph(t)
	sess := perf.NewSession(perf.SessionOptions{Mode: perf.ModeSnapshot, AuxSize: 64})
	st, _ := sess.Attach(1)
	for i := 0; i < 30; i++ {
		st.WriteTrace([]byte{byte(i), byte(i + 1)})
	}
	src := &fakeSource{g: g, sess: sess}
	s, err := New(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := s.TakeSnapshot()
	if len(snap.PTWindows[1]) == 0 {
		t.Error("no PT window captured")
	}
	if len(snap.PTWindows[1]) > 64 {
		t.Errorf("window exceeds ring size: %d", len(snap.PTWindows[1]))
	}
	if snap.Bytes() == 0 {
		t.Error("zero snapshot size")
	}
}

func TestSnapshotSlotBudgetTruncates(t *testing.T) {
	g := buildGraph(t)
	sess := perf.NewSession(perf.SessionOptions{Mode: perf.ModeSnapshot, AuxSize: 1024})
	st, _ := sess.Attach(1)
	st.WriteTrace(make([]byte, 1024))
	src := &fakeSource{g: g, sess: sess}
	s, err := New(src, Options{SlotSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	snap := s.TakeSnapshot()
	if snap.TruncatedPT == 0 {
		t.Error("expected truncation with tiny slot")
	}
	if len(snap.PTWindows[1]) != 100 {
		t.Errorf("window = %d bytes, want 100", len(snap.PTWindows[1]))
	}
}

func TestHookPeriodicCapture(t *testing.T) {
	g := buildGraph(t)
	src := &fakeSource{g: g, sess: perf.NewSession(perf.SessionOptions{})}
	s, err := New(src, Options{EverySyncs: 2})
	if err != nil {
		t.Fatal(err)
	}
	hook := s.Hook()
	for i := 1; i <= 6; i++ {
		src.seq = uint64(i)
		hook()
	}
	if s.Taken() != 3 {
		t.Errorf("hook captured %d snapshots, want 3 (every 2 of 6)", s.Taken())
	}
	// Disabled automatic capture:
	s2, err := New(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2.Hook()()
	if s2.Taken() != 0 {
		t.Error("hook captured despite EverySyncs=0")
	}
}

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
	s, err := New(rt, Options{Slots: 3, EverySyncs: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt.RegisterSnapshotHook(s.Hook())

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
	if s.Taken() == 0 {
		t.Fatal("no snapshots during run")
	}
	// Every retained snapshot's cut must be consistent against the final
	// graph.
	for i, snap := range s.Snapshots() {
		if err := snap.Cut.Validate(rt.Graph()); err != nil {
			t.Errorf("snapshot %d: %v", i, err)
		}
	}
}

func TestQuickCutAlwaysConsistent(t *testing.T) {
	// Random executions, cuts taken at random prefixes of the recording:
	// ComputeCut must always produce a valid cut.
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
			if r.Intn(10) == 0 {
				cut := ComputeCut(g)
				if cut.Validate(g) != nil {
					return false
				}
			}
		}
		cut := ComputeCut(g)
		return cut.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
