package threading

import (
	"sync/atomic"
	"testing"

	"github.com/repro/inspector/internal/pt"
)

// decodeEvents decodes one raw PT trace against the runtime's image.
func decodeEvents(rt *Runtime, trace []byte) ([]pt.Event, error) {
	return pt.DecodeAll(rt.img, trace)
}

func TestRWMutexWriteVisibility(t *testing.T) {
	rt := newRT(t, ModeInspector)
	base := rt.GlobalsBase()
	rw := rt.NewRWMutex("table")
	_, err := rt.Run(func(main *Thread) {
		rw.Lock(main)
		main.Store64(base, 77)
		rw.Unlock(main)
		readers := make([]*Thread, 0, 3)
		for i := 0; i < 3; i++ {
			readers = append(readers, main.Spawn(func(w *Thread) {
				rw.RLock(w)
				if got := w.Load64(base); got != 77 {
					t.Errorf("reader sees %d, want 77", got)
				}
				rw.RUnlock(w)
			}))
		}
		for _, r := range readers {
			main.Join(r)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if verr := rt.Graph().Analyze().Verify(); verr != nil {
		t.Errorf("CPG verify: %v", verr)
	}
	// Readers must happen-after the writer's release: a sync edge from
	// the writer's unlock sub to each reader's lock sub.
	var rwEdges int
	for _, e := range rt.Graph().SyncEdges() {
		if e.Object == "rwlock:table" {
			rwEdges++
		}
	}
	if rwEdges < 3 {
		t.Errorf("rwlock edges = %d, want >= 3 (one per reader)", rwEdges)
	}
}

func TestRWMutexNative(t *testing.T) {
	rt := newRT(t, ModeNative)
	base := rt.GlobalsBase()
	rw := rt.NewRWMutex("t")
	_, err := rt.Run(func(main *Thread) {
		rw.Lock(main)
		main.Store64(base, 1)
		rw.Unlock(main)
		rw.RLock(main)
		_ = main.Load64(base)
		rw.RUnlock(main)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTryLock(t *testing.T) {
	rt := newRT(t, ModeInspector)
	base := rt.GlobalsBase()
	m := rt.NewMutex("m")
	_, err := rt.Run(func(main *Thread) {
		if !m.TryLock(main) {
			t.Fatal("uncontended TryLock failed")
		}
		main.Store64(base, 5)

		// A second thread's TryLock must fail while main holds it; the
		// gate channel makes the attempt deterministic.
		attempted := make(chan bool, 1)
		child := main.Spawn(func(w *Thread) {
			attempted <- m.TryLock(w)
		})
		if got := <-attempted; got {
			t.Error("TryLock succeeded while lock held")
		}
		m.Unlock(main)
		main.Join(child)

		// After release, TryLock succeeds and sees the write.
		if !m.TryLock(main) {
			t.Fatal("TryLock after unlock failed")
		}
		if got := main.Load64(base); got != 5 {
			t.Errorf("value = %d", got)
		}
		m.Unlock(main)
	})
	if err != nil {
		t.Fatal(err)
	}
	if verr := rt.Graph().Analyze().Verify(); verr != nil {
		t.Errorf("CPG verify: %v", verr)
	}
}

func TestOnceRunsExactlyOnce(t *testing.T) {
	rt := newRT(t, ModeInspector)
	base := rt.GlobalsBase()
	once := rt.NewOnce("init")
	var runs atomic.Int32
	_, err := rt.Run(func(main *Thread) {
		init := func(w *Thread) {
			runs.Add(1)
			w.Store64(base, 99)
		}
		var ws []*Thread
		for i := 0; i < 4; i++ {
			ws = append(ws, main.Spawn(func(w *Thread) {
				once.Do(w, init)
				// Every caller must observe the initialization.
				if got := w.Load64(base); got != 99 {
					t.Errorf("after Do: %d, want 99", got)
				}
			}))
		}
		once.Do(main, init)
		if got := main.Load64(base); got != 99 {
			t.Errorf("main after Do: %d", got)
		}
		for _, w := range ws {
			main.Join(w)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("init ran %d times", got)
	}
	if verr := rt.Graph().Analyze().Verify(); verr != nil {
		t.Errorf("CPG verify: %v", verr)
	}
}

// TestThunksMatchPTDecode cross-checks the two control-flow recorders:
// the thunk sequence captured in the CPG (software side, Algorithm 2's
// onBranchAccess) must equal the branch events reconstructed from the
// compressed PT packet stream (hardware side). This is the paper's core
// integration point — the CPG's control edges come from PT.
func TestThunksMatchPTDecode(t *testing.T) {
	rt := newRT(t, ModeInspector)
	_, err := rt.Run(func(main *Thread) {
		for i := 0; i < 300; i++ {
			main.Branch("a", i%3 == 0)
			if i%5 == 0 {
				main.Indirect("disp")
			}
			main.Branch("b", i%7 < 3)
		}
		child := main.Spawn(func(w *Thread) {
			for i := 0; i < 100; i++ {
				w.Branch("c", i%2 == 0)
			}
		})
		main.Join(child)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Gather per-thread thunk sequences from the CPG.
	for slot := 0; slot < 2; slot++ {
		type ev struct {
			site     string
			taken    bool
			indirect bool
		}
		var recorded []ev
		for _, sc := range rt.Graph().ThreadSeq(slot) {
			for _, th := range sc.Thunks {
				recorded = append(recorded, ev{site: rt.Graph().SiteName(th.Site), taken: th.Taken, indirect: th.Indirect})
			}
		}
		// Decode the same thread's PT stream.
		stream, ok := rt.Session().Stream(rt.threads[slot].PID())
		if !ok {
			t.Fatalf("no stream for slot %d", slot)
		}
		events, err := decodeEvents(rt, stream.Trace())
		if err != nil {
			t.Fatalf("slot %d decode: %v", slot, err)
		}
		if len(events) != len(recorded) {
			t.Fatalf("slot %d: PT decoded %d events, CPG recorded %d thunks",
				slot, len(events), len(recorded))
		}
		for i := range events {
			r := recorded[i]
			if events[i].Site.Label != r.site {
				t.Fatalf("slot %d event %d: PT site %s, thunk site %s",
					slot, i, events[i].Site.Label, r.site)
			}
			if !r.indirect && events[i].Taken != r.taken {
				t.Fatalf("slot %d event %d: PT taken %v, thunk %v",
					slot, i, events[i].Taken, r.taken)
			}
		}
	}
}
