package threading

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/repro/inspector/internal/mem"
	"github.com/repro/inspector/internal/perf"
)

func newRT(t *testing.T, mode Mode) *Runtime {
	t.Helper()
	rt, err := NewRuntime(Options{AppName: "test", Mode: mode, MaxThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestModeString(t *testing.T) {
	if ModeNative.String() != "native" || ModeInspector.String() != "inspector" || Mode(0).String() != "unknown" {
		t.Error("mode strings")
	}
}

func TestRunSingleThread(t *testing.T) {
	rt := newRT(t, ModeInspector)
	base := rt.GlobalsBase()
	rep, err := rt.Run(func(th *Thread) {
		th.Store64(base, 42)
		if got := th.Load64(base); got != 42 {
			t.Errorf("load = %d", got)
		}
		th.Compute(100)
		th.Branch("main.loop", true)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Time == 0 || rep.Work == 0 {
		t.Error("no time accounted")
	}
	if rep.Loads != 1 || rep.Stores != 1 || rep.Branches != 1 || rep.ALU != 100 {
		t.Errorf("counters: %+v", rep)
	}
	if rep.WriteFaults != 1 {
		t.Errorf("write faults = %d, want 1", rep.WriteFaults)
	}
	// One store then load on the same page: the load must not fault.
	if rep.ReadFaults != 0 {
		t.Errorf("read faults = %d, want 0", rep.ReadFaults)
	}
	if rep.SubComputations != 1 {
		t.Errorf("subs = %d, want 1 (single thread, no sync)", rep.SubComputations)
	}
	if rep.TraceBytes == 0 {
		t.Error("no PT trace produced")
	}
}

func TestRunTwiceFails(t *testing.T) {
	rt := newRT(t, ModeInspector)
	if _, err := rt.Run(func(*Thread) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(func(*Thread) {}); err == nil {
		t.Error("second Run succeeded")
	}
}

func TestSpawnJoinVisibility(t *testing.T) {
	// RC model: child's writes become visible to the parent after join
	// (join is an acquire of the child's exit release).
	for _, mode := range []Mode{ModeInspector, ModeNative} {
		rt := newRT(t, mode)
		base := rt.GlobalsBase()
		rep, err := rt.Run(func(main *Thread) {
			child := main.Spawn(func(w *Thread) {
				w.Store64(base, 7)
			})
			main.Join(child)
			if got := main.Load64(base); got != 7 {
				t.Errorf("[%v] parent sees %d after join, want 7", mode, got)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Threads != 2 {
			t.Errorf("[%v] threads = %d", mode, rep.Threads)
		}
	}
}

func TestSpawnChildSeesParentWrites(t *testing.T) {
	rt := newRT(t, ModeInspector)
	base := rt.GlobalsBase()
	_, err := rt.Run(func(main *Thread) {
		main.Store64(base, 99)
		before := main.Now()
		child := main.Spawn(func(w *Thread) {
			if w.Now() < before {
				t.Errorf("child clock starts at %d, before its parent's spawn point %d", w.Now(), before)
			}
			if got := w.Load64(base); got != 99 {
				t.Errorf("child sees %d, want 99 (spawn is a release)", got)
			}
		})
		main.Join(child)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMutexTransfersData(t *testing.T) {
	// The Figure 1 pattern as an actual concurrent execution.
	rt := newRT(t, ModeInspector)
	base := rt.GlobalsBase()
	m := rt.NewMutex("m")
	_, err := rt.Run(func(main *Thread) {
		m.Lock(main)
		main.Store64(base, 1)
		m.Unlock(main)
		child := main.Spawn(func(w *Thread) {
			m.Lock(w)
			v := w.Load64(base)
			w.Store64(base+8, v*2)
			m.Unlock(w)
		})
		main.Join(child)
		m.Lock(main)
		if got := main.Load64(base + 8); got != 2 {
			t.Errorf("after child: %d, want 2", got)
		}
		m.Unlock(main)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Graph must be a valid CPG.
	if verr := rt.Graph().Analyze().Verify(); verr != nil {
		t.Errorf("CPG verify: %v", verr)
	}
}

func TestCPGStructureForMutexHandoff(t *testing.T) {
	rt := newRT(t, ModeInspector)
	base := rt.GlobalsBase()
	m := rt.NewMutex("m")
	_, err := rt.Run(func(main *Thread) {
		child := main.Spawn(func(w *Thread) {
			m.Lock(w)
			w.Store64(base, 5)
			m.Unlock(w)
		})
		main.Join(child)
		m.Lock(main)
		_ = main.Load64(base)
		m.Unlock(main)
	})
	if err != nil {
		t.Fatal(err)
	}
	g := rt.Graph()
	// There must exist a data edge on the page of `base` from a child
	// sub-computation (slot 1) to a main sub-computation (slot 0).
	page := uint64(base) / uint64(rt.PageSize())
	var found bool
	for _, e := range g.DataEdges() {
		if e.From.Thread == 1 && e.To.Thread == 0 {
			for _, p := range e.Pages {
				if p == page {
					found = true
				}
			}
		}
	}
	if !found {
		t.Errorf("no data edge child->main for page %d; edges: %+v", page, g.DataEdges())
	}
	// Sync edges must mention the mutex and the join object.
	var sawMutex, sawJoin bool
	for _, e := range g.SyncEdges() {
		if strings.HasPrefix(e.Object, "mutex:") {
			sawMutex = true
		}
		if strings.HasPrefix(e.Object, "join:") {
			sawJoin = true
		}
	}
	if !sawMutex || !sawJoin {
		t.Errorf("sync edges missing mutex(%v)/join(%v): %+v", sawMutex, sawJoin, g.SyncEdges())
	}
}

func TestPTTraceDecodes(t *testing.T) {
	rt := newRT(t, ModeInspector)
	_, err := rt.Run(func(main *Thread) {
		for i := 0; i < 100; i++ {
			main.Branch("main.loop", i < 99)
			main.Compute(10)
		}
		child := main.Spawn(func(w *Thread) {
			for i := 0; i < 50; i++ {
				w.Branch("child.loop", i%2 == 0)
			}
			w.Indirect("child.dispatch")
			w.Branch("child.tail", true)
		})
		main.Join(child)
	})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := rt.DecodeTraces()
	if err != nil {
		t.Fatalf("DecodeTraces: %v", err)
	}
	var total int
	for _, n := range counts {
		total += n
	}
	// 100 main branches + 50+1+1 child events.
	if total != 152 {
		t.Errorf("decoded %d events, want 152 (per-pid: %v)", total, counts)
	}
}

// TestThreadIdentityIsSlot: a thread's PID is its slot rendered for perf,
// however spawns from different parents interleave, so every per-thread
// artefact of the run comes out in slot order.
func TestThreadIdentityIsSlot(t *testing.T) {
	rt, err := NewRuntime(Options{AppName: "ident", MaxThreads: 16})
	if err != nil {
		t.Fatal(err)
	}
	checkPID := func(w *Thread) {
		w.Branch("ident.body", true)
		if w.PID() != 1000+int32(w.Slot()) {
			t.Errorf("slot %d has PID %d, want %d", w.Slot(), w.PID(), 1000+w.Slot())
		}
	}
	// Four parents spawn two children each, racing one another for slots:
	// eight threads created concurrently from different parents.
	if _, err := rt.Run(func(main *Thread) {
		checkPID(main)
		var parents []*Thread
		for i := 0; i < 4; i++ {
			parents = append(parents, main.Spawn(func(p *Thread) {
				checkPID(p)
				a, b := p.Spawn(checkPID), p.Spawn(checkPID)
				p.Join(a)
				p.Join(b)
			}))
		}
		for _, p := range parents {
			main.Join(p)
		}
	}); err != nil {
		t.Fatal(err)
	}
	want := make([]int32, 13)
	for i := range want {
		want[i] = 1000 + int32(i)
	}
	if got := rt.Session().PIDs(); !slices.Equal(got, want) {
		t.Errorf("Session.PIDs() = %v, want ascending %v", got, want)
	}

	counts, err := rt.DecodeTraces()
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != len(want) {
		t.Errorf("DecodeTraces has %d PIDs, want %d", len(counts), len(want))
	}
	for _, pid := range want {
		if counts[pid] != 1 {
			t.Errorf("pid %d decoded %d events, want its one branch", pid, counts[pid])
		}
	}

	var first, second bytes.Buffer
	if err := rt.Session().Serialize(&first); err != nil {
		t.Fatal(err)
	}
	if err := rt.Session().Serialize(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("two serializations of one finished run differ")
	}
	// The file groups each process's records, ascending by PID, in the
	// order the process logged them and with its trace last: the same
	// (type, PID) sequence on every run, whatever the schedule was.
	recs, err := perf.ReadRecords(&first)
	if err != nil {
		t.Fatal(err)
	}
	var got, layout []string
	for _, r := range recs {
		got = append(got, fmt.Sprintf("%s/%d", r.Type, r.PID))
	}
	for _, pid := range want {
		for _, ty := range []perf.RecordType{perf.RecordITraceStart, perf.RecordCOMM, perf.RecordMMAP, perf.RecordExit, perf.RecordAUX} {
			layout = append(layout, fmt.Sprintf("%s/%d", ty, pid))
		}
	}
	if !slices.Equal(got, layout) {
		t.Errorf("record sequence\n %v\nwant\n %v", got, layout)
	}
}

func TestBarrier(t *testing.T) {
	rt := newRT(t, ModeInspector)
	base := rt.GlobalsBase()
	const n = 4
	bar := rt.NewBarrier("phase", n)
	_, err := rt.Run(func(main *Thread) {
		var workers []*Thread
		for i := 1; i < n; i++ {
			i := i
			workers = append(workers, main.Spawn(func(w *Thread) {
				w.Store64(base+mem.Addr(8*i), uint64(i))
				bar.Wait(w)
				// After the barrier every thread's write is visible.
				for j := 0; j < n; j++ {
					want := uint64(j)
					if got := w.Load64(base + mem.Addr(8*j)); got != want {
						t.Errorf("worker %d sees slot %d = %d, want %d", i, j, got, want)
					}
				}
			}))
		}
		main.Store64(base, 0)
		bar.Wait(main)
		for j := 0; j < n; j++ {
			if got := main.Load64(base + mem.Addr(8*j)); got != uint64(j) {
				t.Errorf("main sees slot %d = %d", j, got)
			}
		}
		for _, w := range workers {
			main.Join(w)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if verr := rt.Graph().Analyze().Verify(); verr != nil {
		t.Errorf("CPG verify: %v", verr)
	}
}

func TestSemaphore(t *testing.T) {
	rt := newRT(t, ModeInspector)
	base := rt.GlobalsBase()
	sem := rt.NewSemaphore("items", 0)
	_, err := rt.Run(func(main *Thread) {
		producer := main.Spawn(func(p *Thread) {
			p.Store64(base, 123)
			sem.Post(p)
		})
		sem.Wait(main)
		if got := main.Load64(base); got != 123 {
			t.Errorf("consumer sees %d, want 123 (post is a release)", got)
		}
		main.Join(producer)
	})
	if err != nil {
		t.Fatal(err)
	}
	if verr := rt.Graph().Analyze().Verify(); verr != nil {
		t.Errorf("CPG verify: %v", verr)
	}
}

func TestCondVar(t *testing.T) {
	rt := newRT(t, ModeInspector)
	base := rt.GlobalsBase()
	m := rt.NewMutex("state")
	cv := rt.NewCond("ready", m)
	_, err := rt.Run(func(main *Thread) {
		waiter := main.Spawn(func(w *Thread) {
			m.Lock(w)
			for w.Load64(base) == 0 {
				w.Branch("waiter.check", true)
				cv.Wait(w)
			}
			w.Branch("waiter.check", false)
			if got := w.Load64(base + 8); got != 77 {
				t.Errorf("waiter sees payload %d, want 77", got)
			}
			m.Unlock(w)
		})
		m.Lock(main)
		main.Store64(base+8, 77) // payload
		main.Store64(base, 1)    // flag
		m.Unlock(main)
		cv.Signal(main)
		main.Join(waiter)
	})
	if err != nil {
		t.Fatal(err)
	}
	if verr := rt.Graph().Analyze().Verify(); verr != nil {
		t.Errorf("CPG verify: %v", verr)
	}
}

func TestNativeModeHasNoProvenance(t *testing.T) {
	rt := newRT(t, ModeNative)
	base := rt.GlobalsBase()
	rep, err := rt.Run(func(main *Thread) {
		main.Store64(base, 1)
		main.Branch("b", true)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults() != 0 {
		t.Errorf("native faults = %d", rep.Faults())
	}
	if rep.TraceBytes != 0 {
		t.Errorf("native trace bytes = %d", rep.TraceBytes)
	}
	if rep.SubComputations != 0 {
		t.Errorf("native subs = %d", rep.SubComputations)
	}
	if rep.ThreadingCycles != 0 || rep.PTCycles != 0 {
		t.Errorf("native charged overhead categories: %+v", rep)
	}
}

func TestInspectorOverheadExceedsNative(t *testing.T) {
	run := func(mode Mode) *Report {
		rt := newRT(t, mode)
		base := rt.GlobalsBase()
		m := rt.NewMutex("m")
		rep, err := rt.Run(func(main *Thread) {
			for i := 0; i < 200; i++ {
				m.Lock(main)
				main.Store64(base+mem.Addr((i%64)*int(rt.PageSize())), uint64(i))
				m.Unlock(main)
				main.Branch("loop", i < 199)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	nat := run(ModeNative)
	insp := run(ModeInspector)
	if insp.Time <= nat.Time {
		t.Errorf("inspector time %v not above native %v", insp.Time, nat.Time)
	}
	if insp.ThreadingCycles == 0 || insp.PTCycles == 0 {
		t.Error("overhead categories not populated")
	}
}

func TestMallocTracksAllocatorPages(t *testing.T) {
	rt := newRT(t, ModeInspector)
	rep, err := rt.Run(func(main *Thread) {
		a := main.Malloc(64)
		b := main.Malloc(64)
		if a == b {
			t.Error("allocations alias")
		}
		if a%16 != 0 || b%16 != 0 {
			t.Error("allocations not 16-byte aligned")
		}
		main.Store64(a, 1)
		main.Store64(b, 2)
		if main.Load64(a) != 1 || main.Load64(b) != 2 {
			t.Error("heap data corrupt")
		}
		main.Free(a)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Malloc header writes fault on allocator pages.
	if rep.WriteFaults == 0 {
		t.Error("malloc caused no faults")
	}
}

func TestMapInput(t *testing.T) {
	rt := newRT(t, ModeInspector)
	data := []byte("hello input file")
	addr, err := rt.MapInput("input.txt", data)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run(func(main *Thread) {
		buf := make([]byte, len(data))
		main.Read(addr, buf)
		if string(buf) != string(data) {
			t.Errorf("read %q", buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Input pages must land in the read set (provenance from input).
	subs := rt.ThreadSubs(0)
	if len(subs) == 0 {
		t.Fatal("no subs")
	}
	page := uint64(addr) / uint64(rt.PageSize())
	if !subs[0].ReadSet.Contains(page) {
		t.Errorf("input page %d not in read set %v", page, subs[0].ReadSet.Sorted())
	}
	// An MMAP record for the input must exist.
	var sawMmap bool
	for _, rec := range rt.Session().Records() {
		if rec.Filename == "input.txt" {
			sawMmap = true
		}
	}
	if !sawMmap {
		t.Error("no MMAP record for input")
	}
}

func TestThreadSlotExhaustion(t *testing.T) {
	rt, err := NewRuntime(Options{AppName: "x", Mode: ModeNative, MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The spawn panic is recovered by Run and surfaces as an error; the
	// host process must survive.
	_, err = rt.Run(func(main *Thread) {
		c1 := main.Spawn(func(*Thread) {})
		main.Join(c1)
		c2 := main.Spawn(func(*Thread) {}) // slot 2 of 2: must fail
		main.Join(c2)
	})
	if !errors.Is(err, ErrWorkloadPanic) {
		t.Fatalf("Run error = %v, want ErrWorkloadPanic", err)
	}
	if !strings.Contains(err.Error(), ErrTooManyThreads.Error()) {
		t.Errorf("error %q does not name the slot exhaustion", err)
	}
}

func TestSegfaultPanics(t *testing.T) {
	rt := newRT(t, ModeInspector)
	// The simulated SIGSEGV unwinds the workload body; Run recovers it
	// into an error instead of killing the process.
	_, err := rt.Run(func(main *Thread) {
		main.Load64(0xdeadbeef0000)
	})
	if !errors.Is(err, ErrWorkloadPanic) {
		t.Fatalf("Run error = %v, want ErrWorkloadPanic", err)
	}
	if !strings.Contains(err.Error(), "load64") {
		t.Errorf("error %q does not describe the faulting access", err)
	}
}

func TestFalseSharingPenalizesNativeOnly(t *testing.T) {
	run := func(mode Mode) *Report {
		rt := newRT(t, mode)
		base := rt.GlobalsBase()
		rep, err := rt.Run(func(main *Thread) {
			// Two threads hammer adjacent words in one cache line.
			c := main.Spawn(func(w *Thread) {
				for i := 0; i < 500; i++ {
					w.Store64(base+8, uint64(i))
				}
			})
			for i := 0; i < 500; i++ {
				main.Store64(base, uint64(i))
			}
			main.Join(c)
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	_ = run(ModeNative)
	insp := run(ModeInspector)
	// The assertion that matters for Figure 5's linear_regression shape:
	// INSPECTOR's isolated spaces never charge the false-sharing penalty.
	// (Charging shows up inside AppCycles, so compare store cost bounds.)
	storeCost := uint64(insp.Stores) * uint64(vtimeDefaultStore)
	if uint64(insp.AppCycles) < storeCost {
		t.Errorf("inspector app cycles %d below pure store cost %d", insp.AppCycles, storeCost)
	}
}

// vtimeDefaultStore mirrors vtime.Default().Store for the bound check.
const vtimeDefaultStore = 4

func TestWorkExceedsTimeWithParallelism(t *testing.T) {
	rt := newRT(t, ModeNative)
	rep, err := rt.Run(func(main *Thread) {
		var ws []*Thread
		for i := 0; i < 4; i++ {
			ws = append(ws, main.Spawn(func(w *Thread) {
				w.Compute(1_000_000)
			}))
		}
		for _, w := range ws {
			main.Join(w)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Four threads of equal work: total work must be well above the
	// critical path.
	if rep.Work < rep.Time*2 {
		t.Errorf("work %v vs time %v: parallelism not reflected", rep.Work, rep.Time)
	}
	// And time must cover at least one thread's compute.
	if rep.Time < 1_000_000 {
		t.Errorf("time %v below single thread's work", rep.Time)
	}
}
