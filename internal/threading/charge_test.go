package threading

import (
	"fmt"
	"sync"
	"testing"

	"github.com/repro/inspector/internal/vtime"
)

// charge is one operation's cost on its calling thread, per Figure 6
// category.
type charge struct{ app, threading, pt vtime.Cycles }

// chargeMeter records what named operations charge their calling thread.
type chargeMeter struct {
	mu  sync.Mutex
	got map[string]charge
}

// op runs f on t and records the cycles it charged t under name.
func (m *chargeMeter) op(name string, t *Thread, f func()) {
	app, thr, pt := t.appCycles, t.threadingCycles, t.ptCycles
	f()
	m.put(name, charge{t.appCycles - app, t.threadingCycles - thr, t.ptCycles - pt})
}

// start records what t was charged before its body ran (the child side
// of a spawn).
func (m *chargeMeter) start(name string, t *Thread) {
	m.put(name, charge{t.appCycles, t.threadingCycles, t.ptCycles})
}

func (m *chargeMeter) put(name string, c charge) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.got[name]; dup {
		panic("operation measured twice: " + name)
	}
	m.got[name] = c
}

// chargePins is what one scenario must produce in one mode: each
// measured operation's charge, the run's vertex count and its sync-edge
// count.
type chargePins struct {
	ops             map[string]charge
	subs, syncEdges int
}

// TestSyncChargePins pins, for every synchronization primitive in both
// modes, the exact per-category cycles each operation charges its
// calling thread and the CPG it leaves behind. Every scenario runs on a
// deterministic schedule, so the numbers are exact. With the default
// cost model and 8 thread slots: a sync op is 400 app cycles, a boundary
// pays 8×8 = 64 for the vector clock, one dirty page adds 4096 diffed
// + 2×1 committed bytes, a process spawn is 120 000, a native thread
// spawn 15 000.
func TestSyncChargePins(t *testing.T) {
	const (
		syncOp = 400
		vc     = 64
		page   = 4096 + 2    // one dirty page, one changed byte: diff + commit
		store  = 4           // a Store64's app cost
		fault  = 8000 + 1024 // a write fault and its twin copy
		exitPT = 120         // the tracer's final byte
	)
	scenarios := []struct {
		name string
		body func(rt *Runtime, m *chargeMeter) func(*Thread)
		want map[Mode]chargePins
	}{
		{
			name: "mutex",
			body: func(rt *Runtime, m *chargeMeter) func(*Thread) {
				mu := rt.NewMutex("m")
				base := rt.GlobalsBase()
				return func(main *Thread) {
					main.Store64(base, 1)
					m.op("Lock", main, func() { mu.Lock(main) })
					m.op("Unlock", main, func() { mu.Unlock(main) })
					child := main.Spawn(func(w *Thread) {
						mu.Lock(w)
						w.Load64(base)
						mu.Unlock(w)
					})
					main.Join(child)
				}
			},
			want: map[Mode]chargePins{
				ModeInspector: {ops: map[string]charge{
					"Lock":   {syncOp, page + vc, 0},
					"Unlock": {syncOp, vc, 0},
				}, subs: 8, syncEdges: 3},
				ModeNative: {ops: map[string]charge{
					"Lock":   {syncOp, 0, 0},
					"Unlock": {syncOp, 0, 0},
				}},
			},
		},
		{
			name: "barrier",
			body: func(rt *Runtime, m *chargeMeter) func(*Thread) {
				bar := rt.NewBarrier("phase", 2)
				base := rt.GlobalsBase()
				return func(main *Thread) {
					child := main.Spawn(func(w *Thread) {
						w.Store64(base+8, 2)
						m.op("Wait (worker)", w, func() { bar.Wait(w) })
					})
					main.Store64(base, 1)
					m.op("Wait", main, func() { bar.Wait(main) })
					main.Join(child)
				}
			},
			want: map[Mode]chargePins{
				ModeInspector: {ops: map[string]charge{
					"Wait":          {syncOp, page + vc + vc, 0},
					"Wait (worker)": {syncOp, page + vc + vc, 0},
				}, subs: 6, syncEdges: 4},
				ModeNative: {ops: map[string]charge{
					"Wait":          {syncOp, 0, 0},
					"Wait (worker)": {syncOp, 0, 0},
				}},
			},
		},
		{
			name: "semaphore",
			body: func(rt *Runtime, m *chargeMeter) func(*Thread) {
				sem := rt.NewSemaphore("items", 0)
				base := rt.GlobalsBase()
				return func(main *Thread) {
					child := main.Spawn(func(w *Thread) {
						w.Store64(base, 1)
						m.op("Post", w, func() { sem.Post(w) })
					})
					m.op("Wait", main, func() { sem.Wait(main) })
					main.Join(child)
				}
			},
			want: map[Mode]chargePins{
				ModeInspector: {ops: map[string]charge{
					"Post": {syncOp, page + vc, 0},
					"Wait": {syncOp, vc, 0},
				}, subs: 6, syncEdges: 3},
				ModeNative: {ops: map[string]charge{
					"Post": {syncOp, 0, 0},
					"Wait": {syncOp, 0, 0},
				}},
			},
		},
		{
			name: "cond",
			body: func(rt *Runtime, m *chargeMeter) func(*Thread) {
				mu := rt.NewMutex("state")
				cv := rt.NewCond("ready", mu)
				base := rt.GlobalsBase()
				return func(main *Thread) {
					// Broadcast before any waiter: the release still
					// accumulates on the condition object.
					m.op("Broadcast", main, func() { cv.Broadcast(main) })
					waiting := make(chan struct{})
					waiter := main.Spawn(func(w *Thread) {
						mu.Lock(w)
						close(waiting)
						// Wait gives up the mutex only once the waiter is
						// queued, so main's Lock below orders the Signal
						// after it: exactly one Wait.
						m.op("Wait", w, func() { cv.Wait(w) })
						w.Load64(base)
						mu.Unlock(w)
					})
					<-waiting
					mu.Lock(main)
					main.Store64(base, 1)
					mu.Unlock(main)
					m.op("Signal", main, func() { cv.Signal(main) })
					main.Join(waiter)
				}
			},
			want: map[Mode]chargePins{
				ModeInspector: {ops: map[string]charge{
					"Wait":      {syncOp, vc, 0},
					"Signal":    {syncOp, vc, 0},
					"Broadcast": {syncOp, vc, 0},
				}, subs: 11, syncEdges: 5},
				ModeNative: {ops: map[string]charge{
					"Wait":      {syncOp, 0, 0},
					"Signal":    {syncOp, 0, 0},
					"Broadcast": {syncOp, 0, 0},
				}},
			},
		},
		{
			name: "rwmutex",
			body: func(rt *Runtime, m *chargeMeter) func(*Thread) {
				rw := rt.NewRWMutex("table")
				base := rt.GlobalsBase()
				return func(main *Thread) {
					m.op("Lock", main, func() { rw.Lock(main) })
					main.Store64(base, 1)
					m.op("Unlock", main, func() { rw.Unlock(main) })
					reader := main.Spawn(func(w *Thread) {
						m.op("RLock", w, func() { rw.RLock(w) })
						w.Load64(base)
						w.Store64(base+8, 2)
						m.op("RUnlock", w, func() { rw.RUnlock(w) })
					})
					main.Join(reader)
					rw.Lock(main)
					rw.Unlock(main)
				}
			},
			want: map[Mode]chargePins{
				ModeInspector: {ops: map[string]charge{
					"Lock":    {syncOp, vc, 0},
					"Unlock":  {syncOp, page + vc, 0},
					"RLock":   {syncOp, vc, 0},
					"RUnlock": {syncOp, page + vc, 0},
				}, subs: 10, syncEdges: 4},
				ModeNative: {ops: map[string]charge{
					"Lock":    {syncOp, 0, 0},
					"Unlock":  {syncOp, 0, 0},
					"RLock":   {syncOp, 0, 0},
					"RUnlock": {syncOp, 0, 0},
				}},
			},
		},
		{
			name: "trylock",
			body: func(rt *Runtime, m *chargeMeter) func(*Thread) {
				mu := rt.NewMutex("m")
				base := rt.GlobalsBase()
				return func(main *Thread) {
					main.Store64(base, 1)
					m.op("TryLock", main, func() {
						if !mu.TryLock(main) {
							panic("uncontended TryLock failed")
						}
					})
					child := main.Spawn(func(w *Thread) {
						m.op("TryLock (busy)", w, func() {
							if mu.TryLock(w) {
								panic("TryLock succeeded on a held mutex")
							}
						})
					})
					main.Join(child)
					mu.Unlock(main)
				}
			},
			want: map[Mode]chargePins{
				ModeInspector: {ops: map[string]charge{
					"TryLock":        {syncOp, page + vc, 0},
					"TryLock (busy)": {syncOp, 0, 0},
				}, subs: 6, syncEdges: 2},
				ModeNative: {ops: map[string]charge{
					"TryLock":        {syncOp, 0, 0},
					"TryLock (busy)": {syncOp, 0, 0},
				}},
			},
		},
		{
			name: "once",
			body: func(rt *Runtime, m *chargeMeter) func(*Thread) {
				once := rt.NewOnce("init")
				base := rt.GlobalsBase()
				init := func(w *Thread) { w.Store64(base, 99) }
				return func(main *Thread) {
					m.op("Do (winner)", main, func() { once.Do(main, init) })
					child := main.Spawn(func(w *Thread) {
						m.op("Do (loser)", w, func() { once.Do(w, init) })
					})
					main.Join(child)
				}
			},
			want: map[Mode]chargePins{
				ModeInspector: {ops: map[string]charge{
					"Do (winner)": {2*syncOp + store, vc + fault + page + vc, 0},
					"Do (loser)":  {syncOp, vc, 0},
				}, subs: 7, syncEdges: 3},
				ModeNative: {ops: map[string]charge{
					// The winner's initializer release is free natively.
					"Do (winner)": {syncOp + store, 0, 0},
					"Do (loser)":  {syncOp, 0, 0},
				}},
			},
		},
		{
			name: "spawn-join",
			body: func(rt *Runtime, m *chargeMeter) func(*Thread) {
				base := rt.GlobalsBase()
				return func(main *Thread) {
					main.Store64(base, 1)
					var child *Thread
					m.op("Spawn", main, func() {
						child = main.Spawn(func(w *Thread) {
							m.start("Spawn (child)", w)
							w.Store64(base+8, 2)
						})
					})
					m.op("Join", main, func() { main.Join(child) })
				}
			},
			want: map[Mode]chargePins{
				ModeInspector: {ops: map[string]charge{
					"Spawn":         {syncOp, 120_000 + page + vc, 0},
					"Spawn (child)": {0, 120_000, 0},
					"Join":          {syncOp, vc, 0},
				}, subs: 4, syncEdges: 2},
				ModeNative: {ops: map[string]charge{
					"Spawn":         {15_000, 0, 0},
					"Spawn (child)": {0, 0, 0},
					"Join":          {syncOp, 0, 0},
				}},
			},
		},
		{
			name: "exit",
			body: func(rt *Runtime, m *chargeMeter) func(*Thread) {
				base := rt.GlobalsBase()
				return func(main *Thread) {
					main.Store64(base, 1)
					// finish is idempotent: the runtime's own call after the
					// body returns is a no-op, so this measures the exit.
					m.op("exit", main, main.finish)
				}
			},
			want: map[Mode]chargePins{
				ModeInspector: {ops: map[string]charge{
					"exit": {syncOp, page + vc, exitPT},
				}, subs: 1},
				ModeNative: {ops: map[string]charge{
					"exit": {syncOp, 0, 0},
				}},
			},
		},
	}
	for _, sc := range scenarios {
		for _, mode := range []Mode{ModeInspector, ModeNative} {
			t.Run(fmt.Sprintf("%s/%v", sc.name, mode), func(t *testing.T) {
				rt := newRT(t, mode)
				m := &chargeMeter{got: make(map[string]charge)}
				if _, err := rt.Run(sc.body(rt, m)); err != nil {
					t.Fatal(err)
				}
				want := sc.want[mode]
				for name, w := range want.ops {
					got, ok := m.got[name]
					if !ok {
						t.Errorf("%s: not measured", name)
						continue
					}
					if got != w {
						t.Errorf("%s charged {app %d, threading %d, pt %d}, want {app %d, threading %d, pt %d}",
							name, got.app, got.threading, got.pt, w.app, w.threading, w.pt)
					}
				}
				if len(m.got) != len(want.ops) {
					t.Errorf("measured %d operations, pinned %d", len(m.got), len(want.ops))
				}
				g := rt.Graph()
				if got := g.NumSubs(); got != want.subs {
					t.Errorf("vertices = %d, want %d", got, want.subs)
				}
				if got := len(g.SyncEdges()); got != want.syncEdges {
					t.Errorf("sync edges = %d, want %d", got, want.syncEdges)
				}
			})
		}
	}
}
