package threading

import (
	"sync"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/vtime"
)

// Mutex is the pthread_mutex replacement. Each Lock/Unlock is a
// sub-computation boundary under INSPECTOR: the current sub-computation
// commits its dirty pages and closes, the operation's acquire/release
// semantics update vector clocks, and a fresh sub-computation begins.
type Mutex struct {
	rt   *Runtime
	name string
	mu   sync.Mutex
	obj  *core.SyncObject
	vt   vtime.SyncPoint
}

// NewMutex creates a named mutex.
func (rt *Runtime) NewMutex(name string) *Mutex {
	return &Mutex{
		rt:   rt,
		name: name,
		obj:  rt.graph.NewSyncObject("mutex:"+name, false),
	}
}

// Name returns the mutex's name.
func (m *Mutex) Name() string { return m.name }

// Lock acquires the mutex (an acquire operation in the RC model).
func (m *Mutex) Lock(t *Thread) {
	if t.rec != nil {
		t.syncBoundary(core.SyncEvent{Kind: core.SyncAcquire, Object: m.obj.Ref()})
	} else {
		t.charge(CatApp, t.rt.model.SyncOp)
	}
	m.mu.Lock()
	m.vt.Acquire(t.clk)
	if t.rec != nil {
		t.rec.Acquire(m.obj)
	}
}

// Unlock releases the mutex (a release operation in the RC model).
func (m *Mutex) Unlock(t *Thread) {
	if t.rec != nil {
		sub := t.syncBoundary(core.SyncEvent{Kind: core.SyncRelease, Object: m.obj.Ref()})
		t.rec.Release(m.obj, sub)
	} else {
		t.charge(CatApp, t.rt.model.SyncOp)
	}
	m.vt.Release(t.clk.Now())
	m.mu.Unlock()
}

// Barrier is the pthread_barrier replacement. An arrival is a release;
// a departure is an acquire that synchronizes with every arrival of the
// same generation.
type Barrier struct {
	rt    *Runtime
	name  string
	n     int
	obj   *core.SyncObject
	vt    vtime.SyncPoint
	mu    sync.Mutex
	count int
	gen   uint64
	gate  chan struct{}
	// arrivals collects the releasing sub-computations of the current
	// generation for explicit schedule edges.
	arrivals []core.SubID
	departed []core.SubID
}

// NewBarrier creates a barrier for n participants.
func (rt *Runtime) NewBarrier(name string, n int) *Barrier {
	if n < 1 {
		n = 1
	}
	return &Barrier{
		rt:   rt,
		name: name,
		n:    n,
		obj:  rt.graph.NewSyncObject("barrier:"+name, true),
		gate: make(chan struct{}),
	}
}

// Name returns the barrier's name.
func (b *Barrier) Name() string { return b.name }

// Wait blocks until n threads arrive, then releases them all.
func (b *Barrier) Wait(t *Thread) {
	// Arrival: release.
	var sub *core.SubComputation
	if t.rec != nil {
		sub = t.syncBoundary(core.SyncEvent{Kind: core.SyncRelease, Object: b.obj.Ref()})
		t.rec.Release(b.obj, sub)
	} else {
		t.charge(CatApp, t.rt.model.SyncOp)
	}
	b.vt.Release(t.clk.Now())

	b.mu.Lock()
	if sub != nil {
		b.arrivals = append(b.arrivals, sub.ID)
	}
	b.count++
	gate := b.gate
	if b.count == b.n {
		// Last arrival: capture this generation and open the gate.
		b.departed = b.arrivals
		b.arrivals = nil
		b.count = 0
		b.gen++
		b.gate = make(chan struct{})
		b.obj.ResetReleasers()
		close(gate)
	}
	departedRef := &b.departed
	b.mu.Unlock()

	<-gate

	// Departure: acquire, synchronizing with the whole generation.
	b.vt.Acquire(t.clk)
	if t.rec != nil {
		t.rec.MergeAcquire(b.obj)
		b.mu.Lock()
		departs := *departedRef
		b.mu.Unlock()
		for _, from := range departs {
			if from.Thread == t.slot {
				continue
			}
			t.rec.AddScheduleEdge(from, b.obj.Ref())
		}
		t.charge(CatThreading, vtime.Cycles(t.rt.opts.MaxThreads)*t.rt.model.VectorClockPerSlot)
	}
}

// Semaphore is the sem_t replacement: Post is a release, Wait an acquire.
type Semaphore struct {
	rt   *Runtime
	name string
	ch   chan struct{}
	obj  *core.SyncObject
	vt   vtime.SyncPoint
}

// NewSemaphore creates a counting semaphore with the given initial value.
func (rt *Runtime) NewSemaphore(name string, initial int) *Semaphore {
	s := &Semaphore{
		rt:   rt,
		name: name,
		ch:   make(chan struct{}, 1<<20),
		obj:  rt.graph.NewSyncObject("sem:"+name, true),
	}
	for i := 0; i < initial; i++ {
		s.ch <- struct{}{}
	}
	return s
}

// Name returns the semaphore's name.
func (s *Semaphore) Name() string { return s.name }

// Post increments the semaphore (release).
func (s *Semaphore) Post(t *Thread) {
	if t.rec != nil {
		sub := t.syncBoundary(core.SyncEvent{Kind: core.SyncRelease, Object: s.obj.Ref()})
		t.rec.Release(s.obj, sub)
	} else {
		t.charge(CatApp, t.rt.model.SyncOp)
	}
	s.vt.Release(t.clk.Now())
	s.ch <- struct{}{}
}

// Wait decrements the semaphore, blocking at zero (acquire).
func (s *Semaphore) Wait(t *Thread) {
	if t.rec != nil {
		t.syncBoundary(core.SyncEvent{Kind: core.SyncAcquire, Object: s.obj.Ref()})
	} else {
		t.charge(CatApp, t.rt.model.SyncOp)
	}
	<-s.ch
	s.vt.Acquire(t.clk)
	if t.rec != nil {
		t.rec.Acquire(s.obj)
	}
}

// Cond is the pthread_cond replacement, always used with a Mutex held.
type Cond struct {
	rt   *Runtime
	name string
	m    *Mutex
	c    *sync.Cond
	obj  *core.SyncObject
	vt   vtime.SyncPoint
}

// NewCond creates a condition variable tied to m.
func (rt *Runtime) NewCond(name string, m *Mutex) *Cond {
	return &Cond{
		rt:   rt,
		name: name,
		m:    m,
		c:    sync.NewCond(&m.mu),
		obj:  rt.graph.NewSyncObject("cond:"+name, true),
	}
}

// Name returns the condition variable's name.
func (c *Cond) Name() string { return c.name }

// Wait atomically releases the mutex and blocks until signalled, then
// re-acquires the mutex: release(m); ...; acquire(c); acquire(m).
func (c *Cond) Wait(t *Thread) {
	if t.rec != nil {
		sub := t.syncBoundary(core.SyncEvent{Kind: core.SyncRelease, Object: c.m.obj.Ref()})
		t.rec.Release(c.m.obj, sub)
	} else {
		t.charge(CatApp, t.rt.model.SyncOp)
	}
	c.m.vt.Release(t.clk.Now())

	c.c.Wait() // releases m.mu while blocked, re-acquires on wake

	c.vt.Acquire(t.clk)
	c.m.vt.Acquire(t.clk)
	if t.rec != nil {
		t.rec.Acquire(c.obj)
		t.rec.MergeAcquire(c.m.obj)
	}
}

// Signal wakes one waiter (release on the condition object). POSIX allows
// signalling with or without the mutex held; the provenance semantics are
// the same.
func (c *Cond) Signal(t *Thread) {
	if t.rec != nil {
		sub := t.syncBoundary(core.SyncEvent{Kind: core.SyncRelease, Object: c.obj.Ref()})
		t.rec.Release(c.obj, sub)
	} else {
		t.charge(CatApp, t.rt.model.SyncOp)
	}
	c.vt.Release(t.clk.Now())
	c.c.Signal()
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast(t *Thread) {
	if t.rec != nil {
		sub := t.syncBoundary(core.SyncEvent{Kind: core.SyncRelease, Object: c.obj.Ref()})
		t.rec.Release(c.obj, sub)
	} else {
		t.charge(CatApp, t.rt.model.SyncOp)
	}
	c.vt.Release(t.clk.Now())
	c.c.Broadcast()
}
