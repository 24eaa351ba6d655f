package threading

import (
	"sync"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/vtime"
)

// syncPoint is one synchronization object as both clocks see it: the
// CPG's vector clock and releaser set (Algorithm 2's CS) and the virtual
// time of its latest release.
type syncPoint struct {
	obj *core.SyncObject
	vt  vtime.SyncPoint
}

// release is Algorithm 2's release(S): seal the current sub-computation
// at the release, publish it to p's vector clock, then publish the
// thread's virtual time. It returns the sealed sub-computation (nil in
// native mode, where the seal is just the sync op's charge).
func (t *Thread) release(p *syncPoint) *core.SubComputation {
	sub := t.syncBoundary(core.SyncEvent{Kind: core.SyncRelease, Object: p.obj.Ref()})
	if sub != nil {
		t.rec.Release(p.obj, sub)
	}
	p.vt.Release(t.clk.Now())
	return sub
}

// acquire is Algorithm 2's acquire(S): seal the current sub-computation
// at the acquire, block in wait (nil when the object is already held),
// then merge p's clocks into the fresh sub-computation.
func (t *Thread) acquire(p *syncPoint, wait func()) {
	t.syncBoundary(core.SyncEvent{Kind: core.SyncAcquire, Object: p.obj.Ref()})
	if wait != nil {
		wait()
	}
	t.acquired(p)
}

// acquired merges p's clocks into the thread's: virtual time waits for
// the latest release, and the vector clock takes CS with a schedule edge
// from each releaser the acquire synchronizes with.
func (t *Thread) acquired(p *syncPoint) {
	p.vt.Acquire(t.clk)
	if t.rec != nil {
		t.rec.Acquire(p.obj)
	}
}

// Mutex is the pthread_mutex replacement. Each Lock/Unlock is a
// sub-computation boundary under INSPECTOR: the current sub-computation
// commits its dirty pages and closes, the operation's acquire/release
// semantics update vector clocks, and a fresh sub-computation begins.
type Mutex struct {
	name string
	mu   sync.Mutex
	p    syncPoint
}

// NewMutex creates a named mutex.
func (rt *Runtime) NewMutex(name string) *Mutex {
	return &Mutex{name: name, p: syncPoint{obj: rt.graph.NewSyncObject("mutex:"+name, false)}}
}

// Name returns the mutex's name.
func (m *Mutex) Name() string { return m.name }

// Lock acquires the mutex (an acquire operation in the RC model).
func (m *Mutex) Lock(t *Thread) { t.acquire(&m.p, m.mu.Lock) }

// Unlock releases the mutex (a release operation in the RC model).
func (m *Mutex) Unlock(t *Thread) {
	t.release(&m.p)
	m.mu.Unlock()
}

// Barrier is the pthread_barrier replacement. An arrival is a release;
// a departure is an acquire that synchronizes with every arrival of the
// same generation.
type Barrier struct {
	name string
	n    int
	p    syncPoint
	mu   sync.Mutex
	cur  *barrierGen
}

// barrierGen is one generation of a barrier: its arrivals so far, the
// releasing sub-computations among them (for explicit schedule edges),
// and the gate its last arrival opens.
type barrierGen struct {
	count    int
	releases []core.SubID
	gate     chan struct{}
}

// NewBarrier creates a barrier for n participants.
func (rt *Runtime) NewBarrier(name string, n int) *Barrier {
	// The object carries only the vector clock: departures take their
	// edges from their own generation, never from the releaser set.
	return &Barrier{
		name: name,
		n:    max(n, 1),
		p:    syncPoint{obj: rt.graph.NewSyncObject("barrier:"+name, false)},
		cur:  &barrierGen{gate: make(chan struct{})},
	}
}

// Name returns the barrier's name.
func (b *Barrier) Name() string { return b.name }

// Wait blocks until n threads arrive, then releases them all.
func (b *Barrier) Wait(t *Thread) {
	sub := t.release(&b.p)

	b.mu.Lock()
	gen := b.cur
	if sub != nil {
		gen.releases = append(gen.releases, sub.ID)
	}
	gen.count++
	if gen.count == b.n {
		b.cur = &barrierGen{gate: make(chan struct{})}
		close(gen.gate)
	}
	b.mu.Unlock()

	<-gen.gate

	// Departure: an acquire synchronizing with the whole generation, not
	// with the object's last releaser.
	b.p.vt.Acquire(t.clk)
	if t.rec != nil {
		t.rec.MergeAcquire(b.p.obj)
		for _, from := range gen.releases {
			if from.Thread != t.slot {
				t.rec.AddScheduleEdge(from, b.p.obj.Ref())
			}
		}
		t.charge(CatThreading, vtime.Cycles(t.rt.opts.MaxThreads)*t.rt.model.VectorClockPerSlot)
	}
}

// Semaphore is the sem_t replacement: Post is a release, Wait an acquire.
type Semaphore struct {
	name string
	ch   chan struct{}
	p    syncPoint
}

// NewSemaphore creates a counting semaphore with the given initial value.
func (rt *Runtime) NewSemaphore(name string, initial int) *Semaphore {
	s := &Semaphore{
		name: name,
		ch:   make(chan struct{}, 1<<20),
		p:    syncPoint{obj: rt.graph.NewSyncObject("sem:"+name, true)},
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
	t.release(&s.p)
	s.ch <- struct{}{}
}

// Wait decrements the semaphore, blocking at zero (acquire).
func (s *Semaphore) Wait(t *Thread) { t.acquire(&s.p, func() { <-s.ch }) }

// Cond is the pthread_cond replacement, always used with a Mutex held.
type Cond struct {
	name string
	m    *Mutex
	c    *sync.Cond
	p    syncPoint
}

// NewCond creates a condition variable tied to m.
func (rt *Runtime) NewCond(name string, m *Mutex) *Cond {
	return &Cond{
		name: name,
		m:    m,
		c:    sync.NewCond(&m.mu),
		p:    syncPoint{obj: rt.graph.NewSyncObject("cond:"+name, true)},
	}
}

// Name returns the condition variable's name.
func (c *Cond) Name() string { return c.name }

// Wait atomically releases the mutex and blocks until signalled, then
// re-acquires the mutex: release(m); ...; acquire(c); acquire(m).
func (c *Cond) Wait(t *Thread) {
	t.release(&c.m.p)
	c.c.Wait() // releases m.mu while blocked, re-acquires on wake
	t.acquired(&c.p)
	// The mutex comes back inside the wait, without a boundary of its own:
	// it merges clocks but adds no schedule edge.
	c.m.p.vt.Acquire(t.clk)
	if t.rec != nil {
		t.rec.MergeAcquire(c.m.p.obj)
	}
}

// Signal wakes one waiter (release on the condition object). POSIX allows
// signalling with or without the mutex held; the provenance semantics are
// the same.
func (c *Cond) Signal(t *Thread) {
	t.release(&c.p)
	c.c.Signal()
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast(t *Thread) {
	t.release(&c.p)
	c.c.Broadcast()
}
