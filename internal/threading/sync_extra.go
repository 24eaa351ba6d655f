package threading

import (
	"sync"

	"github.com/repro/inspector/internal/core"
)

// RWMutex is the pthread_rwlock replacement. Writers are acquire+release
// like a mutex; readers are acquires of the last writer's release (so a
// reader's sub-computation happens-after the write it observes) and
// their own unlocks do not publish new causality to later readers.
type RWMutex struct {
	name string
	mu   sync.RWMutex
	p    syncPoint
}

// NewRWMutex creates a named reader/writer lock.
func (rt *Runtime) NewRWMutex(name string) *RWMutex {
	return &RWMutex{name: name, p: syncPoint{obj: rt.graph.NewSyncObject("rwlock:"+name, false)}}
}

// Name returns the lock's name.
func (rw *RWMutex) Name() string { return rw.name }

// Lock acquires the lock exclusively (write side).
func (rw *RWMutex) Lock(t *Thread) { t.acquire(&rw.p, rw.mu.Lock) }

// Unlock releases the exclusive lock.
func (rw *RWMutex) Unlock(t *Thread) {
	t.release(&rw.p)
	rw.mu.Unlock()
}

// RLock acquires the lock shared (read side): an acquire with no release
// publication.
func (rw *RWMutex) RLock(t *Thread) { t.acquire(&rw.p, rw.mu.RLock) }

// RUnlock releases the shared lock. Readers still commit their
// sub-computation (they may have written private data elsewhere), but do
// not publish causality into the lock object.
func (rw *RWMutex) RUnlock(t *Thread) {
	t.syncBoundary(core.SyncEvent{Kind: core.SyncRelease, Object: rw.p.obj.Ref()})
	rw.p.vt.Release(t.clk.Now())
	rw.mu.RUnlock()
}

// TryLock attempts the mutex without blocking — pthread_mutex_trylock.
// On success it has full acquire semantics; on failure no sub-computation
// boundary is created (the thread continues uninterrupted, as the real
// library's trylock shim does when EBUSY comes back).
func (m *Mutex) TryLock(t *Thread) bool {
	if !m.mu.TryLock() {
		t.charge(CatApp, t.rt.model.SyncOp)
		return false
	}
	// Locked: the sub-computation split happens after the successful CAS,
	// which is safe because no blocking occurred.
	t.acquire(&m.p, nil)
	return true
}

// Once is the pthread_once replacement: the winner's initialization
// happens-before every other caller's return.
type Once struct {
	name string
	mu   sync.Mutex
	done bool
	p    syncPoint
}

// NewOnce creates a named once-control.
func (rt *Runtime) NewOnce(name string) *Once {
	return &Once{name: name, p: syncPoint{obj: rt.graph.NewSyncObject("once:"+name, false)}}
}

// Do runs fn exactly once across all threads; every caller synchronizes
// with the initializer's completion.
func (o *Once) Do(t *Thread, fn func(*Thread)) {
	t.acquire(&o.p, func() {
		o.mu.Lock()
		if !o.done {
			fn(t)
			o.done = true
			if t.rec != nil {
				t.release(&o.p)
			} else {
				// Native pthread_once pays one sync op per call, so the
				// initializer's release is free.
				o.p.vt.Release(t.clk.Now())
			}
		}
		o.mu.Unlock()
	})
}
