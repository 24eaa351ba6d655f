// Package intern provides a concurrency-safe string intern table: a
// bijection between strings and dense uint32 ids in first-intern order.
// It is a leaf utility with no provenance semantics, shared by the CPG
// core (symbol table for branch sites and sync-object names) and the
// program image (label → SiteID table) without making either depend on
// the other.
package intern

import (
	"math"
	"sync"
	"sync/atomic"
)

// Interner is the intern table. Intern order — and therefore the numeric
// value of an id — may differ between runs of a multithreaded program;
// callers must not let ids leak into serialized artifacts.
type Interner struct {
	mu   sync.RWMutex
	strs []string
	ids  map[string]uint32
	// n publishes len(strs), so Len takes no lock.
	n atomic.Int64
}

// New returns an empty interner.
func New() *Interner {
	return &Interner{ids: make(map[string]uint32)}
}

// Intern returns s's id, assigning the next dense id on first use.
func (in *Interner) Intern(s string) uint32 {
	in.mu.RLock()
	id, ok := in.ids[s]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[s]; ok {
		return id
	}
	id = uint32(len(in.strs))
	in.strs = append(in.strs, s)
	in.ids[s] = id
	in.n.Store(int64(len(in.strs)))
	return id
}

// Find returns s's id without interning it.
func (in *Interner) Find(s string) (uint32, bool) {
	in.mu.RLock()
	id, ok := in.ids[s]
	in.mu.RUnlock()
	return id, ok
}

// Name returns the string for id, or "" if id was never assigned.
func (in *Interner) Name(id uint32) string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if int(id) >= len(in.strs) {
		return ""
	}
	return in.strs[id]
}

// Len returns the number of interned strings.
func (in *Interner) Len() int { return int(in.n.Load()) }

// View returns the first n table entries (fewer if the table is
// shorter) as a read-only view of the table itself, without a copy: the
// table only ever appends, beyond every view's capacity, so a view never
// changes and reading it takes no lock. The caller must not write it.
func (in *Interner) View(n int) []string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	n = min(n, len(in.strs))
	return in.strs[:n:n]
}

// Snapshot returns a copy of the table in id order.
func (in *Interner) Snapshot() []string { return in.Prefix(math.MaxInt) }

// Prefix returns a copy of the first n table entries (fewer if the
// table is shorter), in id order.
func (in *Interner) Prefix(n int) []string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	out := make([]string, min(n, len(in.strs)))
	copy(out, in.strs)
	return out
}
