package mem

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Backing is a shared backing store for one address range — the simulated
// equivalent of the memory-mapped file behind INSPECTOR's globals and heap
// regions (§V-A "shared memory commit"). All processes map the same
// Backing; each process overlays private copy-on-write pages on top of it.
//
// Pages materialize lazily: the region can be declared huge and only the
// touched pages consume memory.
//
// The Backing additionally carries the false-sharing model used to cost
// *native* (pthreads-style) executions: concurrent writes by different
// threads to the same cache line are detected by tracking the last writer
// of each line. INSPECTOR runs do not consult it — private address spaces
// cannot false-share, which is why linear_regression runs faster under
// INSPECTOR than native in the paper (§VII-A, citing Sheriff).
type Backing struct {
	name     string
	base     Addr
	size     int
	pageSize int

	mu    sync.RWMutex
	pages map[PageID][]byte

	// lineOwners tracks the last writing thread per cache line for the
	// false-sharing model. Keyed by line index within the backing.
	lineOwners sync.Map // map[uint64]int32

	// commits counts shared-memory commits applied to this backing.
	commits atomic.Uint64
	// committedBytes counts bytes published by commits.
	committedBytes atomic.Uint64
}

// NewBacking creates a shared backing store covering [base, base+size).
func NewBacking(name string, base Addr, size, pageSize int) (*Backing, error) {
	if !validPageSize(pageSize) {
		return nil, ErrMisalignment
	}
	if size <= 0 || uint64(base)%uint64(pageSize) != 0 {
		return nil, fmt.Errorf("%w: %s base=0x%x size=%d", ErrBadRegion, name, uint64(base), size)
	}
	return &Backing{
		name:     name,
		base:     base,
		size:     size,
		pageSize: pageSize,
		pages:    make(map[PageID][]byte),
	}, nil
}

// Name returns the region name ("globals", "heap", "input", ...).
func (b *Backing) Name() string { return b.name }

// Base returns the first address covered.
func (b *Backing) Base() Addr { return b.base }

// Size returns the number of bytes covered.
func (b *Backing) Size() int { return b.size }

// PageSize returns the page size of the backing.
func (b *Backing) PageSize() int { return b.pageSize }

// Contains reports whether the address falls inside the backing.
func (b *Backing) Contains(a Addr) bool {
	return a >= b.base && uint64(a) < uint64(b.base)+uint64(b.size)
}

// PageOf returns the global page ID containing address a.
func (b *Backing) PageOf(a Addr) PageID {
	return PageID(uint64(a) / uint64(b.pageSize))
}

// pageBase returns the first address of page id.
func (b *Backing) pageBase(id PageID) Addr {
	return Addr(uint64(id) * uint64(b.pageSize))
}

// getPage returns the page data if materialized, else nil. It takes the
// read lock for the lookup only.
func (b *Backing) getPage(id PageID) []byte {
	b.mu.RLock()
	p := b.pages[id]
	b.mu.RUnlock()
	return p
}

// ensurePage materializes (zero-filled) and returns the page data.
func (b *Backing) ensurePage(id PageID) []byte {
	b.mu.Lock()
	p := b.pages[id]
	if p == nil {
		p = make([]byte, b.pageSize)
		b.pages[id] = p
	}
	b.mu.Unlock()
	return p
}

// ReadAt copies len(dst) bytes at address a into dst. Unmaterialized pages
// read as zero. The read must not cross the backing's end.
func (b *Backing) ReadAt(a Addr, dst []byte) error {
	if !b.Contains(a) || uint64(a)+uint64(len(dst)) > uint64(b.base)+uint64(b.size) {
		return &SegfaultError{Addr: a, Kind: AccessRead}
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	off := 0
	for off < len(dst) {
		id := b.PageOf(a + Addr(off))
		po := int(uint64(a+Addr(off)) % uint64(b.pageSize))
		n := b.pageSize - po
		if n > len(dst)-off {
			n = len(dst) - off
		}
		if p := b.pages[id]; p != nil {
			copy(dst[off:off+n], p[po:po+n])
		} else {
			clear(dst[off : off+n])
		}
		off += n
	}
	return nil
}

// WriteAt writes src at address a directly into the shared backing. This is
// the native-execution path (no isolation, no commit). It returns the
// number of false-sharing line conflicts the write incurred for thread tid.
func (b *Backing) WriteAt(a Addr, src []byte, tid int32) (conflicts int, err error) {
	if !b.Contains(a) || uint64(a)+uint64(len(src)) > uint64(b.base)+uint64(b.size) {
		return 0, &SegfaultError{Addr: a, Kind: AccessWrite}
	}
	off := 0
	for off < len(src) {
		cur := a + Addr(off)
		id := b.PageOf(cur)
		po := int(uint64(cur) % uint64(b.pageSize))
		n := b.pageSize - po
		if n > len(src)-off {
			n = len(src) - off
		}
		p := b.getPage(id)
		if p == nil {
			p = b.ensurePage(id)
		}
		b.mu.RLock()
		copy(p[po:po+n], src[off:off+n])
		b.mu.RUnlock()
		conflicts += b.touchLines(cur, n, tid)
		off += n
	}
	return conflicts, nil
}

// touchLines updates cache-line ownership for [a, a+n) and counts
// coherence penalties. A line written by two distinct threads becomes
// *contended* permanently: real falsely-shared lines ping-pong on every
// write once two cores fight over them, and making the state sticky keeps
// the penalty deterministic rather than dependent on the host scheduler's
// interleaving. Contended lines are marked by negating the stored owner.
func (b *Backing) touchLines(a Addr, n int, tid int32) int {
	first := uint64(a) / CacheLineSize
	last := (uint64(a) + uint64(n) - 1) / CacheLineSize
	conflicts := 0
	for line := first; line <= last; line++ {
		prev, loaded := b.lineOwners.Swap(line, tid)
		if !loaded {
			continue
		}
		owner, ok := prev.(int32)
		if !ok {
			continue
		}
		if owner < 0 {
			// Already contended: stay contended, always penalize.
			b.lineOwners.Store(line, int32(-1))
			conflicts++
			continue
		}
		if owner != tid {
			b.lineOwners.Store(line, int32(-1))
			conflicts++
		}
	}
	return conflicts
}

// ApplyDiff publishes changed byte ranges of a page into the shared
// backing under the commit lock — the "deltas are then atomically copied
// to the shared memory page" step of §V-A. Overlapping writes resolve
// last-writer-wins by commit order.
func (b *Backing) ApplyDiff(id PageID, priv []byte, ranges []DiffRange) {
	if len(ranges) == 0 {
		return
	}
	p := b.ensurePage(id)
	b.mu.Lock()
	var bytes int
	for _, r := range ranges {
		copy(p[r.Off:r.Off+r.Len], priv[r.Off:r.Off+r.Len])
		bytes += r.Len
	}
	b.mu.Unlock()
	b.commits.Add(1)
	b.committedBytes.Add(uint64(bytes))
}

// SnapshotPage copies the current shared contents of page id into dst
// (which must be pageSize long). Unmaterialized pages copy as zeros.
// Every byte of dst is overwritten — the page pool's reuse safety relies
// on this. One lock round-trip covers lookup and copy: this runs on every
// first write of a page (private copy materialization), so it stays lean.
func (b *Backing) SnapshotPage(id PageID, dst []byte) {
	b.mu.RLock()
	p := b.pages[id]
	if p != nil {
		copy(dst, p)
	}
	b.mu.RUnlock()
	if p == nil {
		clear(dst)
	}
}

// Stats returns cumulative commit statistics.
func (b *Backing) Stats() BackingStats {
	b.mu.RLock()
	mat := len(b.pages)
	b.mu.RUnlock()
	return BackingStats{
		MaterializedPages: mat,
		Commits:           b.commits.Load(),
		CommittedBytes:    b.committedBytes.Load(),
	}
}

// BackingStats summarizes a backing's activity.
type BackingStats struct {
	MaterializedPages int
	Commits           uint64
	CommittedBytes    uint64
}
