package mem

import (
	"math/bits"
	"sort"
)

// Space is one process's private view of the shared backings — the
// simulated equivalent of a forked process's address space in the
// threads-as-processes design (§V-A). A Space is owned by exactly one
// simulated thread; only the shared Backing layer is synchronized.
//
// Life cycle per sub-computation:
//
//  1. Every page starts at PROT_NONE (the paper's mprotect(PROT_NONE) at
//     the start of each sub-computation): Commit forgets every page.
//  2. Accesses fault on first read / first write per page; the FaultHandler
//     records the access, then the Space upgrades protection. First write
//     also materializes a private copy-on-write page plus a twin snapshot.
//  3. Commit: dirty pages diff against their twins and publish to the
//     shared backing; private copies drop so the next sub-computation
//     observes other threads' committed writes (Release Consistency).
//
// Because every tracked access funnels through here, the lookup path is
// engineered flat: page ids derive by shift (uniform page size), a one-entry
// cache short-circuits consecutive accesses to the same page (the
// overwhelmingly common pattern), backings resolve by binary search over a
// base-sorted slice, and Commit recycles page buffers and spacePage structs
// through a free list instead of re-allocating ~2 pages per first write.
type Space struct {
	pid      int32
	pageSize int
	// pageShift/pageMask replace div/mod on every access; valid only when
	// uniform (all backings share one page size — the runtime always
	// configures them that way, but nothing in the API forces it).
	pageShift uint
	pageMask  uint64
	uniform   bool
	backings  []*Backing // sorted by base address
	handler   FaultHandler
	tracking  bool

	pages map[PageID]*spacePage

	// One-entry page cache: the last page resolved by pageFor. lastSP is
	// nil whenever the cache is invalid (startup and after Commit).
	lastID PageID
	lastSP *spacePage
	// lastB caches the last backing resolved, serving both the
	// non-tracking access path and page materialization.
	lastB *Backing

	pool pagePool

	stats SpaceStats
}

// spacePage is the per-process state of one page.
type spacePage struct {
	backing *Backing
	prot    Prot
	priv    []byte // private CoW copy; nil until first write
	twin    []byte // snapshot at first write, for diffing
}

// pagePool recycles page buffers and spacePage structs between
// sub-computations. A Space is single-owner, so plain free lists beat
// sync.Pool (no atomics); the lists are bounded by the peak per-sub
// working set. Recycled buffers are fully overwritten before reuse
// (SnapshotPage writes every byte), which TestPoolRecycledTwinNoLeak pins.
type pagePool struct {
	bufs  [][]byte
	metas []*spacePage
}

// getBuf returns a recycled page buffer or allocates a fresh one.
func (p *pagePool) getBuf(size int) []byte {
	if n := len(p.bufs); n > 0 {
		b := p.bufs[n-1]
		p.bufs[n-1] = nil
		p.bufs = p.bufs[:n-1]
		if len(b) == size {
			return b
		}
	}
	return make([]byte, size)
}

// putBuf returns a page buffer to the free list.
func (p *pagePool) putBuf(b []byte) {
	if b != nil {
		p.bufs = append(p.bufs, b)
	}
}

// getMeta returns a recycled (zeroed) spacePage or a fresh one.
func (p *pagePool) getMeta() *spacePage {
	if n := len(p.metas); n > 0 {
		sp := p.metas[n-1]
		p.metas[n-1] = nil
		p.metas = p.metas[:n-1]
		return sp
	}
	return new(spacePage)
}

// putMeta clears and recycles a spacePage.
func (p *pagePool) putMeta(sp *spacePage) {
	*sp = spacePage{}
	p.metas = append(p.metas, sp)
}

// SpaceStats counts the events the evaluation tables report.
type SpaceStats struct {
	// ReadFaults and WriteFaults are protection faults taken (Table 7).
	ReadFaults  uint64
	WriteFaults uint64
	// TwinCopies counts pages duplicated for diffing.
	TwinCopies uint64
	// CommittedPages and CommittedBytes measure shared-memory commits.
	CommittedPages uint64
	CommittedBytes uint64
	// DiffedBytes counts bytes compared during diffing.
	DiffedBytes uint64
	// Reads/Writes count tracked accesses (not faults).
	Reads  uint64
	Writes uint64
}

// Faults returns total protection faults.
func (s SpaceStats) Faults() uint64 { return s.ReadFaults + s.WriteFaults }

// NewSpace creates a process view over the given backings. If tracking is
// false the space is a native view: no protection checks, writes go
// straight to the shared backing (the pthreads baseline).
func NewSpace(pid int32, backings []*Backing, handler FaultHandler, tracking bool) *Space {
	ps := DefaultPageSize
	if len(backings) > 0 {
		ps = backings[0].PageSize()
	}
	sorted := make([]*Backing, len(backings))
	copy(sorted, backings)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].base < sorted[j].base })
	uniform := true
	for _, b := range sorted {
		if b.PageSize() != ps {
			uniform = false
			break
		}
	}
	return &Space{
		pid:       pid,
		pageSize:  ps,
		pageShift: uint(bits.TrailingZeros(uint(ps))),
		pageMask:  uint64(ps) - 1,
		uniform:   uniform,
		backings:  sorted,
		handler:   handler,
		tracking:  tracking,
		pages:     make(map[PageID]*spacePage),
	}
}

// PID returns the owning process id.
func (s *Space) PID() int32 { return s.pid }

// Tracking reports whether the space enforces protection (INSPECTOR mode).
func (s *Space) Tracking() bool { return s.tracking }

// Stats returns a copy of the per-space counters.
func (s *Space) Stats() SpaceStats { return s.stats }

// PageSize returns the page size.
func (s *Space) PageSize() int { return s.pageSize }

// backingFor locates the backing containing a, or nil. The last resolved
// backing is checked first; misses binary-search the base-sorted slice.
func (s *Space) backingFor(a Addr) *Backing {
	if b := s.lastB; b != nil && b.Contains(a) {
		return b
	}
	// First backing with base+size > a; it contains a iff base <= a.
	lo, hi := 0, len(s.backings)
	for lo < hi {
		mid := (lo + hi) / 2
		b := s.backings[mid]
		if uint64(a) < uint64(b.base)+uint64(b.size) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(s.backings) && s.backings[lo].base <= a {
		s.lastB = s.backings[lo]
		return s.backings[lo]
	}
	return nil
}

// pageFor returns (materializing if needed) the per-process page state.
// Consecutive accesses to the same page resolve through the one-entry
// cache without touching the map or the backing list.
func (s *Space) pageFor(a Addr) (*spacePage, PageID, error) {
	if s.uniform {
		id := PageID(uint64(a) >> s.pageShift)
		// The bounds check keeps cache hits from reaching past a backing
		// whose size is not a page multiple (its tail page extends beyond
		// the region): such an access must segfault, as the scan path does.
		if sp := s.lastSP; sp != nil && id == s.lastID && sp.backing.Contains(a) {
			return sp, id, nil
		}
		return s.pageForSlow(a, id)
	}
	b := s.backingFor(a)
	if b == nil {
		return nil, 0, &SegfaultError{Addr: a, Kind: AccessRead}
	}
	return s.pageLookup(b, b.PageOf(a))
}

// pageForSlow handles a one-entry-cache miss on the uniform-page-size path.
func (s *Space) pageForSlow(a Addr, id PageID) (*spacePage, PageID, error) {
	b := s.backingFor(a)
	if b == nil {
		return nil, 0, &SegfaultError{Addr: a, Kind: AccessRead}
	}
	return s.pageLookup(b, id)
}

// pageLookup finds or materializes the spacePage and refills the cache.
func (s *Space) pageLookup(b *Backing, id PageID) (*spacePage, PageID, error) {
	sp := s.pages[id]
	if sp == nil {
		sp = s.pool.getMeta()
		sp.backing = b
		sp.prot = ProtNone
		s.pages[id] = sp
	}
	s.lastID, s.lastSP = id, sp
	return sp, id, nil
}

// fault delivers a protection fault to the handler and upgrades the page.
func (s *Space) fault(sp *spacePage, id PageID, a Addr, kind AccessKind) {
	f := Fault{Page: id, Addr: a, Kind: kind}
	if kind == AccessRead {
		s.stats.ReadFaults++
	} else {
		s.stats.WriteFaults++
	}
	if s.handler != nil {
		s.handler.OnFault(f)
	}
	switch kind {
	case AccessRead:
		sp.prot |= ProtRead
	case AccessWrite:
		// A write fault makes the page writable; the private copy it
		// materializes is necessarily readable too, so subsequent
		// reads of a written page do not fault again (matching real
		// mprotect upgrades to PROT_READ|PROT_WRITE).
		sp.prot |= ProtRead | ProtWrite
	}
}

// ensurePrivate materializes the CoW copy and twin for a page about to be
// written. Buffers come from the pool; SnapshotPage overwrites every byte
// of the recycled buffer before it is read, so no bytes can leak from a
// previous sub-computation.
func (s *Space) ensurePrivate(sp *spacePage, id PageID) {
	if sp.priv != nil {
		return
	}
	sp.priv = s.pool.getBuf(s.pageSize)
	sp.backing.SnapshotPage(id, sp.priv)
	sp.twin = s.pool.getBuf(s.pageSize)
	copy(sp.twin, sp.priv)
	s.stats.TwinCopies++
}

// Read copies len(dst) bytes from address a into dst, faulting as needed.
func (s *Space) Read(a Addr, dst []byte) error {
	if len(dst) == 0 {
		return nil
	}
	if !s.tracking {
		b := s.backingFor(a)
		if b == nil {
			return &SegfaultError{Addr: a, Kind: AccessRead}
		}
		s.stats.Reads++
		return b.ReadAt(a, dst)
	}
	s.stats.Reads++
	off := 0
	for off < len(dst) {
		cur := a + Addr(off)
		sp, id, err := s.pageFor(cur)
		if err != nil {
			return err
		}
		if sp.prot&ProtRead == 0 {
			s.fault(sp, id, cur, AccessRead)
		}
		po := int(uint64(cur) & s.pageMask)
		if !s.uniform {
			po = int(uint64(cur) % uint64(s.pageSize))
		}
		n := s.pageSize - po
		if n > len(dst)-off {
			n = len(dst) - off
		}
		if sp.priv != nil {
			copy(dst[off:off+n], sp.priv[po:po+n])
		} else if err := sp.backing.ReadAt(cur, dst[off:off+n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// Write stores src at address a, faulting and copying-on-write as needed.
// In native (non-tracking) mode it returns the false-sharing conflict
// count so the caller can charge the coherence penalty.
func (s *Space) Write(a Addr, src []byte) (conflicts int, err error) {
	if len(src) == 0 {
		return 0, nil
	}
	if !s.tracking {
		b := s.backingFor(a)
		if b == nil {
			return 0, &SegfaultError{Addr: a, Kind: AccessWrite}
		}
		s.stats.Writes++
		return b.WriteAt(a, src, s.pid)
	}
	s.stats.Writes++
	off := 0
	for off < len(src) {
		cur := a + Addr(off)
		sp, id, err := s.pageFor(cur)
		if err != nil {
			return 0, err
		}
		if sp.prot&ProtWrite == 0 {
			s.fault(sp, id, cur, AccessWrite)
		}
		s.ensurePrivate(sp, id)
		po := int(uint64(cur) & s.pageMask)
		if !s.uniform {
			po = int(uint64(cur) % uint64(s.pageSize))
		}
		n := s.pageSize - po
		if n > len(src)-off {
			n = len(src) - off
		}
		copy(sp.priv[po:po+n], src[off:off+n])
		off += n
	}
	return 0, nil
}

// CommitResult reports the work done by one shared-memory commit; the
// threading library converts it into virtual-time charges.
type CommitResult struct {
	DirtyPages     int
	DiffedBytes    int
	CommittedBytes int
}

// Commit diffs every dirty page against its twin, publishes the changes to
// the shared backing (last-writer-wins), and drops all private copies and
// protections so the next sub-computation starts cold and observes other
// threads' commits. This is the synchronization-point step of §V-A.
// Dropped page buffers and page records return to the pool for the next
// sub-computation's first writes.
func (s *Space) Commit() CommitResult {
	var res CommitResult
	if !s.tracking {
		return res
	}
	for id, sp := range s.pages {
		if sp.priv != nil {
			ranges := Diff(sp.priv, sp.twin, 8)
			res.DiffedBytes += s.pageSize
			if n := DiffBytes(ranges); n > 0 {
				sp.backing.ApplyDiff(id, sp.priv, ranges)
				res.DirtyPages++
				res.CommittedBytes += n
			}
			s.pool.putBuf(sp.priv)
			s.pool.putBuf(sp.twin)
		}
		s.pool.putMeta(sp)
	}
	clear(s.pages)
	s.lastSP = nil
	s.stats.CommittedPages += uint64(res.DirtyPages)
	s.stats.CommittedBytes += uint64(res.CommittedBytes)
	s.stats.DiffedBytes += uint64(res.DiffedBytes)
	return res
}

// TrackedPages returns the number of pages this space currently tracks.
func (s *Space) TrackedPages() int { return len(s.pages) }

// ProtOf returns the current protection of the page containing a, for
// tests and debugging. Unknown pages report ProtNone.
func (s *Space) ProtOf(a Addr) Prot {
	b := s.backingFor(a)
	if b == nil {
		return ProtNone
	}
	if sp := s.pages[b.PageOf(a)]; sp != nil {
		return sp.prot
	}
	return ProtNone
}
