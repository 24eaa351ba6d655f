package mem

import (
	"fmt"
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
//     also materializes a private copy-on-write page (the page's snapshot)
//     and an empty word-logged twin.
//  3. Each store logs the words it is the first to write: their snapshot
//     values go into the twin and their bits into the page's written-word
//     bitmap, before the store lands in the private copy.
//  4. Commit: the logged words of every private page compare against their
//     twin values and the changed ranges publish to the shared backing;
//     private copies drop so the next sub-computation observes other
//     threads' committed writes (Release Consistency).
//
// Because every tracked access funnels through here, the lookup path is
// engineered flat: page ids derive by shift (one page size), a one-entry
// cache short-circuits consecutive accesses to the same page (the
// overwhelmingly common pattern), backings resolve by binary search over a
// base-sorted slice, and Commit recycles page buffers and spacePage structs
// through a free list instead of re-allocating ~2 pages per first write.
// Commit walks only the pages this sub-computation touched, so its cost
// follows the sub-computation, not the widest one before it.
type Space struct {
	pid int32
	// pageSize is every backing's page size (NewSpace refuses mixed
	// sizes); pageShift/pageMask replace div/mod on every access.
	pageSize  int
	pageShift uint
	pageMask  uint64
	backings  []*Backing // sorted by base address
	handler   FaultHandler
	tracking  bool

	pages map[PageID]*spacePage
	// touched lists the keys of pages in insertion order; Commit walks it
	// and deletes each key rather than ranging over (and clearing) a map
	// whose capacity is that of the widest sub-computation so far.
	touched []PageID
	// ranges is Commit's reused scratch for one page's changed ranges.
	ranges []DiffRange

	// One-entry page cache: the last page resolved by pageFor. lastSP is
	// nil whenever the cache is invalid (startup and after Commit).
	lastID PageID
	lastSP *spacePage
	// lastB caches the last backing resolved, serving both the
	// non-tracking access path and page materialization.
	lastB *Backing

	pool pagePool

	stats SpaceStats

	// A runtime allocates its threads' spaces back to back, and each
	// thread bumps its stats on every access while reading its page-size
	// fields: a space that shared a cache line with the next one
	// false-shared on every tracked access. The padding rounds the struct
	// up to five whole lines.
	_ [320 - 272]byte
}

// spacePage is the per-process state of one page.
type spacePage struct {
	backing *Backing
	prot    Prot
	priv    []byte // private CoW copy; nil until first write
	// twin holds the snapshot value of each logged word at its offset;
	// every other word of it is stale and is never read.
	twin []byte
	// logged has one bit per 8-byte word of the page, set by the first
	// store to that word. It is all zero whenever priv is nil, and it
	// stays with the record through the pool.
	logged []uint64
}

// pagePool recycles page buffers and spacePage structs between
// sub-computations. A Space is single-owner, so plain free lists beat
// sync.Pool (no atomics); the lists are bounded by the peak per-sub
// working set. A recycled private buffer is fully overwritten before reuse
// (SnapshotPage writes every byte); a recycled twin is not, and is read
// only at logged words, each written by the store that logged it. Both
// rules are pinned by TestPoolRecycledTwinNoLeak.
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

// putMeta clears and recycles a spacePage, keeping its (zeroed) bitmap.
func (p *pagePool) putMeta(sp *spacePage) {
	logged := sp.logged
	clear(logged)
	*sp = spacePage{logged: logged}
	p.metas = append(p.metas, sp)
}

// SpaceStats counts the events the evaluation tables report.
type SpaceStats struct {
	// ReadFaults and WriteFaults are protection faults taken (Table 7).
	ReadFaults  uint64
	WriteFaults uint64
	// TwinCopies counts pages given a twin: one per first write to a page
	// in a sub-computation. The cost model charges a full-page copy for
	// each, whatever share of the page the host actually logs.
	TwinCopies uint64
	// CommittedPages and CommittedBytes measure shared-memory commits.
	CommittedPages uint64
	CommittedBytes uint64
	// DiffedBytes counts bytes diffed at commits: a full page per private
	// page, as the cost model charges, though only logged words compare.
	DiffedBytes uint64
	// Reads/Writes count tracked accesses (not faults).
	Reads  uint64
	Writes uint64
}

// Faults returns total protection faults.
func (s SpaceStats) Faults() uint64 { return s.ReadFaults + s.WriteFaults }

// NewSpace creates a process view over the given backings. If tracking is
// false the space is a native view: no protection checks, writes go
// straight to the shared backing (the pthreads baseline). All backings
// must share one page size: page ids and in-page offsets derive from it,
// and backings of two sizes could map two pages to one id. NewSpace
// panics otherwise.
func NewSpace(pid int32, backings []*Backing, handler FaultHandler, tracking bool) *Space {
	ps := DefaultPageSize
	if len(backings) > 0 {
		ps = backings[0].PageSize()
	}
	sorted := make([]*Backing, len(backings))
	copy(sorted, backings)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].base < sorted[j].base })
	for _, b := range sorted {
		if b.PageSize() != ps {
			panic(fmt.Sprintf("mem: backing %s has page size %d, want %d (one page size per space)",
				b.Name(), b.PageSize(), ps))
		}
	}
	return &Space{
		pid:       pid,
		pageSize:  ps,
		pageShift: uint(bits.TrailingZeros(uint(ps))),
		pageMask:  uint64(ps) - 1,
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
// cache without touching the map or the backing list. kind names the
// access an unmapped address reports.
func (s *Space) pageFor(a Addr, kind AccessKind) (*spacePage, PageID, error) {
	id := PageID(uint64(a) >> s.pageShift)
	// The bounds check keeps cache hits from reaching past a backing
	// whose size is not a page multiple (its tail page extends beyond
	// the region): such an access must segfault, as the scan path does.
	if sp := s.lastSP; sp != nil && id == s.lastID && sp.backing.Contains(a) {
		return sp, id, nil
	}
	return s.pageForSlow(a, id, kind)
}

// pageForSlow handles a one-entry-cache miss.
func (s *Space) pageForSlow(a Addr, id PageID, kind AccessKind) (*spacePage, PageID, error) {
	b := s.backingFor(a)
	if b == nil {
		return nil, 0, &SegfaultError{Addr: a, Kind: kind}
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
		s.touched = append(s.touched, id)
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

// ensurePrivate materializes the CoW copy and the (empty) twin for a page
// about to be written. Buffers come from the pool; SnapshotPage overwrites
// every byte of the recycled private buffer before it is read, and the
// twin is read only at words a store has logged since, so no bytes can
// leak from a previous sub-computation.
func (s *Space) ensurePrivate(sp *spacePage, id PageID) {
	if sp.priv != nil {
		return
	}
	sp.priv = s.pool.getBuf(s.pageSize)
	sp.backing.SnapshotPage(id, sp.priv)
	sp.twin = s.pool.getBuf(s.pageSize)
	// One bit per 8-byte word: pageSize/512 uint64s, at least one.
	if words := (s.pageSize + 511) >> 9; len(sp.logged) != words {
		sp.logged = make([]uint64, words)
	}
	s.stats.TwinCopies++
}

// logRange prepares a private page for a store to words w0..w1
// (inclusive): each run of them that no earlier store of this
// sub-computation has logged saves its snapshot value from the private
// page into the twin in one copy, and every bit is set.
func (sp *spacePage) logRange(w0, w1 int) {
	for i := w0 >> 6; i <= w1>>6; i++ {
		mask := ^uint64(0)
		if i == w0>>6 {
			mask <<= uint(w0 & 63)
		}
		if i == w1>>6 {
			mask &= ^uint64(0) >> uint(63-w1&63)
		}
		fresh := mask &^ sp.logged[i]
		sp.logged[i] |= mask
		for fresh != 0 {
			lo := bits.TrailingZeros64(fresh)
			run := bits.TrailingZeros64(^(fresh >> uint(lo)))
			off := (i<<6 + lo) << 3
			copy(sp.twin[off:off+run<<3], sp.priv[off:])
			fresh &^= (^uint64(0) >> uint(64-run)) << uint(lo)
		}
	}
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
		sp, id, err := s.pageFor(cur, AccessRead)
		if err != nil {
			return err
		}
		if sp.prot&ProtRead == 0 {
			s.fault(sp, id, cur, AccessRead)
		}
		po := int(uint64(cur) & s.pageMask)
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
		sp, id, err := s.pageFor(cur, AccessWrite)
		if err != nil {
			return 0, err
		}
		if sp.prot&ProtWrite == 0 {
			s.fault(sp, id, cur, AccessWrite)
		}
		s.ensurePrivate(sp, id)
		po := int(uint64(cur) & s.pageMask)
		n := s.pageSize - po
		if n > len(src)-off {
			n = len(src) - off
		}
		sp.logRange(po>>3, (po+n-1)>>3)
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
// Only logged words are compared, and a logged word that holds its
// snapshot value again (a silent store) is not published, so a commit
// never overwrites another thread's newer value with a stale one.
// Dropped page buffers and page records return to the pool for the next
// sub-computation's first writes.
func (s *Space) Commit() CommitResult {
	var res CommitResult
	if !s.tracking {
		return res
	}
	for _, id := range s.touched {
		sp := s.pages[id]
		delete(s.pages, id)
		if sp.priv != nil {
			s.ranges = loggedDiff(sp.priv, sp.twin, sp.logged, s.ranges[:0])
			res.DiffedBytes += s.pageSize
			if n := DiffBytes(s.ranges); n > 0 {
				sp.backing.ApplyDiff(id, sp.priv, s.ranges)
				res.DirtyPages++
				res.CommittedBytes += n
			}
			s.pool.putBuf(sp.priv)
			s.pool.putBuf(sp.twin)
		}
		s.pool.putMeta(sp)
	}
	s.touched = s.touched[:0]
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
