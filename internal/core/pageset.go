package core

import (
	"encoding/binary"
	"slices"

	"github.com/repro/inspector/internal/wire"
)

// pageSetInline is the number of pages a PageSet holds without allocating.
// Synchronization-heavy executions produce mostly small read/write sets
// (a few pages touched between two sync calls); those now cost zero
// allocations and fit in the SubComputation itself.
const pageSetInline = 6

// PageSet is a set of page IDs — the representation of a sub-computation's
// read set (Lt[α].R) and write set (Lt[α].W). INSPECTOR tracks data flow
// at memory-page granularity (§V-A): per-word tracking would require
// instrumenting every load/store, which the paper rejects as "extremely
// inefficient with current hardware".
//
// The representation is a small-inline-array → sorted-slice hybrid: up to
// pageSetInline pages live in a fixed array inside the struct, and larger
// sets spill to one sorted slice. Both forms are kept in ascending order,
// so membership is a short scan or binary search, set iteration is already
// sorted (DataEdges consumes it directly), and serialization is canonical
// — unlike the map reference form the property tests compare against
// (PageSetMap, pagesetmap_test.go), whose iteration order is randomized.
//
// Inserting out of ascending order into a spilled set pays a memmove, so
// a sub-computation touching k pages in random order costs O(k²/2) word
// moves in the worst case (ascending order — sequential scans — is O(1)
// per insert). The page-granularity design bounds k: the largest set any
// of the twelve workloads records at the large input size is 513 pages
// (pca), ≈ 1 MB of moves per sub-computation. If future workloads record
// tens of thousands of pages between sync points, give the spill an
// unsorted insertion tail consolidated at EndSub rather than reverting
// to the map.
//
// A PageSet is a value with interior pointers once spilled: copy it with
// Clone, not by assignment, if the copy will be mutated.
type PageSet struct {
	n      int
	inline [pageSetInline]uint64
	spill  []uint64
}

// NewPageSet returns an empty set.
func NewPageSet() PageSet { return PageSet{} }

// view returns the set's pages in ascending order, aliasing the
// underlying storage. Callers must not mutate the set while holding it.
func (s *PageSet) view() []uint64 {
	if s.spill != nil {
		return s.spill
	}
	return s.inline[:s.n]
}

// Add inserts page p.
func (s *PageSet) Add(p uint64) {
	if s.spill == nil {
		i := 0
		for i < s.n && s.inline[i] < p {
			i++
		}
		if i < s.n && s.inline[i] == p {
			return
		}
		if s.n < pageSetInline {
			copy(s.inline[i+1:s.n+1], s.inline[i:s.n])
			s.inline[i] = p
			s.n++
			return
		}
		// Spill: move the inline pages (and p, in order) to a slice.
		sp := make([]uint64, 0, 4*pageSetInline)
		sp = append(sp, s.inline[:i]...)
		sp = append(sp, p)
		sp = append(sp, s.inline[i:]...)
		s.spill = sp
		s.n++
		return
	}
	// Ascending-append fast path: sequential scans (the dominant access
	// pattern of the paper's workloads) touch pages in increasing order,
	// so the common insert is O(1).
	if p > s.spill[len(s.spill)-1] {
		s.spill = append(s.spill, p)
		s.n++
		return
	}
	i, found := slices.BinarySearch(s.spill, p)
	if found {
		return
	}
	s.spill = slices.Insert(s.spill, i, p)
	s.n++
}

// Contains reports membership.
func (s PageSet) Contains(p uint64) bool {
	if s.spill == nil {
		for i := 0; i < s.n; i++ {
			if s.inline[i] == p {
				return true
			}
			if s.inline[i] > p {
				return false
			}
		}
		return false
	}
	_, found := slices.BinarySearch(s.spill, p)
	return found
}

// Len returns the set size.
func (s PageSet) Len() int { return s.n }

// Intersect returns the pages present in both sets, ascending.
func (s PageSet) Intersect(other PageSet) []uint64 {
	a, b := s.view(), other.view()
	var out []uint64
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] == b[0]:
			out = append(out, a[0])
			a, b = a[1:], b[1:]
		case a[0] < b[0]:
			a = a[1:]
		default:
			b = b[1:]
		}
	}
	return out
}

// Intersects reports whether the sets share any page.
func (s PageSet) Intersects(other PageSet) bool {
	a, b := s.view(), other.view()
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] == b[0]:
			return true
		case a[0] < b[0]:
			a = a[1:]
		default:
			b = b[1:]
		}
	}
	return false
}

// Sorted returns the pages in ascending order as an independent slice,
// never nil (the JSON form relies on empty sets rendering as []).
func (s PageSet) Sorted() []uint64 {
	out := make([]uint64, 0, s.n)
	return append(out, s.view()...)
}

// Clone returns an independent copy.
func (s PageSet) Clone() PageSet {
	out := s
	if s.spill != nil {
		out.spill = append([]uint64(nil), s.spill...)
	}
	return out
}

// pageSetFromSorted builds a set from pages already in strictly ascending
// order (deserialization fast path).
func pageSetFromSorted(pages []uint64) PageSet {
	var s PageSet
	s.n = len(pages)
	if len(pages) <= pageSetInline {
		copy(s.inline[:], pages)
		return s
	}
	s.spill = append([]uint64(nil), pages...)
	return s
}

// AppendPages appends a strictly ascending page list in the one
// canonical form every serialization of a page set shares (the .cpg
// sections, epoch-delta records): a uvarint count, the first page as a
// uvarint, then the strictly positive uvarint deltas between
// consecutive pages.
func AppendPages(b []byte, pages []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(pages)))
	prev := uint64(0)
	for _, p := range pages {
		b = binary.AppendUvarint(b, p-prev)
		prev = p
	}
	return b
}

// ParsePages reads one AppendPages list at the cursor, appending the
// pages to dst (fresh memory when dst is nil; an empty list leaves dst
// as it was, nil stays nil). It follows the field codecs' rules
// (fieldcodec.go): the count is checked against the bytes that remain
// — every page costs at least one — before dst grows by it, and a zero
// delta or an overflowing one fails the cursor under field.
func ParsePages(c *wire.Cursor, field string, dst []uint64) []uint64 {
	n := c.Count(field, 1)
	dst = slices.Grow(dst, n)
	prev := uint64(0)
	for i := 0; i < n; i++ {
		d := c.Uvarint(field)
		switch {
		case c.Err() != nil:
			return nil
		case i > 0 && d == 0:
			c.Fail(field, "zero page delta (pages not strictly ascending)")
			return nil
		case prev+d < prev:
			c.Fail(field, "page delta overflow")
			return nil
		}
		prev += d
		dst = append(dst, prev)
	}
	return dst
}

// AppendPageSet appends s in the AppendPages form without copying its
// pages out first: the .cpg read/write-set columns and the delta records
// both write vertex page sets through it.
func AppendPageSet(b []byte, s *PageSet) []byte { return AppendPages(b, s.view()) }

// ParsePageSet reads one page list into a set that owns its storage:
// inline up to pageSetInline pages (no allocation), spilled beyond.
func ParsePageSet(c *wire.Cursor, field string) PageSet {
	var scratch [pageSetInline]uint64
	return pageSetFromSorted(ParsePages(c, field, scratch[:0]))
}
