package core

import "sort"

// PageSetMap is the reference page-set representation: the plain
// map[uint64]struct{} the pre-columnar core used. The hot paths use the
// hybrid PageSet; the map form is retained as the executable
// specification, and property tests (pageset_test.go) drive both through
// random operation sequences asserting they never diverge — the same
// convention internal/mem keeps for diffReference and internal/image for
// EdgeMap.
type PageSetMap map[uint64]struct{}

// NewPageSetMap returns an empty reference set.
func NewPageSetMap() PageSetMap { return make(PageSetMap) }

// Add inserts page p.
func (s PageSetMap) Add(p uint64) { s[p] = struct{}{} }

// Contains reports membership.
func (s PageSetMap) Contains(p uint64) bool {
	_, ok := s[p]
	return ok
}

// Len returns the set size.
func (s PageSetMap) Len() int { return len(s) }

// Intersect returns the pages present in both sets, ascending.
func (s PageSetMap) Intersect(other PageSetMap) []uint64 {
	small, large := s, other
	if len(other) < len(s) {
		small, large = other, s
	}
	var out []uint64
	for p := range small {
		if large.Contains(p) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Intersects reports whether the sets share any page.
func (s PageSetMap) Intersects(other PageSetMap) bool {
	small, large := s, other
	if len(other) < len(s) {
		small, large = other, s
	}
	for p := range small {
		if large.Contains(p) {
			return true
		}
	}
	return false
}

// Sorted returns the pages in ascending order.
func (s PageSetMap) Sorted() []uint64 {
	out := make([]uint64, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns an independent copy.
func (s PageSetMap) Clone() PageSetMap {
	out := make(PageSetMap, len(s))
	for p := range s {
		out[p] = struct{}{}
	}
	return out
}
