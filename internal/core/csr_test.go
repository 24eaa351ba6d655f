package core

import (
	"slices"
	"testing"
)

// TestAppendMergedLeavesInputsAlone is the regression test for the k-way
// merge this kernel replaced, which compacted and advanced its callers'
// sequences in place: a caller that keeps what it passes (a layer, the
// sealed base) must find it unchanged, and ties go to the first operand.
func TestAppendMergedLeavesInputsAlone(t *testing.T) {
	at := func(alpha uint64) Edge {
		return Edge{From: SubID{Alpha: alpha}, To: SubID{Thread: 1, Alpha: alpha}, Kind: EdgeSync}
	}
	ar := arenaPair{sync: []Edge{at(0), at(2), at(4), at(1), at(2), at(5)}}
	a, b := []edgeRef{0, 1, 2}, []edgeRef{3, 4, 5}
	got := ar.appendMerged(nil, a, b)
	if want := []edgeRef{0, 3, 1, 4, 2, 5}; !slices.Equal(got, want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
	if !slices.Equal(a, []edgeRef{0, 1, 2}) || !slices.Equal(b, []edgeRef{3, 4, 5}) {
		t.Fatalf("merge rewrote its inputs: %v %v", a, b)
	}
}
