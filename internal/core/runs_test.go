package core

import (
	"slices"
	"testing"
)

// TestRunsAreNeverRewritten: runs allocated from one runs value are
// zero when taken and keep their elements while later runs are
// allocated, across chunks, and each run is cap-limited, so appending
// to one copies it.
func TestRunsAreNeverRewritten(t *testing.T) {
	var r runs[int]
	var taken [][]int
	var want [][]int
	next := 0
	for i := range 400 {
		run := r.alloc(i % 7)
		for k := range run {
			if run[k] != 0 {
				t.Fatalf("alloc(%d) element %d = %d, want zero", i%7, k, run[k])
			}
			run[k] = next
			next++
		}
		if cap(run) != len(run) {
			t.Fatalf("run %d: cap %d, len %d", i, cap(run), len(run))
		}
		if len(run) > 0 {
			_ = append(run, -1)
		}
		taken, want = append(taken, run), append(want, slices.Clone(run))
	}
	for i := range taken {
		if !slices.Equal(taken[i], want[i]) {
			t.Fatalf("run %d rewritten: %v, want %v", i, taken[i], want[i])
		}
	}
}
