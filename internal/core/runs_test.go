package core

import (
	"slices"
	"testing"
)

// TestRunsAreNeverRewritten: runs taken from one runs value keep their
// elements while later runs are added, moved across chunks and
// allocated, and each run is cap-limited, so appending to one copies it.
func TestRunsAreNeverRewritten(t *testing.T) {
	var r runs[int]
	var taken [][]int
	var want [][]int
	next := 0
	for i := range 400 {
		var run []int
		if i%3 == 0 {
			run = r.alloc(i % 7)
			for k := range run {
				if run[k] != 0 {
					t.Fatalf("alloc(%d) element %d = %d, want zero", i%7, k, run[k])
				}
				run[k] = next
				next++
			}
		} else {
			for range i % 5 {
				r.add(next)
				next++
			}
			run = r.take()
		}
		if len(run) == 0 {
			if run != nil {
				t.Fatalf("run %d: empty but not nil", i)
			}
			continue
		}
		if cap(run) != len(run) {
			t.Fatalf("run %d: cap %d, len %d", i, cap(run), len(run))
		}
		taken, want = append(taken, run), append(want, slices.Clone(run))
	}
	for i := range taken {
		if !slices.Equal(taken[i], want[i]) {
			t.Fatalf("run %d rewritten: %v, want %v", i, taken[i], want[i])
		}
	}
}
