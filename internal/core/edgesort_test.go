package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// byValueSort is the sort sortEdges replaced: pdqsort over the Edge
// values themselves, comparing with edgeCmp.
func byValueSort(edges []Edge) {
	slices.SortFunc(edges, func(a, b Edge) int { return edgeCmp(&a, &b) })
}

// randomEdges draws n edges over threads × alphas ids with a few kinds,
// objects and page lists, so equal (From, To) pairs recur with different
// Kind or Object (and, rarely, as exact duplicates under edgeCmp).
func randomEdges(r *rand.Rand, n, threads int, alphas uint64) []Edge {
	id := func() SubID { return SubID{Thread: r.Intn(threads), Alpha: uint64(r.Int63n(int64(alphas)))} }
	objects := []string{"", "a", "b", "lock"}
	out := make([]Edge, n)
	for i := range out {
		out[i] = Edge{From: id(), To: id(), Kind: EdgeKind(1 + r.Intn(3)), Object: objects[r.Intn(len(objects))]}
		for p := r.Intn(3); p > 0; p-- {
			out[i].Pages = append(out[i].Pages, uint64(r.Intn(64)))
		}
	}
	return out
}

// checkSortsLikeByValue holds sortEdges to the by-value sort: the same
// edge under edgeCmp at every position, and exactly the stable sort's
// output (sortEdges breaks edgeCmp ties by position), page lists
// included. When no two edges tie, that is the by-value sort's output
// exactly.
func checkSortsLikeByValue(t *testing.T, name string, in []Edge, sc *edgeSortScratch) {
	t.Helper()
	old := slices.Clone(in)
	byValueSort(old)
	stable := slices.Clone(in)
	slices.SortStableFunc(stable, func(a, b Edge) int { return edgeCmp(&a, &b) })
	got := slices.Clone(in)
	sortEdges(got, edgeCmp, sc)
	if !reflect.DeepEqual(got, stable) {
		t.Fatalf("%s: key sort differs from the stable by-value sort over %d edges", name, len(in))
	}
	ties := false
	for i := range got {
		if edgeCmp(&got[i], &old[i]) != 0 {
			t.Fatalf("%s: position %d holds %v, by-value sort has %v", name, i, got[i], old[i])
		}
		ties = ties || i > 0 && edgeCmp(&got[i-1], &got[i]) == 0
	}
	if !ties && !reflect.DeepEqual(got, old) {
		t.Fatalf("%s: key sort differs from the by-value sort over %d tie-free edges", name, len(in))
	}
}

func TestSortEdgesMatchesByValueSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var shared edgeSortScratch
	for _, n := range []int{0, 1, 2} {
		for range 20 {
			checkSortsLikeByValue(t, "tiny", randomEdges(r, n, 2, 3), &shared)
		}
	}
	for i := range 300 {
		// Below and above the radix threshold, few and many distinct
		// pairs, a fresh and a reused scratch.
		n := 3 + r.Intn(2*radixSortMin)
		threads, alphas := 1+r.Intn(8), uint64(1+r.Intn(200))
		sc := &shared
		if i%2 == 0 {
			sc = nil
		}
		checkSortsLikeByValue(t, "random", randomEdges(r, n, threads, alphas), sc)
	}

	// One (From, To) pair under every kind and object, shuffled, in a
	// batch large enough to take the radix path.
	same := randomEdges(r, 4*radixSortMin, 3, 40)
	for i := range same {
		if i%3 == 0 {
			same[i].From, same[i].To = SubID{Thread: 1, Alpha: 7}, SubID{Thread: 2, Alpha: 9}
		}
	}
	checkSortsLikeByValue(t, "equal-pairs", same, &shared)

	// Already sorted, and reverse sorted.
	sorted := randomEdges(r, 3*radixSortMin, 4, 1000)
	byValueSort(sorted)
	checkSortsLikeByValue(t, "sorted", sorted, &shared)
	slices.Reverse(sorted)
	checkSortsLikeByValue(t, "reversed", sorted, &shared)

	// Ids past the packing limit: a pair that needs more than 64 bits,
	// extreme alphas and threads, a negative thread. Every comparison
	// then goes to edgeCmp; the order must not change.
	for _, tc := range []struct {
		name  string
		patch func(e *Edge)
	}{
		{"wide-alpha", func(e *Edge) { e.To.Alpha |= 1 << 40 }},
		{"max-alpha", func(e *Edge) { e.From.Alpha = math.MaxUint64 - e.From.Alpha }},
		{"wide-thread", func(e *Edge) { e.From.Thread += 1 << 30 }},
		{"negative-thread", func(e *Edge) { e.To.Thread = -1 - e.To.Thread }},
	} {
		for _, n := range []int{17, 2 * radixSortMin} {
			edges := randomEdges(r, n, 4, 50)
			for i := range edges {
				if i%5 == 0 {
					tc.patch(&edges[i])
				}
			}
			checkSortsLikeByValue(t, tc.name, edges, &shared)
		}
	}
}

// TestSortEdgesPacksAtTheLimit pins the packing boundary: a batch whose
// (From, To) pair needs exactly 64 bits still packs, one more bit does
// not, and both sort like the by-value sort.
func TestSortEdgesPacksAtTheLimit(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, tc := range []struct {
		maxThread int
		maxAlpha  uint64
		packs     bool
	}{
		{1<<4 - 1, 1<<28 - 1, true},
		{1<<4 - 1, 1 << 28, false},
		{1<<5 - 1, 1<<28 - 1, false},
		{0, 1<<32 - 1, true},
	} {
		edges := randomEdges(r, radixSortMin+5, tc.maxThread+1, 100)
		edges[0].From = SubID{Thread: tc.maxThread, Alpha: tc.maxAlpha}
		edges[1].To = SubID{Thread: tc.maxThread, Alpha: tc.maxAlpha - 1}
		if _, packs := packingFor(edges); packs != tc.packs {
			t.Fatalf("thread %d alpha %d: packs = %v, want %v", tc.maxThread, tc.maxAlpha, packs, tc.packs)
		}
		checkSortsLikeByValue(t, "limit", edges, nil)
	}
	neg := randomEdges(r, 8, 2, 10)
	neg[3].To.Thread = -1
	if _, packs := packingFor(neg); packs {
		t.Fatal("a batch with a negative thread packs")
	}
}
