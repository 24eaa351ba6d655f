package core

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/repro/inspector/internal/vclock"
)

// edgesEqual compares edge slices including page lists.
func edgesEqual(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].From != b[i].From || a[i].To != b[i].To ||
			a[i].Kind != b[i].Kind || a[i].Object != b[i].Object ||
			len(a[i].Pages) != len(b[i].Pages) {
			return false
		}
		for j := range a[i].Pages {
			if a[i].Pages[j] != b[i].Pages[j] {
				return false
			}
		}
	}
	return true
}

// TestQuickDataEdgesMatchReference pins the fold's derivation, taken as
// one cut of the whole graph, to the retained reference implementation:
// identical edges (including page lists) on random executions, at every
// worker count.
func TestQuickDataEdgesMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomExecution(t, r, 2+r.Intn(4), 1+r.Intn(3), 100+r.Intn(300))
		subs := g.Subs()
		want := dataEdgesReference(subs)
		for _, workers := range []int{1, 2, 8} {
			if !edgesEqual(deriveDataEdges(g, workers), want) {
				return false
			}
		}
		return edgesEqual(g.DataEdges(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDataEdgesParallelDeterministic re-derives the same large graph —
// large enough that the derivation really fans out — repeatedly at 8
// workers and asserts byte-stable output equal to the serial derivation
// and to the reference (the worker pool must not leak scheduling into
// results).
func TestDataEdgesParallelDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	g := randomExecution(t, r, 6, 2, 10000)
	if n := g.NumSubs(); n < 2*foldWorkerGrain {
		t.Fatalf("%d vertices never fan out at grain %d", n, foldWorkerGrain)
	}
	want := deriveDataEdges(g, 1)
	if !edgesEqual(want, dataEdgesReference(g.Subs())) {
		t.Fatal("serial derivation diverges from the reference")
	}
	for i := 0; i < 4; i++ {
		if !edgesEqual(deriveDataEdges(g, 8), want) {
			t.Fatalf("parallel derivation diverged on round %d", i)
		}
	}
}

// TestQuickAnalysisClosureMatchesMapAdjacency pins the CSR traversals to
// a straightforward map-of-slices adjacency built inside the test (the
// shape the pre-columnar Analysis stored).
func TestQuickAnalysisClosureMatchesMapAdjacency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomExecution(t, r, 2+r.Intn(3), 2, 100+r.Intn(150))
		a := g.Analyze()
		preds := make(map[SubID][]Edge)
		succs := make(map[SubID][]Edge)
		for _, e := range a.Edges() {
			preds[e.To] = append(preds[e.To], e)
			succs[e.From] = append(succs[e.From], e)
		}
		refClosure := func(id SubID, forward bool, kinds ...EdgeKind) []SubID {
			seen := map[SubID]bool{id: true}
			stack := []SubID{id}
			var out []SubID
			for len(stack) > 0 {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				adj := preds[cur]
				if forward {
					adj = succs[cur]
				}
				for _, e := range adj {
					next := e.From
					if forward {
						next = e.To
					}
					if !kindIn(e.Kind, kinds) || seen[next] {
						continue
					}
					seen[next] = true
					out = append(out, next)
					stack = append(stack, next)
				}
			}
			sortSubIDs(out)
			return out
		}
		idsEqual := func(a, b []SubID) bool {
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			return true
		}
		for _, sc := range g.Subs() {
			if !idsEqual(must(a.AncestorsCtx(bg, sc.ID)), refClosure(sc.ID, false)) {
				return false
			}
			if !idsEqual(must(a.DescendantsCtx(bg, sc.ID)), refClosure(sc.ID, true)) {
				return false
			}
			if !idsEqual(must(a.TaintedByCtx(bg, sc.ID)), refClosure(sc.ID, true, EdgeData)) {
				return false
			}
			if !idsEqual(must(a.AncestorsCtx(bg, sc.ID, EdgeControl, EdgeSync)), refClosure(sc.ID, false, EdgeControl, EdgeSync)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// hbSubs is the happens-before relation over materialized vertices.
func hbSubs(a, b *SubComputation) bool {
	if a.ID.Thread == b.ID.Thread {
		return a.ID.Alpha < b.ID.Alpha
	}
	return a.Clock.Compare(b.Clock) == vclock.Before
}

// dataEdgesReference is the retained pre-columnar derivation: the
// executable specification the fold's derivation is property-tested
// against.
func dataEdgesReference(subs []*SubComputation) []Edge {
	// writersByPage[p][t] = thread t's writers of p in program order.
	writersByPage := make(map[uint64]map[int][]*SubComputation)
	for _, sc := range subs {
		for _, p := range sc.WriteSet.Sorted() {
			byT := writersByPage[p]
			if byT == nil {
				byT = make(map[int][]*SubComputation)
				writersByPage[p] = byT
			}
			byT[sc.ID.Thread] = append(byT[sc.ID.Thread], sc)
		}
	}
	type key struct {
		from, to SubID
	}
	pages := make(map[key][]uint64)
	var cands []*SubComputation
	for _, n := range subs {
		for _, p := range n.ReadSet.Sorted() {
			byT := writersByPage[p]
			if byT == nil {
				continue
			}
			cands = cands[:0]
			for _, seq := range byT {
				// Binary search for the first writer NOT before n; the
				// candidate is its predecessor. n itself never
				// satisfies hb(n, n), so self-writes are excluded.
				lo, hi := 0, len(seq)
				for lo < hi {
					mid := (lo + hi) / 2
					if hbSubs(seq[mid], n) {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				if lo > 0 {
					cands = append(cands, seq[lo-1])
				}
			}
			for _, m := range cands {
				hidden := false
				for _, m2 := range cands {
					if m2 != m && hbSubs(m, m2) {
						hidden = true
						break
					}
				}
				if !hidden {
					k := key{from: m.ID, to: n.ID}
					pages[k] = append(pages[k], p)
				}
			}
		}
	}
	out := make([]Edge, 0, len(pages))
	for k, ps := range pages {
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
		out = append(out, Edge{From: k.from, To: k.to, Kind: EdgeData, Pages: ps})
	}
	sortEdges(out, nil)
	return out
}

// sortSubIDs orders ids by (thread, alpha): the reference closures' sort.
// The closure itself emits in that order by reading its visited bitmap.
func sortSubIDs(ids []SubID) {
	slices.SortFunc(ids, func(a, b SubID) int {
		if c := cmp.Compare(a.Thread, b.Thread); c != 0 {
			return c
		}
		return cmp.Compare(a.Alpha, b.Alpha)
	})
}
