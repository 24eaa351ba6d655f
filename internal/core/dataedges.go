package core

import (
	"sort"

	"github.com/repro/inspector/internal/vclock"
)

// DataEdges derives the update-use edges (§IV-A III): for every reader n
// and page p in its read set, an edge from each maximal writer m (under
// happens-before) with p in its write set and m -> n. Writers hidden by a
// later writer of the same page that still precedes the reader are
// excluded, so each edge names a write that may actually have produced
// the value read.
//
// There is one derivation, the incremental fold's (incremental.go:
// deriveNewData over the page → writer-runs index); DataEdges and
// Analyze take a single cut of the whole graph through a throw-away
// IncrementalAnalyzer. dataEdgesReference retains the original
// map-of-maps single-threaded derivation as the executable
// specification; property tests assert the two never diverge.
func (g *Graph) DataEdges() []Edge { return deriveDataEdges(g, 0) }

// deriveDataEdges derives every data edge of g's current (causally
// closed) prefix with up to workers goroutines (0 = GOMAXPROCS). The
// output is independent of the worker count.
func deriveDataEdges(g *Graph, workers int) []Edge {
	inc := NewIncrementalAnalyzer(g)
	inc.SetFoldWorkers(workers)
	return inc.deriveNewData(inc.captureCut())
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
	sortEdges(out)
	return out
}
