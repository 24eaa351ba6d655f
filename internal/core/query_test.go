package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"github.com/repro/inspector/internal/vclock"
)

// bg is the context of the queries tests never cancel, and must unwraps
// their answers: an uncancelled traversal cannot fail.
var bg = context.Background()

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestAnalysisPath(t *testing.T) {
	g, _ := buildFigure1(t)
	a := g.Analyze()
	t1a := SubID{Thread: 0, Alpha: 0}
	t1b := SubID{Thread: 0, Alpha: 1}
	t2a := SubID{Thread: 1, Alpha: 0}

	// T1.a reaches T1.b both directly (program order) and through T2.a;
	// BFS returns a shortest chain, which is the single control edge.
	chain := must(a.PathCtx(bg, t1a, t1b))
	if len(chain) != 1 || chain[0].From != t1a || chain[0].To != t1b {
		t.Fatalf("path T1.a -> T1.b = %+v", chain)
	}

	// Restricted to sync edges the chain must route through T2.a.
	chain = must(a.PathCtx(bg, t1a, t1b, EdgeSync))
	if len(chain) != 2 || chain[0].To != t2a || chain[1].From != t2a {
		t.Fatalf("sync-only path = %+v", chain)
	}
	for _, e := range chain {
		if e.Kind != EdgeSync {
			t.Errorf("sync-only path contains %v edge", e.Kind)
		}
	}

	// Chain continuity: each edge starts where the previous ended.
	chain = must(a.PathCtx(bg, t1a, t1b, EdgeData))
	for i := 1; i < len(chain); i++ {
		if chain[i].From != chain[i-1].To {
			t.Fatalf("discontinuous chain: %+v", chain)
		}
	}

	// No backward chain exists in a DAG.
	if got := must(a.PathCtx(bg, t1b, t1a)); got != nil {
		t.Errorf("path against the DAG = %+v", got)
	}
	// Unknown endpoints return nil.
	if got := must(a.PathCtx(bg, SubID{Thread: 9, Alpha: 0}, t1b)); got != nil {
		t.Errorf("path from unknown vertex = %+v", got)
	}
	if got := must(a.PathCtx(bg, t1a, t1a)); got != nil {
		t.Errorf("self path = %+v", got)
	}
}

func TestVerifyChecksDataEdgePages(t *testing.T) {
	// Invariant 2: a data edge whose page list escapes the endpoints'
	// recorded read/write sets must be rejected. Derived edges can't
	// violate this, so tamper with the analysis directly.
	g, _ := buildFigure1(t)
	a := g.Analyze()
	if err := a.Verify(); err != nil {
		t.Fatalf("untampered graph: %v", err)
	}
	// Verify reads the analysis's own edges (AllEdges), views of its
	// stored rows, so the tamper goes to a row: its pages move to the
	// arena's end, one page longer.
	if len(a.ar.data) == 0 {
		t.Fatal("no data edge to tamper with")
	}
	r := &a.ar.data[0]
	off := len(a.ar.pages)
	a.ar.pages = append(append(slices.Clone(a.ar.pages), a.ar.pagesOf(r)...), 999)
	r.page[0], r.n = uint64(off), r.n+1
	err := a.Verify()
	if err == nil || !strings.Contains(err.Error(), "not in writer's write set") {
		t.Errorf("tampered pages not caught: %v", err)
	}
}

func TestVerifyChecksVertexSlots(t *testing.T) {
	// Invariant 2: a vertex whose recorded ID disagrees with its slot in
	// the store must be rejected.
	g, _ := buildFigure1(t)
	sc, _ := g.Sub(SubID{Thread: 1, Alpha: 0})
	sc.ID = SubID{Thread: 1, Alpha: 7}
	defer func() { sc.ID = SubID{Thread: 1, Alpha: 0} }()
	err := g.Analyze().Verify()
	if err == nil || !strings.Contains(err.Error(), "records ID") {
		t.Errorf("slot mismatch not caught: %v", err)
	}
}

func TestVerifyRejectsEmptyDataEdge(t *testing.T) {
	g, _ := buildFigure1(t)
	a := g.Analyze()
	// Verify reads the analysis's own edges (AllEdges), views of its
	// stored rows, so the tamper goes to a row.
	if len(a.ar.data) == 0 {
		t.Fatal("no data edge to tamper with")
	}
	a.ar.data[0].n = 0
	err := a.Verify()
	if err == nil || !strings.Contains(err.Error(), "carries no pages") {
		t.Errorf("empty data edge not caught: %v", err)
	}
}

// forgedGraph builds a graph of bare vertices with the given clocks,
// thread by thread, and logs the given sync edges: shapes no recorder
// produces, for Verify to reject.
func forgedGraph(t *testing.T, clocks [][]vclock.Clock, syncEdges ...[2]SubID) *Graph {
	t.Helper()
	g := NewGraph(len(clocks))
	for th, seq := range clocks {
		for alpha, c := range seq {
			if err := g.add(&SubComputation{ID: SubID{Thread: th, Alpha: uint64(alpha)}, Clock: c}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range syncEdges {
		g.addSyncEdge(e[0], e[1], g.InternObject("lock"))
	}
	return g
}

// TestVerifyRejectsCycleThroughBackwardClock closes a cycle T1.0 -> T1.1
// -> T0.0 -> T1.0 whose two sync edges each raise the clock: thread 1's
// clock runs backwards, so its control edge is the one that does not,
// and Verify names it.
func TestVerifyRejectsCycleThroughBackwardClock(t *testing.T) {
	t0, t10, t11 := SubID{Thread: 0}, SubID{Thread: 1}, SubID{Thread: 1, Alpha: 1}
	g := forgedGraph(t, [][]vclock.Clock{{{1, 1}}, {{1, 2}, {0, 1}}}, [2]SubID{t11, t0}, [2]SubID{t0, t10})
	err := g.Analyze().Verify()
	if err == nil || !strings.Contains(err.Error(), "control edge T1.0 -> T1.1 has clock order <-") {
		t.Errorf("cycle through a backward clock: %v", err)
	}
}

// TestVerifyRejectsNonIncreasingThreadClock forges one thread whose
// consecutive vertices carry one clock: program order without a clock
// step, rejected at its control edge.
func TestVerifyRejectsNonIncreasingThreadClock(t *testing.T) {
	g := forgedGraph(t, [][]vclock.Clock{{{1}, {1}}})
	err := g.Analyze().Verify()
	if err == nil || !strings.Contains(err.Error(), "control edge T0.0 -> T0.1 has clock order =") {
		t.Errorf("non-increasing thread clock: %v", err)
	}
}

func TestInterner(t *testing.T) {
	in := NewInterner()
	a := in.Intern("alpha")
	b := in.Intern("beta")
	if a == b {
		t.Fatal("distinct strings share an id")
	}
	if got := in.Intern("alpha"); got != a {
		t.Errorf("re-intern moved id: %d vs %d", got, a)
	}
	if got := in.Name(a); got != "alpha" {
		t.Errorf("Name(%d) = %q", a, got)
	}
	if got := in.Name(12345); got != "" {
		t.Errorf("Name of unassigned id = %q", got)
	}
	if id, ok := in.Find("beta"); !ok || id != b {
		t.Errorf("Find(beta) = %d,%v", id, ok)
	}
	if _, ok := in.Find("gamma"); ok {
		t.Error("Find invented an id")
	}
	if in.Len() != 2 {
		t.Errorf("Len = %d", in.Len())
	}
	snap := in.Snapshot()
	if len(snap) != 2 || snap[a] != "alpha" || snap[b] != "beta" {
		t.Errorf("Snapshot = %v", snap)
	}
}

func TestGraphSymbolTable(t *testing.T) {
	g := NewGraph(1)
	if got := g.SiteName(0); got != "" {
		t.Errorf("ref 0 = %q, want empty string", got)
	}
	s := g.InternSite("loop.head")
	o := g.InternObject("mutex:m")
	if g.SiteName(s) != "loop.head" || g.ObjectName(o) != "mutex:m" {
		t.Error("symbol round trip failed")
	}
	// Sites and objects share one table: same string, same id.
	if uint32(g.InternSite("mutex:m")) != uint32(o) {
		t.Error("shared table assigned two ids to one string")
	}
}
