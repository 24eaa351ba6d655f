package core

import (
	"context"
	"strings"
	"testing"
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
	// Invariant 3: a data edge whose page list escapes the endpoints'
	// recorded read/write sets must be rejected. Derived edges can't
	// violate this, so tamper with the analysis directly.
	g, _ := buildFigure1(t)
	a := g.Analyze()
	if err := a.Verify(); err != nil {
		t.Fatalf("untampered graph: %v", err)
	}
	tampered := false
	edges := a.Edges()
	for i := range edges {
		if edges[i].Kind == EdgeData {
			edges[i].Pages = append(edges[i].Pages, 999)
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no data edge to tamper with")
	}
	err := a.Verify()
	if err == nil || !strings.Contains(err.Error(), "not in writer's write set") {
		t.Errorf("tampered pages not caught: %v", err)
	}
}

func TestVerifyChecksVertexSlots(t *testing.T) {
	// Invariant 3: a vertex whose recorded ID disagrees with its slot in
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
	edges := a.Edges()
	for i := range edges {
		if edges[i].Kind == EdgeData {
			edges[i].Pages = nil
			break
		}
	}
	err := a.Verify()
	if err == nil || !strings.Contains(err.Error(), "carries no pages") {
		t.Errorf("empty data edge not caught: %v", err)
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
