package provenance

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/repro/inspector/internal/allocpin"
	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/core/cpgbench"
	"github.com/repro/inspector/internal/cpgfile"
)

// figure1 records the paper's Figure 1 execution (lock handoff
// T0.0 -> T1.0 -> T0.1 with data flow on pages 100/101).
func figure1(t *testing.T) *core.Analysis {
	t.Helper()
	g := core.NewGraph(2)
	lock := g.NewSyncObject("lock", false)
	rel := core.SyncEvent{Kind: core.SyncRelease, Object: lock.Ref()}
	r0, err := core.NewRecorder(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := core.NewRecorder(g, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r0.OnRead(101)
	r0.OnWrite(100)
	r0.OnWrite(101)
	s0, err := r0.EndSub(rel, 0)
	if err != nil {
		t.Fatal(err)
	}
	r0.Release(lock, s0)
	r1.Acquire(lock)
	r1.OnRead(100)
	r1.OnWrite(101)
	s1, err := r1.EndSub(rel, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1.Release(lock, s1)
	r0.Acquire(lock)
	r0.OnRead(101)
	if _, err := r0.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
		t.Fatal(err)
	}
	return g.Analyze()
}

func mustExecute(t *testing.T, e *Engine, q Query) *Result {
	t.Helper()
	res, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("Execute(%+v): %v", q, err)
	}
	if res.Version != Version {
		t.Fatalf("result version = %q", res.Version)
	}
	if res.Kind != q.Kind {
		t.Fatalf("result kind = %q, want %q", res.Kind, q.Kind)
	}
	return res
}

func TestEngineQueryKinds(t *testing.T) {
	e := NewEngine(figure1(t), EngineOptions{})

	res := mustExecute(t, e, Query{Kind: KindStats})
	if res.Stats == nil || res.Stats.SubComputations != 4 || res.Stats.Threads != 2 {
		t.Errorf("stats = %+v", res.Stats)
	}

	res = mustExecute(t, e, Query{Kind: KindVerify})
	if res.Valid == nil || !*res.Valid || res.Detail != "" {
		t.Errorf("verify = %+v / %q", res.Valid, res.Detail)
	}

	res = mustExecute(t, e, Query{Kind: KindSlice, Target: "T0.1"})
	if !reflect.DeepEqual(res.IDs, []string{"T0.0", "T1.0"}) {
		t.Errorf("slice ids = %v", res.IDs)
	}
	if res.Total != 2 || res.NextCursor != "" {
		t.Errorf("slice total/cursor = %d/%q", res.Total, res.NextCursor)
	}

	res = mustExecute(t, e, Query{Kind: KindTaint, Target: "T0.0"})
	if len(res.IDs) == 0 {
		t.Error("taint found no descendants")
	}

	res = mustExecute(t, e, Query{Kind: KindEdges})
	if res.Total != len(e.Analysis().Edges()) || len(res.Edges) != res.Total {
		t.Errorf("edges total = %d, want %d", res.Total, len(e.Analysis().Edges()))
	}
	// Wire order follows the canonical core order exactly.
	for i, edge := range e.Analysis().Edges() {
		if res.Edges[i].From != edge.From.String() || res.Edges[i].Kind != edge.Kind.String() {
			t.Fatalf("edge %d reordered: %+v vs %+v", i, res.Edges[i], edge)
		}
	}

	page := uint64(101)
	res = mustExecute(t, e, Query{Kind: KindLineage, Target: "T0.1", Page: &page})
	if len(res.Lineages) != 1 || res.Lineages[0].Writer != "T1.0" || res.Lineages[0].Reader != "T0.1" {
		t.Errorf("lineage = %+v", res.Lineages)
	}

	res = mustExecute(t, e, Query{Kind: KindPath, From: "T0.0", To: "T0.1"})
	if len(res.Edges) == 0 || res.Edges[0].From != "T0.0" || res.Edges[len(res.Edges)-1].To != "T0.1" {
		t.Errorf("path = %+v", res.Edges)
	}
	// A pair with no chain is an empty result, not an error.
	res = mustExecute(t, e, Query{Kind: KindPath, From: "T0.1", To: "T0.0"})
	if res.Total != 0 || len(res.Edges) != 0 {
		t.Errorf("reverse path = %+v", res.Edges)
	}
}

func TestEngineFilters(t *testing.T) {
	e := NewEngine(figure1(t), EngineOptions{})

	// Kind filter on edges.
	res := mustExecute(t, e, Query{Kind: KindEdges, EdgeKinds: []string{"sync"}})
	for _, edge := range res.Edges {
		if edge.Kind != "sync" {
			t.Errorf("kind-filtered edges include %+v", edge)
		}
	}
	if res.Total == 0 {
		t.Error("no sync edges found")
	}

	// Thread filter on ids.
	th := 1
	res = mustExecute(t, e, Query{Kind: KindSlice, Target: "T0.1", Thread: &th})
	if !reflect.DeepEqual(res.IDs, []string{"T1.0"}) {
		t.Errorf("thread-filtered slice = %v", res.IDs)
	}

	// Alpha window on ids.
	lo, hi := uint64(1), uint64(1)
	res = mustExecute(t, e, Query{Kind: KindSlice, Target: "T0.1", AlphaMin: &lo, AlphaMax: &hi})
	if len(res.IDs) != 0 {
		t.Errorf("alpha-windowed slice = %v", res.IDs)
	}

	// Page window keeps only data edges carrying a page in range.
	pLo, pHi := uint64(101), uint64(101)
	res = mustExecute(t, e, Query{Kind: KindEdges, PageMin: &pLo, PageMax: &pHi})
	if res.Total == 0 {
		t.Fatal("page-windowed edges empty")
	}
	for _, edge := range res.Edges {
		if edge.Kind != "data" {
			t.Errorf("page window kept %s edge", edge.Kind)
		}
		hit := false
		for _, p := range edge.Pages {
			hit = hit || p == 101
		}
		if !hit {
			t.Errorf("page window kept edge without page 101: %+v", edge)
		}
	}

	// Kind restriction on the slice traversal: only sync+control
	// reachability.
	res = mustExecute(t, e, Query{Kind: KindSlice, Target: "T0.1", EdgeKinds: []string{"sync"}})
	if !reflect.DeepEqual(res.IDs, []string{"T0.0", "T1.0"}) {
		t.Errorf("sync-only slice = %v", res.IDs)
	}
}

func TestEnginePagination(t *testing.T) {
	// A graph big enough for multi-page listings.
	g := cpgbench.BuildRandomGraph(4, 400, 32, 2, 7)
	e := NewEngine(g.Analyze(), EngineOptions{})

	full := mustExecute(t, e, Query{Kind: KindEdges})
	if full.Total < 100 {
		t.Fatalf("scenario too small: %d edges", full.Total)
	}

	// Walk the cursor chain with a small page size and reassemble.
	var walked []Edge
	q := Query{Kind: KindEdges, Limit: 37}
	pages := 0
	for {
		res := mustExecute(t, e, q)
		if res.Total != full.Total {
			t.Fatalf("page total = %d, want %d", res.Total, full.Total)
		}
		if len(res.Edges) > 37 {
			t.Fatalf("page overflow: %d", len(res.Edges))
		}
		walked = append(walked, res.Edges...)
		pages++
		if res.NextCursor == "" {
			break
		}
		q.Cursor = res.NextCursor
	}
	if pages < 3 {
		t.Errorf("pagination degenerate: %d pages", pages)
	}
	if !reflect.DeepEqual(walked, full.Edges) {
		t.Error("cursor walk does not reassemble the full listing")
	}

	// MaxResults clamps any request.
	capped := NewEngine(g.Analyze(), EngineOptions{MaxResults: 10})
	res := mustExecute(t, capped, Query{Kind: KindEdges, Limit: 100000})
	if len(res.Edges) != 10 || res.NextCursor == "" {
		t.Errorf("MaxResults clamp: %d edges, cursor %q", len(res.Edges), res.NextCursor)
	}
	// ids paginate the same way.
	var target core.SubID
	for _, sc := range g.Subs() {
		if sc.ID.Thread == 0 {
			target = sc.ID
		}
	}
	res = mustExecute(t, capped, Query{Kind: KindSlice, Target: target.String()})
	if res.Total > 10 && (len(res.IDs) != 10 || res.NextCursor == "") {
		t.Errorf("slice clamp: %d/%d ids, cursor %q", len(res.IDs), res.Total, res.NextCursor)
	}
}

// TestAllocsEdgesQueryRestored pins that an edges query walks the
// canonical edge order in place: on a restored analysis, which has
// never built its flat edge list, a query matching a few edges
// allocates for those, not for every edge of the graph (the flat list
// alone is 80 bytes an edge, which Execute used to build and keep).
// It measures in a process of its own (allocpin.MeasureAlone).
func TestAllocsEdgesQueryRestored(t *testing.T) {
	if !allocpin.MeasureAlone(t) {
		return
	}
	path := filepath.Join(t.TempDir(), "g.cpg")
	if err := cpgfile.Write(path, cpgbench.BuildRandomGraph(4, 2000, 64, 2, 7).Analyze(), cpgfile.Meta{}); err != nil {
		t.Fatal(err)
	}
	a, _, err := cpgfile.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	edges := st.ControlEdges + st.SyncEdges + st.DataEdges
	thread, lo, hi := 0, uint64(10), uint64(13)
	q := Query{Kind: KindEdges, Thread: &thread, AlphaMin: &lo, AlphaMax: &hi}
	e := NewEngine(a, EngineOptions{})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := e.Execute(context.Background(), q)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	limit := uint64(1<<10*res.Total + 16<<10)
	t.Logf("edges query matching %d of %d edges allocated %d B (limit %d)", res.Total, edges, allocated, limit)
	if res.Total == 0 || uint64(80*edges) < 8*limit {
		t.Fatalf("scenario degenerate: %d of %d edges matched", res.Total, edges)
	}
	if allocated > limit {
		t.Errorf("edges query allocated %d B for %d matched edges, want at most %d (1 KiB each + 16 KiB): it built a list of all %d edges",
			allocated, res.Total, limit, edges)
	}
}

// TestAllocsVerifyRestored pins what a verify query allocates on a
// loaded analysis: per thread, not per edge — it walks the edges and
// each thread's run in place instead of building the flat edge list
// (80 bytes an edge) or copying a run. It measures one query, on a
// freshly loaded analysis and a new engine, in a process of its own
// (allocpin.MeasureAlone), so nothing else allocates inside its window.
func TestAllocsVerifyRestored(t *testing.T) {
	if !allocpin.MeasureAlone(t) {
		return
	}
	path := filepath.Join(t.TempDir(), "g.cpg")
	if err := cpgfile.Write(path, cpgbench.BuildRandomGraph(4, 2000, 64, 2, 7).Analyze(), cpgfile.Meta{}); err != nil {
		t.Fatal(err)
	}
	a, _, err := cpgfile.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	edges := uint64(st.ControlEdges + st.SyncEdges + st.DataEdges)
	threads := uint64(a.Graph().Threads())
	e := NewEngine(a, EngineOptions{})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err = e.Execute(context.Background(), Query{Kind: KindVerify})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	mallocs, allocated := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	limit, byteLimit := 4*threads+32, 256*threads+4<<10
	t.Logf("verify of %d edges over %d threads: %d allocations, %d B (limits %d, %d B)", edges, threads, mallocs, allocated, limit, byteLimit)
	if uint64(80*edges) < 8*byteLimit {
		t.Fatalf("scenario degenerate: %d edges", edges)
	}
	if mallocs > limit || allocated > byteLimit {
		t.Errorf("verify allocated %d times, %d B, over %d edges; want at most %d times and %d B: per thread, not per edge",
			mallocs, allocated, edges, limit, byteLimit)
	}
}

func TestEngineBadQueries(t *testing.T) {
	e := NewEngine(figure1(t), EngineOptions{})
	bad := []Query{
		{Kind: "nonsense"},
		{Kind: KindSlice},                                     // missing target
		{Kind: KindSlice, Target: "x"},                        // malformed target
		{Kind: KindPath, From: "T0.0"},                        // missing to
		{Kind: KindLineage, Target: "T0.1"},                   // missing page
		{Kind: KindEdges, EdgeKinds: []string{"bogus"}},       // unknown kind name
		{Kind: KindEdges, Cursor: "???"},                      // unrecognized cursor
		{Kind: KindSlice, Target: "T0.1", Cursor: "v2:boooo"}, // wrong cursor version
	}
	for _, q := range bad {
		if _, err := e.Execute(context.Background(), q); !errors.Is(err, ErrBadQuery) {
			t.Errorf("Execute(%+v) err = %v, want ErrBadQuery", q, err)
		}
	}

	// Unknown-but-well-formed targets are empty results, not errors.
	res := mustExecute(t, e, Query{Kind: KindSlice, Target: "T7.9"})
	if res.Total != 0 {
		t.Errorf("unknown target slice total = %d", res.Total)
	}
}

func TestEngineCancellation(t *testing.T) {
	g := cpgbench.BuildRandomGraph(4, 4000, 16, 1, 44)
	e := NewEngine(g.Analyze(), EngineOptions{})
	var target core.SubID
	for _, sc := range g.Subs() {
		if sc.ID.Thread == 0 {
			target = sc.ID
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Execute(ctx, Query{Kind: KindSlice, Target: target.String()}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled slice err = %v", err)
	}
	if _, err := e.Execute(ctx, Query{Kind: KindVerify}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled verify err = %v", err)
	}
}
