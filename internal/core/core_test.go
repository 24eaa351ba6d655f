package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/repro/inspector/internal/vclock"
)

// mustRecorder builds a recorder or fails the test.
func mustRecorder(t *testing.T, g *Graph, thread int) *Recorder {
	t.Helper()
	r, err := NewRecorder(g, thread, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// endSub closes the current sub-computation or fails the test.
func endSub(t *testing.T, r *Recorder, ev SyncEvent) *SubComputation {
	t.Helper()
	sc, err := r.EndSub(ev, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestRecorderLifecycle(t *testing.T) {
	g := NewGraph(2)
	r := mustRecorder(t, g, 0)
	if r.Alpha() != 0 || r.Current() != (SubID{Thread: 0, Alpha: 0}) {
		t.Fatalf("initial state: alpha=%d", r.Alpha())
	}
	r.OnRead(10)
	r.OnWrite(11)
	r.OnInstructions(5)
	r.OnBranch(g.InternSite("loop"), true)
	r.OnInstructions(3)
	r.OnIndirect(g.InternSite("dispatch"), g.InternSite("handler"))
	sc := endSub(t, r, SyncEvent{Kind: SyncRelease, Object: g.InternObject("m")})

	if !sc.ReadSet.Contains(10) || !sc.WriteSet.Contains(11) {
		t.Error("read/write sets not recorded")
	}
	thunks := ThunkList(sc)
	if len(thunks) != 2 || sc.NumThunks() != 2 {
		t.Fatalf("thunks = %d (NumThunks %d), want 2", len(thunks), sc.NumThunks())
	}
	if g.SiteName(thunks[0].Site) != "loop" || !thunks[0].Taken || thunks[0].Index != 0 {
		t.Errorf("thunk 0 = %+v", thunks[0])
	}
	if !thunks[1].Indirect || g.SiteName(thunks[1].Target) != "handler" || thunks[1].Index != 1 {
		t.Errorf("thunk 1 = %+v", thunks[1])
	}
	if thunks[0].Instructions != 5 || thunks[1].Instructions != 3 {
		t.Errorf("instruction counts = %d, %d", thunks[0].Instructions, thunks[1].Instructions)
	}
	if sc.Instructions != 8 {
		t.Errorf("sub instructions = %d", sc.Instructions)
	}
	if sc.End.Kind != SyncRelease || g.ObjectName(sc.End.Object) != "m" {
		t.Errorf("end event = %+v", sc.End)
	}
	// Next sub-computation has alpha 1, fresh thunk counter.
	if r.Alpha() != 1 {
		t.Errorf("alpha after EndSub = %d", r.Alpha())
	}
	r.OnBranch(g.InternSite("x"), false)
	sc2 := endSub(t, r, SyncEvent{Kind: SyncNone})
	if ThunkList(sc2)[0].Index != 0 {
		t.Error("thunk counter not reset across sub-computations")
	}
	if g.NumSubs() != 2 {
		t.Errorf("graph has %d subs", g.NumSubs())
	}
}

func TestRecorderClockSemantics(t *testing.T) {
	// Algorithm 2: startSub sets Ct[t] = alpha and stamps the sub.
	g := NewGraph(3)
	r := mustRecorder(t, g, 1)
	sc0 := endSub(t, r, SyncEvent{Kind: SyncRelease, Object: g.InternObject("s")})
	if got := sc0.Clock.Get(1); got != 1 {
		t.Errorf("sub 0 clock[1] = %d, want 1 (1-based slots)", got)
	}
	sc1 := endSub(t, r, SyncEvent{Kind: SyncNone})
	if got := sc1.Clock.Get(1); got != 2 {
		t.Errorf("sub 1 clock[1] = %d, want 2", got)
	}
	if sc0.Clock.Compare(sc1.Clock) != vclock.Before {
		t.Error("program order not reflected in clocks")
	}
}

func TestRecorderThreadSlotRange(t *testing.T) {
	g := NewGraph(2)
	if _, err := NewRecorder(g, 2, 0); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if _, err := NewRecorder(g, -1, 0); err == nil {
		t.Error("negative slot accepted")
	}
}

// buildFigure1 reproduces the paper's Figure 1 execution:
//
//	T1.a: lock(); reads {y}, writes {x,y}; unlock()     (release)
//	T2.a: lock(); reads {x}, writes {y}; unlock()       (acquire+release)
//	T1.b: lock(); reads {y}, writes {y}; unlock()       (acquire)
//
// using pages x=100, y=101. The lock transfers T1.a -> T2.a -> T1.b.
func buildFigure1(t *testing.T) (*Graph, *SyncObject) {
	t.Helper()
	g := NewGraph(2)
	lock := g.NewSyncObject("lock", false)

	t1 := mustRecorder(t, g, 0)
	t2 := mustRecorder(t, g, 1)

	// T1.a executes and releases the lock.
	t1.OnRead(101)
	t1.OnWrite(100)
	t1.OnWrite(101)
	t1.OnBranch(g.InternSite("flag.if"), true)
	t1a := endSub(t, t1, SyncEvent{Kind: SyncRelease, Object: g.InternObject("lock")})
	t1.Release(lock, t1a)

	// T2.a acquires, executes, releases.
	t2.Acquire(lock)
	t2.OnRead(100)
	t2.OnWrite(101)
	t2a := endSub(t, t2, SyncEvent{Kind: SyncRelease, Object: g.InternObject("lock")})
	t2.Release(lock, t2a)

	// T1.b acquires and executes.
	t1.Acquire(lock)
	t1.OnRead(101)
	t1.OnWrite(101)
	endSub(t, t1, SyncEvent{Kind: SyncNone})
	endSub(t, t2, SyncEvent{Kind: SyncNone})
	return g, lock
}

func TestFigure1HappensBefore(t *testing.T) {
	g, _ := buildFigure1(t)
	t1a := SubID{Thread: 0, Alpha: 0}
	t1b := SubID{Thread: 0, Alpha: 1}
	t2a := SubID{Thread: 1, Alpha: 0}

	if !happensBefore(g, t1a, t2a) {
		t.Error("T1.a must happen before T2.a (lock transfer)")
	}
	if !happensBefore(g, t2a, t1b) {
		t.Error("T2.a must happen before T1.b")
	}
	if !happensBefore(g, t1a, t1b) {
		t.Error("program order T1.a -> T1.b missing")
	}
	if happensBefore(g, t2a, t1a) || happensBefore(g, t1b, t2a) {
		t.Error("happens-before inverted")
	}
}

func TestFigure1SyncEdges(t *testing.T) {
	g, _ := buildFigure1(t)
	edges := g.SyncEdges()
	want := map[string]bool{
		"T0.0->T1.0": false, // T1.a -> T2.a
		"T1.0->T0.1": false, // T2.a -> T1.b
	}
	for _, e := range edges {
		key := e.From.String() + "->" + e.To.String()
		if _, ok := want[key]; ok {
			want[key] = true
		}
		if e.Object != "lock" {
			t.Errorf("edge %s object = %q", key, e.Object)
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("missing sync edge %s (have %v)", k, edges)
		}
	}
}

func TestFigure1DataEdges(t *testing.T) {
	g, _ := buildFigure1(t)
	_, edges := g.Analyze().EdgeSections()
	// Expected update-use flows:
	//   T1.a writes y(101) -> T2.a ... wait, T2.a reads x(100): T1.a
	//   writes x -> T2.a reads x: edge T0.0 -> T1.0 on page 100.
	//   T2.a writes y -> T1.b reads y: edge T1.0 -> T0.1 on page 101.
	//   T1.a's write of y is hidden from T1.b by T2.a's later write,
	//   so NO direct edge T0.0 -> T0.1 for page 101.
	type ek struct {
		from, to string
		page     uint64
	}
	found := make(map[ek]bool)
	for _, e := range edges {
		for _, p := range e.Pages {
			found[ek{e.From.String(), e.To.String(), p}] = true
		}
	}
	if !found[ek{"T0.0", "T1.0", 100}] {
		t.Errorf("missing data edge T1.a -x-> T2.a; edges: %+v", edges)
	}
	if !found[ek{"T1.0", "T0.1", 101}] {
		t.Errorf("missing data edge T2.a -y-> T1.b; edges: %+v", edges)
	}
	if found[ek{"T0.0", "T0.1", 101}] {
		t.Error("T1.a's y write must be hidden from T1.b by T2.a's write (maximal-writer rule)")
	}
}

func TestFigure1Verify(t *testing.T) {
	g, _ := buildFigure1(t)
	if err := g.Analyze().Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestFigure1Queries(t *testing.T) {
	g, _ := buildFigure1(t)
	a := g.Analyze()
	t1b := SubID{Thread: 0, Alpha: 1}

	// Slice of T1.b must include everything that precedes it.
	slice := must(a.SliceCtx(bg, t1b))
	if len(slice) != 2 {
		t.Fatalf("slice = %v, want 2 ancestors", slice)
	}

	// Lineage of page 101 (y) at T1.b: writer T2.a, whose own upstream
	// includes T1.a (T2.a read x written by T1.a).
	lin := must(a.PageLineageCtx(bg, 101, t1b))
	if len(lin) != 1 {
		t.Fatalf("lineage = %+v", lin)
	}
	if lin[0].Writer != (SubID{Thread: 1, Alpha: 0}) {
		t.Errorf("lineage writer = %v", lin[0].Writer)
	}
	if len(lin[0].Upstream) != 1 || lin[0].Upstream[0] != (SubID{Thread: 0, Alpha: 0}) {
		t.Errorf("lineage upstream = %v", lin[0].Upstream)
	}

	// Taint: data written by T1.a flows to T2.a and then T1.b.
	taint := must(a.TaintedByCtx(bg, SubID{Thread: 0, Alpha: 0}))
	if len(taint) != 2 {
		t.Errorf("taint set = %v", taint)
	}
}

func TestMutexReplacesReleasers(t *testing.T) {
	g := NewGraph(3)
	m := g.NewSyncObject("m", false)
	r0 := mustRecorder(t, g, 0)
	r1 := mustRecorder(t, g, 1)
	r2 := mustRecorder(t, g, 2)

	s0 := endSub(t, r0, SyncEvent{Kind: SyncRelease, Object: g.InternObject("m")})
	r0.Release(m, s0)
	s1 := endSub(t, r1, SyncEvent{Kind: SyncRelease, Object: g.InternObject("m")})
	r1.Release(m, s1)

	// r2 acquires: with mutex semantics only the LAST release forms an
	// explicit schedule edge.
	r2.Acquire(m)
	// Close every thread's in-progress sub-computation so the graph is
	// complete before verification (thread exit does this in real runs).
	for _, r := range []*Recorder{r0, r1, r2} {
		endSub(t, r, SyncEvent{Kind: SyncNone})
	}
	edges := g.SyncEdges()
	if len(edges) != 1 {
		t.Fatalf("edges = %+v, want 1", edges)
	}
	if edges[0].From != s1.ID {
		t.Errorf("edge from %v, want %v (last releaser)", edges[0].From, s1.ID)
	}
	// But the clock still orders BOTH releasers before the acquirer
	// (CS accumulates), which Verify checks.
	if err := g.Analyze().Verify(); err != nil {
		t.Error(err)
	}
}

func TestBarrierAccumulatesReleasers(t *testing.T) {
	g := NewGraph(3)
	b := g.NewSyncObject("bar", true)
	recs := []*Recorder{mustRecorder(t, g, 0), mustRecorder(t, g, 1), mustRecorder(t, g, 2)}

	// All three arrive (release), then all three depart (acquire).
	for _, r := range recs {
		sc := endSub(t, r, SyncEvent{Kind: SyncRelease, Object: g.InternObject("bar")})
		r.Release(b, sc)
	}
	for _, r := range recs {
		r.Acquire(b)
	}
	for _, r := range recs {
		endSub(t, r, SyncEvent{Kind: SyncNone})
	}
	edges := g.SyncEdges()
	// Each departure synchronizes with all arrivals except its own
	// program-order predecessor: 3 departures x 2 foreign arrivals.
	if len(edges) != 6 {
		t.Fatalf("barrier edges = %d, want 6: %+v", len(edges), edges)
	}
	if err := g.Analyze().Verify(); err != nil {
		t.Error(err)
	}
}

func TestGraphOutOfOrderAlphaRejected(t *testing.T) {
	g := NewGraph(1)
	sc := &SubComputation{ID: SubID{Thread: 0, Alpha: 5}}
	if err := g.add(sc); err == nil {
		t.Error("out-of-order alpha accepted")
	}
}

func TestControlEdges(t *testing.T) {
	g := NewGraph(1)
	r := mustRecorder(t, g, 0)
	for i := 0; i < 3; i++ {
		endSub(t, r, SyncEvent{Kind: SyncNone})
	}
	edges := g.Analyze().Edges()
	if len(edges) != 2 {
		t.Fatalf("control edges = %d, want 2", len(edges))
	}
	for i, e := range edges {
		if e.From.Alpha != uint64(i) || e.To.Alpha != uint64(i+1) || e.Kind != EdgeControl {
			t.Errorf("edge %d = %+v", i, e)
		}
	}
}

func TestConcurrentDetection(t *testing.T) {
	g := NewGraph(2)
	r0 := mustRecorder(t, g, 0)
	r1 := mustRecorder(t, g, 1)
	a := endSub(t, r0, SyncEvent{Kind: SyncNone})
	b := endSub(t, r1, SyncEvent{Kind: SyncNone})
	if ord := a.Clock.Compare(b.Clock); ord != vclock.Concurrent {
		t.Errorf("unsynchronized subs have clock order %v, want ||", ord)
	}
}

// TestAnalyzeDegenerateGraphs pins Analyze's contract on the shapes the
// one-fold path has to go out of its way for: the result is stamped
// epoch 0, covers every recorded vertex, and exports exactly what the
// flat builder makes of the spec derivation over the same prefix.
func TestAnalyzeDegenerateGraphs(t *testing.T) {
	// handSub appends a hand-built vertex: clock as given, reading and
	// writing the given pages.
	handSub := func(t *testing.T, g *Graph, id SubID, clock []uint64, reads, writes []uint64) {
		t.Helper()
		sc := &SubComputation{ID: id, Clock: clock}
		for _, p := range reads {
			sc.ReadSet.Add(p)
		}
		for _, p := range writes {
			sc.WriteSet.Add(p)
		}
		if err := g.RestoreSubs(id.Thread, []*SubComputation{sc}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name      string
		build     func(t *testing.T) *Graph
		lens      []int
		dataEdges int
		syncEdges int
		complete  bool
	}{
		{
			// Also journal.Recover's zero-record case: a fresh replay graph.
			name:     "empty",
			build:    func(t *testing.T) *Graph { return NewGraph(3) },
			lens:     []int{0, 0, 0},
			complete: true,
		},
		{
			// Trace-loss gaps (one reaching past the prefix) and a thread
			// slot that never recorded.
			name: "gaps",
			build: func(t *testing.T) *Graph {
				g := NewGraph(3)
				handSub(t, g, SubID{Thread: 0, Alpha: 0}, []uint64{1, 0, 0}, nil, []uint64{7})
				handSub(t, g, SubID{Thread: 2, Alpha: 0}, []uint64{1, 0, 1}, []uint64{7}, nil)
				var log EdgeRows
				log.AppendSync(SubID{Thread: 0, Alpha: 0}, SubID{Thread: 2, Alpha: 0}, g.InternObject("m"))
				g.RestoreSyncLog(&log)
				g.AddGap(0, Gap{FromAlpha: 0, ToAlpha: 4, Kind: GapAuxLoss, Bytes: 64})
				g.AddGap(2, Gap{FromAlpha: 3, ToAlpha: 5, Kind: GapTruncated})
				return g
			},
			lens:      []int{1, 0, 1},
			dataEdges: 1,
			syncEdges: 1,
		},
		{
			// T0.0's clock claims five thread-1 vertices, the shard holds
			// one: the cut clamps to what was published and the reader
			// binds to the latest writer that exists.
			name: "clock ahead of its shard",
			build: func(t *testing.T) *Graph {
				g := NewGraph(2)
				handSub(t, g, SubID{Thread: 0, Alpha: 0}, []uint64{1, 5}, []uint64{7}, nil)
				handSub(t, g, SubID{Thread: 1, Alpha: 0}, []uint64{0, 1}, nil, []uint64{7})
				return g
			},
			lens:      []int{1, 1},
			dataEdges: 1,
			complete:  true,
		},
		{
			// Sync-log entries naming vertices that never sealed, or a
			// thread slot that does not exist, stay out of the analysis.
			name: "sync log past the prefix",
			build: func(t *testing.T) *Graph {
				g := NewGraph(2)
				handSub(t, g, SubID{Thread: 0, Alpha: 0}, []uint64{1, 0}, nil, []uint64{7})
				m := g.InternObject("m")
				var log EdgeRows
				log.AppendSync(SubID{Thread: 0, Alpha: 0}, SubID{Thread: 1, Alpha: 3}, m)
				log.AppendSync(SubID{Thread: 9, Alpha: 0}, SubID{Thread: 0, Alpha: 0}, m)
				g.RestoreSyncLog(&log)
				return g
			},
			lens:     []int{1, 0},
			complete: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build(t)
			a := g.Analyze()
			if a.Epoch() != 0 {
				t.Errorf("epoch = %d, want 0", a.Epoch())
			}
			if !reflect.DeepEqual(a.ThreadLens(), tc.lens) {
				t.Errorf("lens = %v, want %v", a.ThreadLens(), tc.lens)
			}
			syncEdges, dataEdges := a.EdgeSections()
			if len(syncEdges) != tc.syncEdges || len(dataEdges) != tc.dataEdges {
				t.Errorf("%d sync / %d data edges, want %d / %d",
					len(syncEdges), len(dataEdges), tc.syncEdges, tc.dataEdges)
			}
			if got := a.Completeness().Complete; got != tc.complete {
				t.Errorf("complete = %v, want %v", got, tc.complete)
			}
			syncRef, dataRef := ReferenceSections(a)
			flat := FlatAnalysis(a, syncRef, dataRef)
			var got, want bytes.Buffer
			if err := a.ExportJSON(&got); err != nil {
				t.Fatal(err)
			}
			if err := flat.ExportJSON(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("export diverges from the flat reference:\n got %s\nwant %s", got.Bytes(), want.Bytes())
			}
		})
	}
}

func TestExportJSONRoundTrip(t *testing.T) {
	g, _ := buildFigure1(t)
	var buf bytes.Buffer
	if err := g.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Nothing reads the JSON back into a graph; what the render must not
	// do is lose a field of the Dump it was made from.
	var got Dump
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want, err := g.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Errorf("JSON render lost detail:\n got %+v\nwant %+v", &got, want)
	}
}

func assertGraphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumSubs() != b.NumSubs() {
		t.Fatalf("sub count %d vs %d", a.NumSubs(), b.NumSubs())
	}
	as, bs := a.Subs(), b.Subs()
	for i := range as {
		if as[i].ID != bs[i].ID {
			t.Errorf("sub %d id %v vs %v", i, as[i].ID, bs[i].ID)
		}
		if as[i].Clock.Compare(bs[i].Clock) != vclock.Equal {
			t.Errorf("sub %v clock %v vs %v", as[i].ID, as[i].Clock, bs[i].Clock)
		}
		if as[i].ReadSet.Len() != bs[i].ReadSet.Len() || as[i].WriteSet.Len() != bs[i].WriteSet.Len() {
			t.Errorf("sub %v sets differ", as[i].ID)
		}
		if as[i].NumThunks() != bs[i].NumThunks() {
			t.Errorf("sub %v thunks differ", as[i].ID)
		}
	}
	ae, be := a.SyncEdges(), b.SyncEdges()
	if len(ae) != len(be) {
		t.Fatalf("sync edges %d vs %d", len(ae), len(be))
	}
	for i := range ae {
		if ae[i].From != be[i].From || ae[i].To != be[i].To {
			t.Errorf("edge %d: %+v vs %+v", i, ae[i], be[i])
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g, _ := buildFigure1(t)
	var buf bytes.Buffer
	if err := g.Analyze().WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph CPG", "cluster_t0", "cluster_t1", "style=dashed", "style=bold"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	if SyncAcquire.String() != "acquire" || SyncRelease.String() != "release" || SyncNone.String() != "none" {
		t.Error("SyncOpKind strings")
	}
	if EdgeControl.String() != "control" || EdgeSync.String() != "sync" || EdgeData.String() != "data" || EdgeKind(0).String() != "unknown" {
		t.Error("EdgeKind strings")
	}
	if (SubID{Thread: 2, Alpha: 5}).String() != "T2.5" {
		t.Error("SubID string")
	}
}
