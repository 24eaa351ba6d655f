package core

// The on-disk CPG format (internal/cpgfile) serializes an Analysis as
// columnar sections — vertices, sync/data adjacency, gaps — and loads
// them back without re-deriving anything. This file is the exported
// surface that makes the round trip possible from outside the package:
// extracting the canonical sections of an Analysis, appending restored
// vertices and sync-edge log entries to a Graph, and assembling an
// Analysis over pre-derived sections, which validates them and builds
// through incStore exactly as a fold of the same edges would.

import (
	"fmt"
	"sync"
)

// ThreadLens returns the per-thread vertex counts of the analyzed
// prefix — the dense-index layout serializers persist alongside the
// edge sections.
func (a *Analysis) ThreadLens() []int {
	out := make([]int, len(a.lens))
	copy(out, a.lens)
	return out
}

// Stats is the eleven-counter summary of an analyzed prefix: what the
// stats query answers, what the .cpg stats section stores and what a
// listing entry is read from.
type Stats struct {
	SubComputations int
	Threads         int
	Thunks          int
	ReadSetPages    int
	WriteSetPages   int
	ControlEdges    int
	SyncEdges       int
	DataEdges       int
	GapThreads      int
	GapIntervals    int
	LostTraceBytes  uint64
}

// Stats summarizes the analyzed prefix — not Graph.Subs: during a live
// run the graph may already hold vertices this epoch does not cover.
// Threads counts the threads with a vertex in the prefix; the edge
// counts are those of Edges, by arithmetic: control edges are
// Σ max(0, len−1) and the sync and data sections are counted where they
// lie, so nothing is materialized. The per-vertex sums are the ones
// every construction sets, so a query costs O(threads + overlay layers).
func (a *Analysis) Stats() Stats {
	st := Stats{
		SubComputations: a.NumVertices(),
		Thunks:          a.totals.thunks + a.g.column.count(),
		ReadSetPages:    a.totals.readSetPages,
		WriteSetPages:   a.totals.writeSetPages,
		GapThreads:      a.comp.GapThreads,
		GapIntervals:    a.comp.GapIntervals,
		LostTraceBytes:  a.comp.LostBytes,
	}
	for _, n := range a.lens {
		if n > 0 {
			st.Threads++
			st.ControlEdges += n - 1
		}
	}
	if a.succ != nil {
		st.SyncEdges += len(a.succ.syncSeq)
		st.DataEdges += len(a.succ.dataSeq)
	}
	for i := range a.layers {
		st.SyncEdges += len(a.layers[i].syncSeq)
		st.DataEdges += len(a.layers[i].dataSeq)
	}
	return st
}

// EdgeSeq is a read-only view of one canonical edge section: At returns
// the analysis's own stored edge, which the caller must not modify.
type EdgeSeq struct {
	ar   arenaPair
	refs []edgeRef
}

// Len returns the number of edges in the section.
func (s EdgeSeq) Len() int { return len(s.refs) }

// At returns the i'th edge of the section.
func (s EdgeSeq) At(i int) *Edge { return s.ar.edge(s.refs[i]) }

// EdgeSeqs returns views of the canonical sync and data edge sections
// of the analysis, each in the canonical sorted order. Together with the
// control edges (fully determined by ThreadLens and never stored) they
// reproduce exactly the sequence Edges returns. Nothing is copied: a
// one-fold analysis hands out its sealed base as is.
func (a *Analysis) EdgeSeqs() (syncEdges, dataEdges EdgeSeq) {
	syncSeq, dataSeq := canonicalRefSeqs(a.ar, a.succ, a.layers)
	return EdgeSeq{a.ar, syncSeq}, EdgeSeq{a.ar, dataSeq}
}

// EdgeSections returns EdgeSeqs as fresh copies the caller may keep.
func (a *Analysis) EdgeSections() (syncEdges, dataEdges []Edge) {
	syncSeq, dataSeq := a.EdgeSeqs()
	return syncSeq.copyOut(), dataSeq.copyOut()
}

func (s EdgeSeq) copyOut() []Edge {
	out := make([]Edge, s.Len())
	for i := range out {
		out[i] = *s.At(i)
	}
	return out
}

// RestoreSubs appends a restored run of thread t's vertices to its
// shard — the deserialization mirror of the EndSub append path, taking
// the shard lock once and publishing the new length once for the whole
// run. The run must continue the shard: run[i] is T{t}.{len+i}. An
// empty shard keeps run itself, so the caller must not modify it
// afterwards.
func (g *Graph) RestoreSubs(t int, run []*SubComputation) error {
	sh := g.shard(t)
	if sh == nil {
		return fmt.Errorf("core: thread slot %d out of range [0,%d)", t, g.threads)
	}
	if g.column != nil {
		return fmt.Errorf("core: thread %d restored into a graph whose thunk column is sealed", t)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	have := sh.seq.Len()
	for i, sc := range run {
		if want := (SubID{Thread: t, Alpha: uint64(have + i)}); sc.ID != want {
			return fmt.Errorf("core: %v restored where %v belongs", sc.ID, want)
		}
	}
	sh.seq.pushRun(run)
	return nil
}

// thunkColumn is a control path kept in its encoded form: the
// AppendThunks lists of every vertex of a graph, back to back in
// (thread, alpha) order — the .cpg thunks section — and how many thunks
// they hold. The bytes come from load, called once, when a reader first
// needs them.
type thunkColumn struct {
	total int
	once  sync.Once
	load  func() ([]byte, error)
	b     []byte
	err   error
}

// count returns the column's thunk total (0 for no column).
func (c *thunkColumn) count() int {
	if c == nil {
		return 0
	}
	return c.total
}

// bytes returns the column's bytes, loading them on the first call.
func (c *thunkColumn) bytes() ([]byte, error) {
	c.once.Do(func() {
		c.b, c.err = c.load()
		c.load = nil
	})
	return c.b, c.err
}

// RestoreThunkColumn hands a restored graph its control path as one
// column instead of per-vertex paths: the bytes load returns are the
// AppendThunks list of each of the graph's vertices in (thread, alpha)
// order, total the thunks they hold, and every site and target ref is
// already this graph's own. The caller vouches for those bytes — it has
// walked and checksummed them, or load checksums them — and the graph
// keeps them, so they must not be modified afterwards. load runs once,
// when AppendThunkColumn or Dump first needs the bytes (Stats needs
// only total), and its error is theirs. Call it once, after the last
// AppendSub and before the graph is shared: the column seals the vertex
// set, so later appends fail. Vertices keep empty paths, so an epoch
// delta cut from the graph would carry none — a restored graph is read,
// never cut.
func (g *Graph) RestoreThunkColumn(total int, load func() ([]byte, error)) error {
	if g.column != nil {
		return fmt.Errorf("core: graph already holds a thunk column")
	}
	g.column = &thunkColumn{total: total, load: load}
	return nil
}

// AppendThunkColumn appends the control-path column of subs, a prefix
// of this graph's vertices in (thread, alpha) order: their AppendThunks
// lists back to back. A graph holding a restored column appends it
// verbatim — it covers every vertex, which is every prefix it has — and
// the error is the column's load error.
func (g *Graph) AppendThunkColumn(b []byte, subs []*SubComputation) ([]byte, error) {
	if g.column != nil {
		col, err := g.column.bytes()
		return append(b, col...), err
	}
	for _, sc := range subs {
		b = AppendThunks(b, sc)
	}
	return b, nil
}

// RestoreSyncLog re-records a decoded sync section in its acquiring
// threads' edge logs (deserialization path): edges[i] is a release ->
// acquire dependency on the object objs[i], a ref of this graph's
// interner. Each thread's entries keep the order given and go into its
// log presized, under one lock; an entry whose acquiring thread has no
// slot is dropped, as the recorder drops it.
func (g *Graph) RestoreSyncLog(edges []Edge, objs []ObjRef) {
	// Thread t's entries go to recs[off[t]:off[t+1]]: count, sum, then
	// place each entry at its thread's cursor, which leaves off[t] at the
	// end of thread t's run.
	off := make([]int, len(g.shards)+1)
	for i := range edges {
		if t := edges[i].To.Thread; g.shard(t) != nil {
			off[t+1]++
		}
	}
	for t := range g.shards {
		off[t+1] += off[t]
	}
	recs := make([]DeltaSyncEdge, off[len(g.shards)])
	for i := range edges {
		if e := &edges[i]; g.shard(e.To.Thread) != nil {
			recs[off[e.To.Thread]] = DeltaSyncEdge{From: e.From, To: e.To, Object: objs[i]}
			off[e.To.Thread]++
		}
	}
	lo := 0
	for t := range g.shards {
		run := recs[lo:off[t]:off[t]]
		if lo = off[t]; len(run) == 0 {
			continue
		}
		sh := &g.shards[t]
		sh.mu.Lock()
		sh.syncEdges.pushRun(run)
		sh.mu.Unlock()
	}
}

// EdgeCanonicalLess reports the canonical edge order — (From, To,
// Kind, Object) — exported so section decoders can validate stored
// order themselves and name the offending section in their errors. It
// takes pointers: decoders check every edge of a section against its
// predecessor in place.
func EdgeCanonicalLess(a, b *Edge) bool { return edgeLess(a, b) }

// NewAnalysisFromSections assembles a sealed Analysis over pre-derived
// canonical edge sections, skipping derivation entirely — the load path
// for on-disk CPGs, whose data edges were derived once at write time.
// lens must cover exactly the graph's recorded prefix, and both edge
// sections must be canonically sorted with every endpoint inside the
// prefix; violations are corruption and fail loudly rather than
// producing an index that silently mis-answers queries. The sections
// then go into an empty store as one epoch, which is what Graph.Analyze
// builds: a sealed base above succCompactFloor, one overlay layer below
// it. Completeness comes from the graph's recorded gaps and the
// per-vertex totals from one walk of the prefix, as in every other
// construction path.
func NewAnalysisFromSections(g *Graph, lens []int, epoch uint64, syncEdges, dataEdges []Edge) (*Analysis, error) {
	if len(lens) != g.Threads() {
		return nil, fmt.Errorf("core: section lens cover %d threads, graph has %d", len(lens), g.Threads())
	}
	for t, n := range lens {
		if have := g.shards[t].seq.Len(); n != have {
			return nil, fmt.Errorf("core: section len %d for thread %d, graph holds %d vertices", n, t, have)
		}
	}
	if err := checkSection("sync", syncEdges, EdgeSync, lens); err != nil {
		return nil, err
	}
	if err := checkSection("data", dataEdges, EdgeData, lens); err != nil {
		return nil, err
	}
	n := len(lens)
	ints := make([]int, 2*n+1)
	empty, base := ints[:n:n], ints[n:]
	for t, ln := range lens {
		base[t+1] = base[t] + ln
	}
	gaps, _ := g.gapsForPrefix(lens, nil)
	a := newIncStore(n).extend(g, syncEdges, dataEdges, lens, empty, base, summarizeGaps(gaps), epoch)
	a.syms = g.interner.Len()
	a.totals.add(g, empty, lens)
	return a, nil
}

// checkSection validates one stored edge section: uniform kind,
// canonical order, endpoints inside the prefix.
func checkSection(name string, edges []Edge, kind EdgeKind, lens []int) error {
	for i := range edges {
		e := &edges[i]
		if e.Kind != kind {
			return fmt.Errorf("core: %s section edge %d has kind %v", name, i, e.Kind)
		}
		if !subInPrefix(e.From, lens) || !subInPrefix(e.To, lens) {
			return fmt.Errorf("core: %s section edge %d (%v -> %v) outside the vertex prefix",
				name, i, e.From, e.To)
		}
		if i > 0 && edgeLess(e, &edges[i-1]) {
			return fmt.Errorf("core: %s section out of canonical order at edge %d", name, i)
		}
	}
	return nil
}
