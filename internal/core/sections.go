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
	"math"
	"sync"
	"unsafe"

	"github.com/repro/inspector/internal/wire"
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
		Thunks:          a.totals.Thunks + a.g.column.count(),
		ReadSetPages:    a.totals.ReadSetPages,
		WriteSetPages:   a.totals.WriteSetPages,
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

// EdgeSeq is a read-only view of one canonical edge section.
type EdgeSeq struct {
	ar   *arenas
	refs []edgeRef
}

// Len returns the number of edges in the section.
func (s EdgeSeq) Len() int { return len(s.refs) }

// At returns the i'th edge of the section, materialized from its row: a
// data edge's Pages alias the analysis's storage and must not be
// modified.
func (s EdgeSeq) At(i int) Edge { return s.ar.edge(s.refs[i]) }

// EdgeSeqs returns views of the canonical sync and data edge sections
// of the analysis, each in the canonical sorted order. Together with the
// control edges (fully determined by ThreadLens and never stored) they
// reproduce exactly the sequence Edges returns. Nothing is copied: a
// one-fold analysis hands out its sealed base as is.
func (a *Analysis) EdgeSeqs() (syncEdges, dataEdges EdgeSeq) {
	syncSeq, dataSeq := canonicalRefSeqs(&a.ar, a.succ, a.layers)
	return EdgeSeq{&a.ar, syncSeq}, EdgeSeq{&a.ar, dataSeq}
}

// EdgeSections returns EdgeSeqs as edges the caller may keep (their
// Pages still alias the analysis's storage): the adapter for callers
// that hold a section as []Edge, NewAnalysisFromSections' input.
func (a *Analysis) EdgeSections() (syncEdges, dataEdges []Edge) {
	syncSeq, dataSeq := a.EdgeSeqs()
	return syncSeq.copyOut(), dataSeq.copyOut()
}

func (s EdgeSeq) copyOut() []Edge {
	out := make([]Edge, s.Len())
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}

// EdgeRows is one edge section as the store keeps it: pointer-free rows,
// and for a data section the page arena its rows of more than one page
// point into. A .cpg decoder appends to one row by row, in the stored
// order, and NewAnalysisFromRows adopts it whole. The zero value is
// empty.
type EdgeRows struct {
	rows  []edgeRow
	pages []uint64
}

// MakeEdgeRows returns an empty section with room for n rows.
func MakeEdgeRows(n int) EdgeRows { return EdgeRows{rows: make([]edgeRow, 0, n)} }

// EdgeRowBytes and EdgeRefBytes are the sizes of a stored row and of the
// ref each adjacency index holds per edge: what decoders estimate a
// restored analysis's edge storage from.
const (
	EdgeRowBytes = int(unsafe.Sizeof(edgeRow{}))
	EdgeRefBytes = int(unsafe.Sizeof(edgeRef(0)))
)

// Len returns the number of rows.
func (s *EdgeRows) Len() int { return len(s.rows) }

// Pages returns the number of words in the page arena (a row of one
// page holds it itself).
func (s *EdgeRows) Pages() int { return len(s.pages) }

// AppendSync appends the sync edge from -> to on the object obj. Both
// endpoints must be ids of recorded vertices.
func (s *EdgeRows) AppendSync(from, to SubID, obj ObjRef) {
	s.rows = append(s.rows, edgeRow{from: refOf(from), to: refOf(to), obj: obj})
}

// AppendData appends the data edge from -> to over pages, which are
// copied into the row or, more than one, into the section's page arena.
func (s *EdgeRows) AppendData(from, to SubID, pages []uint64) {
	r := edgeRow{from: refOf(from), to: refOf(to), n: uint32(len(pages))}
	switch len(pages) {
	case 0:
	case 1:
		r.page[0] = pages[0]
	default:
		r.page[0] = uint64(len(s.pages))
		s.pages = append(s.pages, pages...)
	}
	s.rows = append(s.rows, r)
}

// ParseData appends the data edge from -> to whose pages are the
// AppendPages list at the cursor, read straight into the row (one page)
// or the page arena under the field codecs' rules (fieldcodec.go): the
// count is checked against the bytes that remain — every page costs at
// least one — before the arena grows, and a zero delta or an
// overflowing one fails the cursor under field. A list that fails to
// parse appends nothing. A run that does not fit doubles the arena, or
// grows it to just hold the run when that is more, but never by more
// words than the bytes that remain can spell.
func (s *EdgeRows) ParseData(c *wire.Cursor, field string, from, to SubID) {
	n := c.Count(field, 1)
	if c.Err() != nil {
		return
	}
	r := edgeRow{from: refOf(from), to: refOf(to), n: uint32(n)}
	switch {
	case n == 1:
		// A one-page list is its page: the first delta is from 0.
		if r.page[0] = c.Uvarint(field); c.Err() != nil {
			return
		}
	case n > 1:
		off := len(s.pages)
		if off+n > cap(s.pages) {
			grown := make([]uint64, off, off+n+min(cap(s.pages), len(c.Rest())))
			copy(grown, s.pages)
			s.pages = grown
		}
		pages := parsePageDeltas(c, field, n, s.pages)
		if pages == nil {
			return
		}
		r.page[0], s.pages = uint64(off), pages
	}
	s.rows = append(s.rows, r)
}

// Less reports whether row i sorts before row j in the canonical edge
// order, sync rows' objects resolved against names.
func (s *EdgeRows) Less(i, j int, names []string) bool {
	ar := arenas{names: names}
	return ar.cmp(&s.rows[i], &s.rows[j]) < 0
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
// threads' edge logs (deserialization path): each row is a release ->
// acquire dependency on its object, a ref of this graph's interner.
// Each thread's entries keep the order given and go into its log
// presized, under one lock; an entry whose acquiring thread has no slot
// is dropped, as the recorder drops it.
func (g *Graph) RestoreSyncLog(s *EdgeRows) {
	// Thread t's entries go to recs[off[t]:off[t+1]]: count, sum, then
	// place each entry at its thread's cursor, which leaves off[t] at the
	// end of thread t's run.
	off := make([]int, len(g.shards)+1)
	for i := range s.rows {
		if t := s.rows[i].to.thread(); t < len(g.shards) {
			off[t+1]++
		}
	}
	for t := range g.shards {
		off[t+1] += off[t]
	}
	recs := make([]DeltaSyncEdge, off[len(g.shards)])
	for i := range s.rows {
		if r := &s.rows[i]; r.to.thread() < len(g.shards) {
			t := r.to.thread()
			recs[off[t]] = DeltaSyncEdge{From: r.from.id(), To: r.to.id(), Object: r.obj}
			off[t]++
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
// Kind, Object) — on edges, for callers that hold a section as []Edge
// (NewAnalysisFromSections' input). A decoder checks its rows' order
// with EdgeRows.Less.
func EdgeCanonicalLess(a, b *Edge) bool { return edgeLess(a, b) }

// NewAnalysisFromSections is NewAnalysisFromRows over sections held as
// edges: each must be of its kind and inside the prefix; the edges are
// copied into rows, which are then checked and adopted. A sync edge's
// object is its ref in g's symbol table, or — for a name the table does
// not hold — a ref past it in the analysis's own names, so the edge
// still reads back as given while Encode, which resolves objects
// against the analysis's symbol table, refuses it.
func NewAnalysisFromSections(g *Graph, lens []int, epoch uint64, syncEdges, dataEdges []Edge) (*Analysis, error) {
	names := g.interner.View(math.MaxInt)
	syms := len(names)
	var extra map[string]ObjRef
	syncRows, dataRows := MakeEdgeRows(len(syncEdges)), MakeEdgeRows(len(dataEdges))
	for i := range syncEdges {
		e := &syncEdges[i]
		if err := checkEdge("sync", i, e, EdgeSync, lens); err != nil {
			return nil, err
		}
		obj, ok := g.interner.Find(e.Object)
		if !ok || int(obj) >= syms {
			ref, seen := extra[e.Object]
			if !seen {
				if extra == nil {
					extra = make(map[string]ObjRef)
				}
				ref, names = ObjRef(len(names)), append(names, e.Object)
				extra[e.Object] = ref
			}
			obj = uint32(ref)
		}
		syncRows.AppendSync(e.From, e.To, ObjRef(obj))
	}
	for i := range dataEdges {
		e := &dataEdges[i]
		if err := checkEdge("data", i, e, EdgeData, lens); err != nil {
			return nil, err
		}
		dataRows.AppendData(e.From, e.To, e.Pages)
	}
	if err := checkLens(g, lens); err != nil {
		return nil, err
	}
	var totals VertexTotals
	totals.add(g, make([]int, len(lens)), lens)
	return newAnalysisFromRows(g, lens, epoch, &syncRows, &dataRows, names, syms, totals)
}

// checkEdge checks edge i of a section held as edges: its kind, and
// both endpoints inside the prefix (so rows can spell them).
func checkEdge(name string, i int, e *Edge, kind EdgeKind, lens []int) error {
	if e.Kind != kind {
		return fmt.Errorf("core: %s section edge %d has kind %v", name, i, e.Kind)
	}
	if !subInPrefix(e.From, lens) || !subInPrefix(e.To, lens) {
		return fmt.Errorf("core: %s section edge %d (%v -> %v) outside the vertex prefix",
			name, i, e.From, e.To)
	}
	return nil
}

// NewAnalysisFromRows assembles a sealed Analysis over pre-derived
// canonical edge sections, skipping derivation entirely — the load path
// for on-disk CPGs, whose data edges were derived once at write time.
// lens must cover exactly the graph's recorded prefix, and both
// sections must be canonically sorted with every endpoint inside the
// prefix, every sync object inside the symbol table; violations are
// corruption and fail loudly rather than producing an index that
// silently mis-answers queries. The sections then go into an empty
// store as one epoch, which is what Graph.Analyze builds: a sealed base
// above succCompactFloor, one overlay layer below it. The store adopts
// both sections' rows and data's page arena, so the caller must not
// modify either afterwards. Completeness comes from the graph's
// recorded gaps. totals are the prefix's per-vertex sums, which the
// caller counted as it decoded the vertices, so the prefix is not
// walked again; Stats reports them.
func NewAnalysisFromRows(g *Graph, lens []int, epoch uint64, syncRows, dataRows *EdgeRows, totals VertexTotals) (*Analysis, error) {
	if err := checkLens(g, lens); err != nil {
		return nil, err
	}
	names := g.interner.View(math.MaxInt)
	return newAnalysisFromRows(g, lens, epoch, syncRows, dataRows, names, len(names), totals)
}

// checkLens checks that lens is g's whole prefix: one length per
// thread, each the number of vertices the thread holds.
func checkLens(g *Graph, lens []int) error {
	if len(lens) != g.Threads() {
		return fmt.Errorf("core: section lens cover %d threads, graph has %d", len(lens), g.Threads())
	}
	for t, n := range lens {
		if have := g.shards[t].seq.Len(); n != have {
			return fmt.Errorf("core: section len %d for thread %d, graph holds %d vertices", n, t, have)
		}
	}
	return nil
}

// newAnalysisFromRows is NewAnalysisFromRows, over lens checkLens
// accepted, with sync rows' objects resolved against names, whose first
// syms entries are g's symbol table, the analysis's.
func newAnalysisFromRows(g *Graph, lens []int, epoch uint64, syncRows, dataRows *EdgeRows, names []string, syms int, totals VertexTotals) (*Analysis, error) {
	n := len(lens)
	st := newIncStore(n)
	st.ar = arenas{sync: syncRows.rows, data: dataRows.rows, pages: dataRows.pages, names: names}
	if err := checkSection("sync", &st.ar, st.ar.sync, lens); err != nil {
		return nil, err
	}
	if err := checkSection("data", &st.ar, st.ar.data, lens); err != nil {
		return nil, err
	}
	ints := make([]int, 2*n+1)
	empty, base := ints[:n:n], ints[n:]
	for t, ln := range lens {
		base[t+1] = base[t] + ln
	}
	gaps, _ := g.gapsForPrefix(lens, nil)
	a := st.extend(g, 0, 0, lens, empty, base, summarizeGaps(gaps), epoch)
	a.syms, a.totals = syms, totals
	return a, nil
}

// checkSection validates one stored row section: canonical order,
// endpoints inside the prefix, sync objects inside the symbol table and
// data pages inside the page arena.
func checkSection(name string, ar *arenas, rows []edgeRow, lens []int) error {
	for i := range rows {
		r := &rows[i]
		if !r.from.inPrefix(lens) || !r.to.inPrefix(lens) {
			return fmt.Errorf("core: %s section edge %d (%v -> %v) outside the vertex prefix",
				name, i, r.from.id(), r.to.id())
		}
		if int(r.obj) >= len(ar.names) {
			return fmt.Errorf("core: %s section edge %d names symbol %d of %d", name, i, r.obj, len(ar.names))
		}
		if r.n > 1 && (r.page[0] > uint64(len(ar.pages)) || uint64(r.n) > uint64(len(ar.pages))-r.page[0]) {
			return fmt.Errorf("core: %s section edge %d pages [%d, +%d) outside the %d-word page arena",
				name, i, r.page[0], r.n, len(ar.pages))
		}
		if i > 0 && ar.cmp(r, &rows[i-1]) < 0 {
			return fmt.Errorf("core: %s section out of canonical order at edge %d", name, i)
		}
	}
	return nil
}
