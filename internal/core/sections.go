package core

// The on-disk CPG format (internal/cpgfile) serializes an Analysis as
// columnar sections — vertices, sync/data adjacency, gaps — and loads
// them back without re-deriving anything. This file is the exported
// surface that makes the round trip possible from outside the package:
// extracting the canonical sections of an Analysis, appending restored
// vertices and sync-edge log entries to a Graph, and assembling an
// Analysis directly over pre-derived sections (a checked front for the
// flat builder newAnalysis, which the tests' reference fold shares;
// Analyze and the live fold derive their sections and build through
// incStore).

import "fmt"

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
// lie, so nothing is materialized. The per-vertex sums are the ones the
// fold carried, so a query costs O(threads + overlay layers).
func (a *Analysis) Stats() Stats {
	vt := a.vertexTotals()
	st := Stats{
		SubComputations: a.NumVertices(),
		Thunks:          vt.thunks,
		ReadSetPages:    vt.readSetPages,
		WriteSetPages:   vt.writeSetPages,
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

// AppendSub appends a restored sub-computation to its thread's shard —
// the deserialization mirror of the EndSub append path. Alphas must
// arrive dense and in order per thread.
func (g *Graph) AppendSub(sc *SubComputation) error { return g.add(sc) }

// RestoreSyncEdge re-records a release -> acquire schedule dependency in
// the acquiring thread's edge log (deserialization path; the object ref
// must come from this graph's interner).
func (g *Graph) RestoreSyncEdge(from, to SubID, object ObjRef) {
	g.addSyncEdge(from, to, object)
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
// producing an index that silently mis-answers queries. Completeness
// comes from the graph's recorded gaps, as in every other construction
// path.
func NewAnalysisFromSections(g *Graph, lens []int, epoch uint64, syncEdges, dataEdges []Edge) (*Analysis, error) {
	if len(lens) != g.Threads() {
		return nil, fmt.Errorf("core: section lens cover %d threads, graph has %d", len(lens), g.Threads())
	}
	for t, n := range lens {
		if n < 0 || n != g.shardLen(t) {
			return nil, fmt.Errorf("core: section len %d for thread %d, graph holds %d vertices",
				n, t, g.shardLen(t))
		}
	}
	if err := checkSection("sync", syncEdges, EdgeSync, lens); err != nil {
		return nil, err
	}
	if err := checkSection("data", dataEdges, EdgeData, lens); err != nil {
		return nil, err
	}
	return newAnalysis(g, syncEdges, dataEdges, lens, epoch), nil
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
