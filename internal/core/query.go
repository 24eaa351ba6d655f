package core

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"github.com/repro/inspector/internal/vclock"
)

// ErrUnverifiable tags Verify failures whose implicated vertices lie
// inside a recorded trace-loss gap: the invariant could not be
// established from the degraded recording, which is different from
// having observed a violation. errors.Is distinguishes the two.
var ErrUnverifiable = errors.New("core: unverifiable across a trace gap")

// cancelCheckEvery is the traversal granularity of context cancellation:
// closures, path searches, and verification probe ctx.Err() once per this
// many visited vertices (or checked edges), bounding both the check
// overhead and the latency of honoring a cancellation.
const cancelCheckEvery = 64

// Analysis is a queryable view of a CPG prefix. Build one with
// Graph.Analyze after recording finishes, or fold successive ones during
// recording with an IncrementalAnalyzer. Either way the Analysis itself
// is immutable: it covers exactly the per-thread vertex prefix captured
// at construction and never observes later appends, which is what lets
// one Analysis serve any number of concurrent readers.
//
// Vertices are densely indexed in (thread, alpha) order — index(id) =
// base[thread] + alpha. Derived edges live as pointer-free rows in
// shared append-only arenas (csr.go), and every *Edge a caller sees is
// a view materialized from a row; adjacency is a sealed CSR base plus
// small per-epoch overlay layers, so an incremental fold publishes a
// new epoch in time proportional to the delta, and a one-fold Analyze
// seals everything into the base once it clears the compaction floor. Control edges are
// never stored: they are fully determined by the prefix lens and
// synthesized during traversal and export.
type Analysis struct {
	g *Graph
	// epoch numbers the fold that produced this Analysis: 0 for a batch
	// Analyze, 1.. for successive IncrementalAnalyzer folds (FoldAs names
	// its own).
	epoch uint64
	// base[t] is thread t's first dense index; lens[t] its sequence
	// length.
	base []int
	lens []int
	// comp snapshots the trace-loss gaps visible inside the analyzed
	// prefix at construction time, so completeness answers stay
	// consistent with the epoch even while the graph keeps recording.
	comp Completeness

	// Edge storage and adjacency (csr.go): arena views, per-thread
	// predecessor arrays, sealed successor base + overlay layers.
	ar     arenas
	preds  []threadPreds
	succ   *succIndex
	layers []succLayer

	// syms is the length of the graph's interner prefix this Analysis
	// names its symbols from: what the cut saw, or the whole loaded table.
	syms int

	// totals are the prefix's per-vertex sums Stats reports, set at
	// construction: a fold carries them forward, a restored analysis sums
	// its vertices once.
	totals VertexTotals
}

// VertexTotals sums the per-vertex counters of a prefix: each vertex's
// NumThunks, ReadSet.Len and WriteSet.Len.
type VertexTotals struct {
	Thunks, ReadSetPages, WriteSetPages int
}

// add counts g's vertices between the prefixes from and to into the
// totals, reading each shard in place (the sets' sizes by field: Len
// has a value receiver, and a PageSet is 80 bytes to copy).
func (vt *VertexTotals) add(g *Graph, from, to []int) {
	for _, sc := range g.between(from, to) {
		vt.Thunks += int(sc.nThunks)
		vt.ReadSetPages += sc.ReadSet.n
		vt.WriteSetPages += sc.WriteSet.n
	}
}

// Analyze derives all edges over the graph's current vertex prefix and
// builds the adjacency indexes: a throw-away IncrementalAnalyzer's one
// fold to the graph's current causally closed cut, stamped epoch 0 (a
// mid-run Analyze never includes a reader without its writers), with
// no Cutter and no delta. Sync-edge log entries whose endpoints are not
// yet recorded vertices (an acquire logs its edge before the acquiring
// sub-computation seals, so mid-run graphs contain such entries) are
// left out; after a completed Run none remain.
func (g *Graph) Analyze() *Analysis { return g.AnalyzeAs(0) }

// AnalyzeAs is Analyze stamped epoch e: a quiesced recording's analysis
// at its final epoch e, whose cut covers the whole graph.
func (g *Graph) AnalyzeAs(e uint64) *Analysis { return newWholeAnalyzer(g).FoldAs(e) }

// subInPrefix reports whether id lies inside the prefix bounded by lens.
func subInPrefix(id SubID, lens []int) bool {
	return id.Thread >= 0 && id.Thread < len(lens) && id.Alpha < uint64(lens[id.Thread])
}

// vertexIndex maps a SubID to its dense index.
func (a *Analysis) vertexIndex(id SubID) (int32, bool) {
	if id.Thread < 0 || id.Thread >= len(a.lens) || id.Alpha >= uint64(a.lens[id.Thread]) {
		return 0, false
	}
	return int32(a.base[id.Thread]) + int32(id.Alpha), true
}

// Graph returns the underlying CPG.
func (a *Analysis) Graph() *Graph { return a.g }

// Symbols returns the analysis's symbol table in ref order: the graph's
// interner as the cut that produced it saw it, so strings a still-running
// recording interns later never appear (the .cpg file embeds it).
func (a *Analysis) Symbols() []string { return a.g.interner.Prefix(a.syms) }

// ObjectRef looks name up in the analysis's symbol table without
// interning it.
func (a *Analysis) ObjectRef(name string) (ObjRef, bool) {
	id, ok := a.g.interner.Find(name)
	return ObjRef(id), ok && int(id) < a.syms
}

// Edges returns all derived edges in the canonical order (control, then
// sync, then data, each section sorted), materialized into a fresh
// slice (nil when there are none) that the analysis does not keep:
// each call pays for every edge. A one-pass consumer ranges over
// AllEdges instead. A data edge's Pages alias the analysis's storage
// and must not be modified.
func (a *Analysis) Edges() []Edge {
	st := a.Stats()
	n := st.ControlEdges + st.SyncEdges + st.DataEdges
	if n == 0 {
		return nil
	}
	out := make([]Edge, 0, n)
	for e := range a.AllEdges {
		out = append(out, *e)
	}
	return out
}

// AllEdges yields the edges of Edges, in its order, without
// materializing them: the control edges generated from the prefix
// lens, then the sync and data sections read from the arenas by ref
// (the canonical sequences of a one-fold analysis — a restored .cpg, a
// batch Analyze — are its stored ones; a live fold's overlay is merged
// first). Every edge is yielded in one view, filled afresh for the
// next: the caller copies what it keeps, and a data edge's Pages alias
// the analysis's storage, so the caller modifies nothing.
func (a *Analysis) AllEdges(yield func(*Edge) bool) {
	view := Edge{Kind: EdgeControl}
	for t, n := range a.lens {
		for i := 1; i < n; i++ {
			view.From = SubID{Thread: t, Alpha: uint64(i - 1)}
			view.To = SubID{Thread: t, Alpha: uint64(i)}
			if !yield(&view) {
				return
			}
		}
	}
	syncSeq, dataSeq := canonicalRefSeqs(&a.ar, a.succ, a.layers)
	for _, seq := range [...][]edgeRef{syncSeq, dataSeq} {
		for _, r := range seq {
			a.ar.fill(r, &view)
			if !yield(&view) {
				return
			}
		}
	}
}

// Epoch returns the epoch number of the fold that produced this
// Analysis: 0 for a batch Analyze, 1.. for successive IncrementalAnalyzer
// folds (a replayed fold takes its last delta's epoch). Query
// results carry it so clients can tell which prefix of a still-running
// execution they are looking at.
func (a *Analysis) Epoch() uint64 { return a.epoch }

// NumVertices returns the vertex count of the analyzed prefix.
func (a *Analysis) NumVertices() int { return a.base[len(a.lens)] }

// Completeness returns the trace-loss summary of the analyzed prefix,
// snapshotted at construction. Complete=true is the common case.
func (a *Analysis) Completeness() Completeness { return a.comp }

// Degraded reports whether the analyzed prefix contains any trace-loss
// gap — results over a degraded analysis are sound for what was
// recorded but may miss dependencies inside the gap intervals.
func (a *Analysis) Degraded() bool { return !a.comp.Complete }

// inGap reports whether id falls inside a recorded gap interval.
func (a *Analysis) inGap(id SubID) bool {
	for _, tg := range a.comp.Gaps {
		if tg.Thread != id.Thread {
			continue
		}
		for _, gp := range tg.Gaps {
			if id.Alpha >= gp.FromAlpha && id.Alpha <= gp.ToAlpha {
				return true
			}
		}
	}
	return false
}

// gapVerdict downgrades a verification failure to ErrUnverifiable when
// any implicated vertex lies inside a trace-loss gap: the recording
// cannot vouch for the invariant there, which is weaker than having
// witnessed a violation.
func (a *Analysis) gapVerdict(err error, ids ...SubID) error {
	for _, id := range ids {
		if a.inGap(id) {
			return fmt.Errorf("%w: %v", ErrUnverifiable, err)
		}
	}
	return err
}

// Subs returns the analyzed prefix's vertices in (thread, alpha) order.
// Unlike Graph.Subs it never sees vertices appended after the fold, so
// consumers that must stay consistent with the analysis (stats, exports)
// read the prefix through it.
func (a *Analysis) Subs() []*SubComputation {
	out := make([]*SubComputation, 0, a.NumVertices())
	for t, n := range a.lens {
		out = a.g.shards[t].seq.appendTo(out, 0, n)
	}
	return out
}

// ExportJSON writes a deterministic JSON document of the analysis: the
// per-thread vertex counts of the analyzed prefix and every derived edge
// in the canonical order. Two analyses over the same prefix — however
// they were built, batch or folded — export byte-identical documents;
// the incremental equivalence property tests pin exactly that. The
// epoch number is deliberately excluded: it describes how the analysis
// was reached, not what it contains. The edges are written one at a
// time as AllEdges yields them, in the bytes encoding/json's indented
// encoder gives the document {"thread_lens", "edges"} (edges null when
// there are none), so an export builds no edge list.
func (a *Analysis) ExportJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	err := a.writeJSON(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("core: export analysis: %w", err)
	}
	return nil
}

func (a *Analysis) writeJSON(w *bufio.Writer) error {
	lens, err := json.MarshalIndent(a.lens, "  ", "  ")
	if err != nil {
		return err
	}
	w.WriteString("{\n  \"thread_lens\": ")
	w.Write(lens)
	w.WriteString(",\n  \"edges\": ")
	n := 0
	for e := range a.AllEdges {
		b, merr := json.MarshalIndent(e, "    ", "  ")
		if merr != nil {
			err = merr
			break
		}
		if n++; n == 1 {
			w.WriteString("[\n    ")
		} else {
			w.WriteString(",\n    ")
		}
		w.Write(b)
	}
	if err != nil {
		return err
	}
	if n == 0 {
		w.WriteString("null")
	} else {
		w.WriteString("\n  ]")
	}
	_, err = w.WriteString("\n}\n")
	return err
}

// kindIn reports whether k is in kinds (empty kinds means all).
func kindIn(k EdgeKind, kinds []EdgeKind) bool {
	if len(kinds) == 0 {
		return true
	}
	for _, want := range kinds {
		if k == want {
			return true
		}
	}
	return false
}

// closure runs a DFS from id over the selected edge kinds, following
// either predecessor or successor edges, and returns the visited vertex
// ids (excluding id), ordered by (thread, alpha). Dense index order is
// (thread, alpha) order, so the result is read off the visited bitmap
// in index order instead of being sorted. It checks ctx every
// cancelCheckEvery visited vertices and returns ctx's error (with the
// partial result discarded) once the context is done.
func (a *Analysis) closure(ctx context.Context, id SubID, kinds []EdgeKind, forward bool) ([]SubID, error) {
	start, ok := a.vertexIndex(id)
	if !ok {
		return nil, nil
	}
	seen := make([]uint64, (a.NumVertices()+63)/64)
	seen[start/64] |= 1 << (start % 64)
	stack := []SubID{id}
	found := 0
	var scratch visitScratch
	popped := 0
	visit := func(_ edgeRef, e *Edge) bool {
		if !kindIn(e.Kind, kinds) {
			return true
		}
		next := e.From
		if forward {
			next = e.To
		}
		ni, ok := a.vertexIndex(next)
		if !ok || seen[ni/64]&(1<<(ni%64)) != 0 {
			return true
		}
		seen[ni/64] |= 1 << (ni % 64)
		found++
		stack = append(stack, next)
		return true
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if popped++; popped%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if forward {
			a.visitSuccs(cur, &scratch, visit)
		} else {
			a.visitPreds(cur, &scratch, visit)
		}
	}
	if found == 0 {
		return nil, nil
	}
	seen[start/64] &^= 1 << (start % 64)
	out := make([]SubID, 0, found)
	t := 0
	for w, word := range seen {
		for word != 0 {
			vi := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			for vi >= a.base[t+1] {
				t++
			}
			out = append(out, SubID{Thread: t, Alpha: uint64(vi - a.base[t])})
		}
	}
	return out, nil
}

// AncestorsCtx returns the backward closure of id over the selected edge
// kinds (all kinds if none given), excluding id itself, ordered by
// (thread, alpha). It stops the traversal and returns ctx's error once
// the context is done.
func (a *Analysis) AncestorsCtx(ctx context.Context, id SubID, kinds ...EdgeKind) ([]SubID, error) {
	return a.closure(ctx, id, kinds, false)
}

// DescendantsCtx returns the forward closure of id over the selected
// edge kinds, excluding id itself, with AncestorsCtx's cancellation.
func (a *Analysis) DescendantsCtx(ctx context.Context, id SubID, kinds ...EdgeKind) ([]SubID, error) {
	return a.closure(ctx, id, kinds, true)
}

// SliceCtx returns the backward program slice of id: every
// sub-computation whose execution may have affected id, through any
// dependency kind. This is the query the paper's debugging case study
// builds on (§VIII).
func (a *Analysis) SliceCtx(ctx context.Context, id SubID) ([]SubID, error) {
	return a.AncestorsCtx(ctx, id)
}

// PageLineageCtx explains where the contents of page p seen by reader
// `at` may have come from: the maximal writers of p that happen-before
// `at`, each paired with its own data-dependency ancestors. The
// upstream-closure walks stop once the context is done.
func (a *Analysis) PageLineageCtx(ctx context.Context, p uint64, at SubID) ([]Lineage, error) {
	if _, ok := a.vertexIndex(at); !ok {
		return nil, nil
	}
	var out []Lineage
	var walkErr error
	var scratch visitScratch
	a.visitPreds(at, &scratch, func(_ edgeRef, e *Edge) bool {
		if e.Kind != EdgeData {
			return true
		}
		for _, page := range e.Pages {
			if page == p {
				up, err := a.AncestorsCtx(ctx, e.From, EdgeData)
				if err != nil {
					walkErr = err
					return false
				}
				out = append(out, Lineage{
					Writer:    e.From,
					Page:      p,
					Upstream:  up,
					ViaObject: e.Object,
				})
				break
			}
		}
		return true
	})
	if walkErr != nil {
		return nil, walkErr
	}
	return out, nil
}

// Lineage is one provenance explanation for a page read.
type Lineage struct {
	// Writer is the sub-computation whose write may be the source.
	Writer SubID
	// Page is the page in question.
	Page uint64
	// Upstream lists Writer's own transitive data-dependency sources.
	Upstream []SubID
	// ViaObject names the sync object on the edge, if any.
	ViaObject string
}

// TaintedByCtx computes forward information flow: all sub-computations
// that transitively consumed data written by source (the DIFT case
// study's primitive, §VIII). Flow propagates over data edges.
func (a *Analysis) TaintedByCtx(ctx context.Context, source SubID) ([]SubID, error) {
	return a.DescendantsCtx(ctx, source, EdgeData)
}

// pathUnset marks a vertex BFS has not reached; any other parent value
// is the edgeRef that first reached it (ctrlRef for a control edge).
const pathUnset edgeRef = -1

// PathCtx returns one dependency chain from `from` to `to` — the "why
// does B depend on A" debugging query (§VIII) — as the sequence of edges
// of a shortest such chain over the selected kinds (all kinds if none
// given). It returns nil if no chain exists; the BFS stops and returns
// ctx's error once the context is done.
func (a *Analysis) PathCtx(ctx context.Context, from, to SubID, kinds ...EdgeKind) ([]Edge, error) {
	src, ok := a.vertexIndex(from)
	if !ok {
		return nil, nil
	}
	dst, ok := a.vertexIndex(to)
	if !ok {
		return nil, nil
	}
	if src == dst {
		return nil, nil
	}
	// BFS forward from src; parent remembers the edge that first reached
	// each vertex.
	parent := make([]edgeRef, a.NumVertices())
	for i := range parent {
		parent[i] = pathUnset
	}
	queue := []SubID{from}
	var scratch visitScratch
	found := false
	popped := 0
	for len(queue) > 0 && !found {
		cur := queue[0]
		queue = queue[1:]
		if popped++; popped%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		a.visitSuccs(cur, &scratch, func(ref edgeRef, e *Edge) bool {
			if !kindIn(e.Kind, kinds) {
				return true
			}
			ni, ok := a.vertexIndex(e.To)
			if !ok || ni == src || parent[ni] != pathUnset {
				return true
			}
			parent[ni] = ref
			if ni == dst {
				found = true
				return false
			}
			queue = append(queue, e.To)
			return true
		})
	}
	if !found {
		return nil, nil
	}
	var chain []Edge
	for cur := to; cur != from; {
		vi, _ := a.vertexIndex(cur)
		var e Edge
		if r := parent[vi]; r == ctrlRef {
			e = Edge{From: SubID{Thread: cur.Thread, Alpha: cur.Alpha - 1}, To: cur, Kind: EdgeControl}
		} else {
			e = a.ar.edge(r)
		}
		chain = append(chain, e)
		cur = e.From
	}
	slices.Reverse(chain)
	return chain, nil
}

// Verify checks structural invariants of the recorded CPG:
//
//  1. every edge, control edges included, strictly raises the vector
//     clock (and an intra-thread edge follows program order). Strict
//     clock order is a strict partial order, so this also makes the
//     combined edge relation acyclic: a cycle would need some edge
//     whose clocks do not rise, and Verify names that edge;
//  2. read/write sets only appear on recorded vertices: every vertex
//     occupies the (thread, alpha) slot its ID names, and every data
//     edge's pages are contained in the writer's write set and the
//     reader's read set — no edge can smuggle in pages its endpoints
//     never recorded.
//
// It returns nil if the graph is a valid CPG. A failure whose implicated
// vertices lie inside a recorded trace-loss gap comes back wrapping
// ErrUnverifiable instead: the degraded recording cannot establish the
// invariant there, which is distinct from a witnessed violation.
func (a *Analysis) Verify() error {
	return a.VerifyCtx(context.Background())
}

// VerifyCtx is Verify with cancellation: the edge sweep stops and
// returns ctx's error once the context is done. It reads each thread's
// run and every edge in place (AllEdges), so a verify allocates per
// thread, not per edge.
func (a *Analysis) VerifyCtx(ctx context.Context) error {
	// Invariant 2a: stored vertices sit at their recorded slots. Only the
	// analyzed prefix is checked — vertices sealed after the fold belong
	// to a later epoch's analysis.
	for slot, sc := range a.g.between(make([]int, len(a.lens)), a.lens) {
		if sc.ID != slot {
			return a.gapVerdict(fmt.Errorf("core: vertex at slot %v records ID %v", slot, sc.ID), slot)
		}
	}
	var err error
	ei := 0
	a.AllEdges(func(e *Edge) bool {
		if ei++; ei%cancelCheckEvery == 0 {
			if err = ctx.Err(); err != nil {
				return false
			}
		}
		err = a.verifyEdge(e)
		return err == nil
	})
	return err
}

// verifyEdge checks one edge against its endpoints: both are recorded
// vertices, a data edge's pages lie in the writer's write set and the
// reader's read set, an intra-thread edge follows program order, and
// the edge strictly raises the vector clock.
func (a *Analysis) verifyEdge(e *Edge) error {
	sa, ok := a.g.Sub(e.From)
	if !ok {
		return a.gapVerdict(fmt.Errorf("core: edge from unknown vertex %v", e.From), e.From, e.To)
	}
	sb, ok := a.g.Sub(e.To)
	if !ok {
		return a.gapVerdict(fmt.Errorf("core: edge to unknown vertex %v", e.To), e.From, e.To)
	}
	// Invariant 2b: data-edge pages come from the endpoints' sets.
	if e.Kind == EdgeData {
		if len(e.Pages) == 0 {
			return a.gapVerdict(
				fmt.Errorf("core: data edge %v -> %v carries no pages", e.From, e.To),
				e.From, e.To)
		}
		for _, p := range e.Pages {
			if !sa.WriteSet.Contains(p) {
				return a.gapVerdict(
					fmt.Errorf("core: data edge %v -> %v page %d not in writer's write set",
						e.From, e.To, p),
					e.From, e.To)
			}
			if !sb.ReadSet.Contains(p) {
				return a.gapVerdict(
					fmt.Errorf("core: data edge %v -> %v page %d not in reader's read set",
						e.From, e.To, p),
					e.From, e.To)
			}
		}
	}
	if e.From.Thread == e.To.Thread && e.From.Alpha >= e.To.Alpha {
		return a.gapVerdict(
			fmt.Errorf("core: intra-thread edge %v -> %v against program order", e.From, e.To),
			e.From, e.To)
	}
	if ord := sa.Clock.Compare(sb.Clock); ord != vclock.Before {
		return a.gapVerdict(
			fmt.Errorf("core: %s edge %v -> %v has clock order %v, want ->",
				e.Kind, e.From, e.To, ord),
			e.From, e.To)
	}
	return nil
}
