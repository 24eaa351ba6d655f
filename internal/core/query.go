package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sync"

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
// base[thread] + alpha. Derived edges live in two shared append-only
// arenas (csr.go); adjacency is a sealed CSR base plus small per-epoch
// overlay layers, so an incremental fold publishes a new epoch in time
// proportional to the delta, and a one-fold Analyze seals everything
// into the base once it clears the compaction floor. Control edges are
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
	ar     arenaPair
	preds  []threadPreds
	succ   *succIndex
	layers []succLayer

	// flat is the lazily materialized canonical edge sequence (control,
	// sync, data) — built on first Edges() call, shared by all readers.
	flatOnce sync.Once
	flat     []Edge

	// totals are the prefix's per-vertex sums Stats reports. A fold
	// carries them forward; a flat construction (the .cpg load path)
	// sets walkTotals and leaves them to Stats's first call, so loading
	// never walks the vertices.
	totals     vertexTotals
	walkTotals bool
	totalsOnce sync.Once
}

// vertexTotals sums the per-vertex counters of a prefix.
type vertexTotals struct {
	thunks, readSetPages, writeSetPages int
}

// add counts subs into the totals.
func (vt *vertexTotals) add(subs []*SubComputation) {
	for _, sc := range subs {
		vt.thunks += len(sc.Thunks)
		vt.readSetPages += sc.ReadSet.Len()
		vt.writeSetPages += sc.WriteSet.Len()
	}
}

// vertexTotals returns the prefix's per-vertex sums, walking the prefix
// once if no fold carried them.
func (a *Analysis) vertexTotals() vertexTotals {
	if a.walkTotals {
		a.totalsOnce.Do(func() {
			// One shard lock per thread, not one per vertex: a stats query
			// on a live graph must not trade lock round-trips with the
			// thread that is appending.
			for t, n := range a.lens {
				a.totals.add(a.g.threadTail(nil, t, 0, n))
			}
		})
	}
	return a.totals
}

// Analyze derives all edges over the graph's current vertex prefix and
// builds the adjacency indexes: one fold of a throw-away
// IncrementalAnalyzer over the whole graph, stamped epoch 0. The prefix
// is therefore the same causally closed cut every fold takes (a mid-run
// Analyze never includes a reader without its writers), and sync-edge
// log entries whose endpoints are not yet recorded vertices (an acquire
// logs its edge before the acquiring sub-computation seals, so mid-run
// graphs contain such entries) are left out. After a completed Run no
// such entries remain, so post-mortem analyses see every logged edge.
func (g *Graph) Analyze() *Analysis {
	a := NewIncrementalAnalyzer(g).Fold()
	a.epoch = 0
	return a
}

// controlEdgesFor generates the program-order edges of a vertex prefix.
func controlEdgesFor(lens []int) []Edge {
	var out []Edge
	for t, n := range lens {
		for i := 1; i < n; i++ {
			out = append(out, Edge{
				From: SubID{Thread: t, Alpha: uint64(i - 1)},
				To:   SubID{Thread: t, Alpha: uint64(i)},
				Kind: EdgeControl,
			})
		}
	}
	return out
}

// subInPrefix reports whether id lies inside the prefix bounded by lens.
func subInPrefix(id SubID, lens []int) bool {
	return id.Thread >= 0 && id.Thread < len(lens) && id.Alpha < uint64(lens[id.Thread])
}

// newAnalysis builds a fully sealed analysis over already-derived sync
// and data sections (each canonically sorted): the whole edge set goes
// into one sealed successor base with no overlay. NewAnalysisFromSections
// (the .cpg load path) and the tests' reference fold land here; the
// fold proper — Analyze included — builds structurally equivalent
// analyses through incStore.view, and the equivalence property tests pin
// the two byte-identical.
func newAnalysis(g *Graph, syncEdges, dataEdges []Edge, lens []int, epoch uint64) *Analysis {
	a := &Analysis{g: g, epoch: epoch, lens: lens, walkTotals: true}
	a.comp = summarizeGaps(g.gapsForPrefix(lens))
	a.base = make([]int, len(a.lens)+1)
	for t, n := range a.lens {
		a.base[t+1] = a.base[t] + n
	}
	a.ar = arenaPair{sync: syncEdges, data: dataEdges}
	all := freshLayer(0, len(syncEdges), 0, len(dataEdges))
	a.succ = buildSuccIndex(a.ar, all.syncSeq, all.dataSeq, lens)
	a.preds = buildPredIndex(a.ar, all.syncSeq, all.dataSeq, lens)
	return a
}

// vertexIndex maps a SubID to its dense index.
func (a *Analysis) vertexIndex(id SubID) (int32, bool) {
	if id.Thread < 0 || id.Thread >= len(a.lens) || id.Alpha >= uint64(a.lens[id.Thread]) {
		return 0, false
	}
	return int32(a.base[id.Thread]) + int32(id.Alpha), true
}

// idAt is vertexIndex's inverse: the SubID at dense index vi.
func (a *Analysis) idAt(vi int32) SubID {
	t, _ := slices.BinarySearch(a.base[1:], int(vi))
	// BinarySearch finds the first t with base[t+1] >= vi; an exact hit
	// means vi starts the next thread's range.
	for a.base[t+1] == int(vi) {
		t++
	}
	return SubID{Thread: t, Alpha: uint64(int(vi) - a.base[t])}
}

// Graph returns the underlying CPG.
func (a *Analysis) Graph() *Graph { return a.g }

// Edges returns all derived edges in the canonical order (control, then
// sync, then data, each section sorted). The flat sequence is
// materialized lazily on first call and cached; traversals never touch
// it — only exports and full-sweep consumers pay for it.
func (a *Analysis) Edges() []Edge {
	a.flatOnce.Do(func() {
		syncSeq, dataSeq := canonicalRefSeqs(a.ar, a.succ, a.layers)
		out := controlEdgesFor(a.lens)
		out = slices.Grow(out, len(syncSeq)+len(dataSeq))
		for _, r := range syncSeq {
			out = append(out, *a.ar.edge(r))
		}
		for _, r := range dataSeq {
			out = append(out, *a.ar.edge(r))
		}
		a.flat = out
	})
	return a.flat
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
		out = a.g.threadTail(out, t, 0, n)
	}
	return out
}

// ExportJSON writes a deterministic JSON document of the analysis: the
// per-thread vertex counts of the analyzed prefix and every derived edge
// in the canonical order. Two analyses over the same prefix — however
// they were built, batch or folded — export byte-identical documents;
// the incremental equivalence property tests pin exactly that. The
// epoch number is deliberately excluded: it describes how the analysis
// was reached, not what it contains.
func (a *Analysis) ExportJSON(w io.Writer) error {
	doc := struct {
		ThreadLens []int  `json:"thread_lens"`
		Edges      []Edge `json:"edges"`
	}{ThreadLens: a.lens, Edges: a.Edges()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("core: export analysis: %w", err)
	}
	return nil
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
			e = *a.ar.edge(r)
		}
		chain = append(chain, e)
		cur = e.From
	}
	slices.Reverse(chain)
	return chain, nil
}

// Verify checks structural invariants of the recorded CPG:
//
//  1. every edge agrees with the vector-clock happens-before order;
//  2. the combined edge relation is acyclic;
//  3. read/write sets only appear on recorded vertices: every vertex
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

// VerifyCtx is Verify with cancellation: the edge sweep and the
// acyclicity check stop and return ctx's error once the context is done.
func (a *Analysis) VerifyCtx(ctx context.Context) error {
	// Invariant 3a: stored vertices sit at their recorded slots. Only the
	// analyzed prefix is checked — vertices sealed after the fold belong
	// to a later epoch's analysis.
	for t := 0; t < len(a.lens); t++ {
		seq := a.g.ThreadSeq(t)
		if len(seq) > a.lens[t] {
			seq = seq[:a.lens[t]]
		}
		for i, sc := range seq {
			if want := (SubID{Thread: t, Alpha: uint64(i)}); sc.ID != want {
				return a.gapVerdict(
					fmt.Errorf("core: vertex at slot %v records ID %v", want, sc.ID), want)
			}
		}
	}
	for ei, e := range a.Edges() {
		if ei%cancelCheckEvery == cancelCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		sa, ok := a.g.Sub(e.From)
		if !ok {
			return a.gapVerdict(fmt.Errorf("core: edge from unknown vertex %v", e.From), e.From, e.To)
		}
		sb, ok := a.g.Sub(e.To)
		if !ok {
			return a.gapVerdict(fmt.Errorf("core: edge to unknown vertex %v", e.To), e.From, e.To)
		}
		// Invariant 3b: data-edge pages come from the endpoints' sets.
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
		if e.From.Thread == e.To.Thread {
			if e.From.Alpha >= e.To.Alpha {
				return a.gapVerdict(
					fmt.Errorf("core: intra-thread edge %v -> %v against program order", e.From, e.To),
					e.From, e.To)
			}
			continue
		}
		if ord := sa.Clock.Compare(sb.Clock); ord != vclock.Before {
			return a.gapVerdict(
				fmt.Errorf("core: %s edge %v -> %v has clock order %v, want ->",
					e.Kind, e.From, e.To, ord),
				e.From, e.To)
		}
	}
	return a.checkAcyclic(ctx)
}

// checkAcyclic runs Kahn's algorithm over the edge relation: control
// in-degrees come from the prefix lens, sync and data in-degrees from a
// direct arena sweep, and the removal wave walks the overlay adjacency.
func (a *Analysis) checkAcyclic(ctx context.Context) error {
	n := a.NumVertices()
	indeg := make([]int32, n)
	for t, ln := range a.lens {
		for i := 1; i < ln; i++ {
			indeg[a.base[t]+i]++
		}
	}
	for i := range a.ar.sync {
		if vi, ok := a.vertexIndex(a.ar.sync[i].To); ok {
			indeg[vi]++
		}
	}
	for i := range a.ar.data {
		if vi, ok := a.vertexIndex(a.ar.data[i].To); ok {
			indeg[vi]++
		}
	}
	var queue []int32
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, int32(i))
		}
	}
	var scratch visitScratch
	removed := 0
	var ctxErr error
	for len(queue) > 0 {
		cur := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		removed++
		if removed%cancelCheckEvery == 0 {
			if ctxErr = ctx.Err(); ctxErr != nil {
				return ctxErr
			}
		}
		a.visitSuccs(a.idAt(cur), &scratch, func(_ edgeRef, e *Edge) bool {
			vi, ok := a.vertexIndex(e.To)
			if !ok {
				return true
			}
			indeg[vi]--
			if indeg[vi] == 0 {
				queue = append(queue, vi)
			}
			return true
		})
	}
	if removed != n {
		err := fmt.Errorf("core: CPG contains a cycle (%d of %d vertices sorted)", removed, n)
		// A cycle has no single implicated vertex; over a degraded
		// recording it cannot be pinned on observed behaviour.
		if a.Degraded() {
			return fmt.Errorf("%w: %v", ErrUnverifiable, err)
		}
		return err
	}
	return nil
}
