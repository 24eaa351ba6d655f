package core

import (
	"math"
	"slices"
	"sort"
	"strings"
)

// This file is the storage layer behind Analysis: edge arenas of
// fixed-width, pointer-free rows plus a sealed-base + per-epoch-delta
// adjacency overlay. A stored edge is a 32-byte edgeRow in the sync or
// the data arena (the arena is its kind): its endpoints as (thread, α)
// pairs of 32-bit words, and a sync row's object ref or a data row's
// page count and either its one page or the offset of its pages in one
// append-only []uint64 page arena. The collector never scans the
// arenas, a decoded .cpg section is one allocation of rows, and a fold
// appends an epoch's rows and page words without allocating per edge.
// *Edge exists only at the API boundary: EdgeSeq.At, AllEdges and the
// traversal callbacks fill one view per traversal from a row — the
// object's name read from the store's view of the symbol table, the
// pages as a cap-limited window of the row or the page arena — so
// reading an edge allocates nothing.
//
// Every Analysis is built here, by incStore: the fold — Graph.Analyze
// is one fold, a restored .cpg one epoch over an empty store — appends
// each epoch's rows to the shared arenas and stacks a small overlay
// layer on top, so sealing an epoch costs O(delta) instead of
// re-materializing O(graph) flat state. (The flat builder that seals
// everything into one base, newAnalysis, is the tests' spec.)
// Compaction is size-tiered (incStore.push): a new layer absorbs its
// neighbour while the neighbour is at most twice its size, and the base
// reseals once the overlay reaches half of it. Every ref is merged
// O(log overlay) times per base generation whatever the fold cadence —
// one epoch per sealed sub-computation included — so the per-epoch cost
// is amortized O(delta · log) while every already-published Analysis
// keeps its own immutable view. Merges and traversals compare rows in
// place, in the canonical edge order: (From, To), then, for two sync
// rows that tie, their objects' names.
//
// Why an overlay works at all: every edge materialized in an epoch has
// its To among that epoch's new vertices (control edges by
// construction; data edges are derived only for new readers; sync
// edges are logged at Acquire before the acquiring vertex seals and
// deferred until it does — and From always happens-before To, so From
// is already inside the closed cut). A vertex's predecessor list is
// therefore final at its seal epoch — per-thread append-only storage —
// while only successor lists of old vertices grow, which is exactly
// what the layered successor index absorbs.

// vertexRef is a vertex (t, α) as the pair of 32-bit words a row
// stores, t above α, so refs order like SubIDs. A stored endpoint is
// always inside an analyzed prefix, whose thread slots and per-thread
// lengths stay far below 2^32.
type vertexRef uint64

// noVertex is what refOf makes of an id no pair of 32-bit words spells
// (a negative thread, a thread or α of 2^32 or more): it lies in no
// prefix, so a sync-log entry naming such an id is never folded.
const noVertex = vertexRef(math.MaxUint64)

// refOf packs id.
func refOf(id SubID) vertexRef {
	if uint64(id.Thread) > math.MaxUint32 || id.Alpha > math.MaxUint32 {
		return noVertex
	}
	return vertexRef(uint64(id.Thread)<<32 | id.Alpha)
}

func (v vertexRef) thread() int   { return int(v >> 32) }
func (v vertexRef) alpha() uint64 { return uint64(uint32(v)) }
func (v vertexRef) id() SubID     { return SubID{Thread: v.thread(), Alpha: v.alpha()} }

// inPrefix reports whether v lies inside the prefix bounded by lens.
func (v vertexRef) inPrefix(lens []int) bool {
	return v.thread() < len(lens) && v.alpha() < uint64(lens[v.thread()])
}

// edgeRow is one stored sync or data edge: 32 bytes and no pointer, so
// the arenas holding them are never scanned by the collector. The kind
// is the arena the row lies in. A sync row names its object by ref. A
// data row holds n pages: its one page in page itself — most data
// edges carry a single page, so most take no arena word — or, for more,
// the offset of their run in the page arena.
type edgeRow struct {
	from, to vertexRef
	obj      ObjRef
	n        uint32
	page     [1]uint64
}

// edgeRef names one stored edge in an Analysis's arenas: an index into
// the sync arena, or an index into the data arena tagged with
// dataRefBit. Control edges are never stored — they are fully derived
// from the prefix lens — and traversals report them as ctrlRef.
type edgeRef int32

const (
	dataRefBit edgeRef = 1 << 30
	ctrlRef    edgeRef = -2
)

// arenas is where a store's edges live: the sync and data rows, the
// page arena the data rows of more than one page point into, and the
// symbol table sync rows' objects resolve against (a view of the
// graph's interner, or of a table that begins with it). An Analysis
// holds slice-header snapshots: later epochs append beyond the captured
// lengths (disjoint addresses), never in place.
type arenas struct {
	sync  []edgeRow
	data  []edgeRow
	pages []uint64
	names []string
}

// row resolves a ref to its arena row.
func (ar *arenas) row(r edgeRef) *edgeRow {
	if r&dataRefBit != 0 {
		return &ar.data[r&^dataRefBit]
	}
	return &ar.sync[r]
}

// name returns the symbol obj names, "" outside the table (as the
// interner answers).
func (ar *arenas) name(obj ObjRef) string {
	if int(obj) < len(ar.names) {
		return ar.names[obj]
	}
	return ""
}

// pagesOf returns a data row's pages, cap-limited, without a copy: nil,
// the row's own word, or its run of the page arena.
func (ar *arenas) pagesOf(row *edgeRow) []uint64 {
	switch row.n {
	case 0:
		return nil
	case 1:
		return row.page[:]
	}
	off, end := row.page[0], row.page[0]+uint64(row.n)
	return ar.pages[off:end:end]
}

// fill materializes the edge r names into e, the caller's view: the
// endpoints, the kind of r's arena, the object's name or the row's
// pages (pagesOf). Nothing is allocated, and the view is written field
// by field: a composite literal would build an 80-byte Edge to copy.
func (ar *arenas) fill(r edgeRef, e *Edge) {
	row := ar.row(r)
	e.From, e.To = row.from.id(), row.to.id()
	if r&dataRefBit == 0 {
		e.Kind, e.Object, e.Pages = EdgeSync, ar.name(row.obj), nil
		return
	}
	e.Kind, e.Object, e.Pages = EdgeData, "", ar.pagesOf(row)
}

// fillControl writes the control edge from -> to into the view e.
func fillControl(e *Edge, from, to SubID) {
	e.From, e.To, e.Kind, e.Object, e.Pages = from, to, EdgeControl, "", nil
}

// edge returns the edge r names as a value.
func (ar *arenas) edge(r edgeRef) Edge {
	var e Edge
	ar.fill(r, &e)
	return e
}

// cmp is the canonical edge order (edgeCmp) on two rows of one arena:
// (From, To), then the objects' names — not their refs, which order by
// interning — for two sync rows that tie. Data rows carry object 0, so
// two that tie compare equal, as their edges do.
func (ar *arenas) cmp(a, b *edgeRow) int {
	switch {
	case a.from != b.from:
		return lessToCmp(a.from < b.from)
	case a.to != b.to:
		return lessToCmp(a.to < b.to)
	case a.obj == b.obj:
		return 0
	}
	return strings.Compare(ar.name(a.obj), ar.name(b.obj))
}

// vertexRange returns the subrange of a canonically sorted ref sequence
// whose edges leave id: one binary search for its start, then a scan to
// its end — the caller walks the run anyway, and a traversal probes
// every overlay layer for every vertex it visits.
func (ar *arenas) vertexRange(seq []edgeRef, id vertexRef) []edgeRef {
	lo := sort.Search(len(seq), func(i int) bool {
		return ar.row(seq[i]).from >= id
	})
	hi := lo
	for hi < len(seq) && ar.row(seq[hi]).from == id {
		hi++
	}
	return seq[lo:hi]
}

// appendMerged appends the merge of two canonically sorted ref sequences
// to dst, comparing arena rows in place. Ties keep a before b; equal-
// comparing edges are byte-identical under the derivation, so any tie
// order exports the same bytes. Neither input is written.
func (ar *arenas) appendMerged(dst, a, b []edgeRef) []edgeRef {
	if len(a) == 0 || len(b) == 0 {
		return append(append(dst, a...), b...)
	}
	ea, eb := ar.row(a[0]), ar.row(b[0])
	for {
		if ar.cmp(eb, ea) < 0 {
			dst = append(dst, b[0])
			if b = b[1:]; len(b) == 0 {
				return append(dst, a...)
			}
			eb = ar.row(b[0])
		} else {
			dst = append(dst, a[0])
			if a = a[1:]; len(a) == 0 {
				return append(dst, b...)
			}
			ea = ar.row(a[0])
		}
	}
}

// succIndex is a sealed CSR over the successor adjacency of an arena
// prefix. It snapshots the lens it was built over, so dense indexing
// stays valid even as the analyzed prefix grows past it. A canonically
// sorted ref sequence is From-major in dense-vertex order, so the CSR
// refs array IS the sorted sequence and per-vertex runs come out
// (To, Kind, Object)-sorted for free.
type succIndex struct {
	lens []int
	base []int32
	// syncOff/syncSeq and dataOff/dataSeq are the two per-section CSRs.
	syncOff []int32
	syncSeq []edgeRef
	dataOff []int32
	dataSeq []edgeRef
}

// buildSuccIndex seals the given canonical ref sequences into a CSR
// over the prefix bounded by lens. Refs whose From lies outside the
// prefix (possible only in hand-built graphs; Verify reports them) are
// left out of the adjacency; a sequence that has none is the index's
// own, shared, not copied (ref sequences are never written once built).
func buildSuccIndex(ar *arenas, syncSeq, dataSeq []edgeRef, lens []int) *succIndex {
	idx := &succIndex{lens: append([]int(nil), lens...)}
	idx.base = make([]int32, len(lens)+1)
	for t, n := range lens {
		idx.base[t+1] = idx.base[t] + int32(n)
	}
	nv := int(idx.base[len(lens)])
	build := func(seq []edgeRef) ([]int32, []edgeRef) {
		off := make([]int32, nv+1)
		outside := 0
		for _, r := range seq {
			if vi, ok := idx.vi(ar.row(r).from); ok {
				off[vi+1]++
			} else {
				outside++
			}
		}
		for i := 0; i < nv; i++ {
			off[i+1] += off[i]
		}
		if outside == 0 {
			return off, seq
		}
		kept := make([]edgeRef, 0, len(seq)-outside)
		for _, r := range seq {
			if _, ok := idx.vi(ar.row(r).from); ok {
				kept = append(kept, r)
			}
		}
		return off, kept
	}
	idx.syncOff, idx.syncSeq = build(syncSeq)
	idx.dataOff, idx.dataSeq = build(dataSeq)
	return idx
}

// vi maps a vertex to the index's own dense numbering (which can trail
// the current analysis prefix).
func (idx *succIndex) vi(id vertexRef) (int32, bool) {
	if !id.inPrefix(idx.lens) {
		return 0, false
	}
	return idx.base[id.thread()] + int32(id.alpha()), true
}

// run returns id's successor refs in the selected section.
func (idx *succIndex) run(id vertexRef, data bool) []edgeRef {
	v, ok := idx.vi(id)
	if !ok {
		return nil
	}
	if data {
		return idx.dataSeq[idx.dataOff[v]:idx.dataOff[v+1]]
	}
	return idx.syncSeq[idx.syncOff[v]:idx.syncOff[v+1]]
}

// refCount is the total adjacency size of the sealed index.
func (idx *succIndex) refCount() int { return len(idx.syncSeq) + len(idx.dataSeq) }

// layer views the sealed index's sorted sequences as a layer, for merging.
func (idx *succIndex) layer() succLayer {
	return succLayer{syncSeq: idx.syncSeq, dataSeq: idx.dataSeq}
}

// succLayer is one unsealed overlay: the refs of edges appended since
// the base was sealed, each section in canonical order. A fresh layer
// covers one epoch (a contiguous arena range); collapsed layers merge
// several.
type succLayer struct {
	syncSeq []edgeRef
	dataSeq []edgeRef
}

func (l *succLayer) seq(data bool) []edgeRef {
	if data {
		return l.dataSeq
	}
	return l.syncSeq
}

func (l *succLayer) refCount() int { return len(l.syncSeq) + len(l.dataSeq) }

// freshLayer builds the layer of one arena extension: the identity ref
// sequences [syncLo, syncLo+nSync) and [dataLo, dataLo+nData), which are
// canonically sorted because the appended edges were. Both sections
// share one allocation.
func freshLayer(syncLo, nSync, dataLo, nData int) succLayer {
	refs := make([]edgeRef, nSync+nData)
	for i := range nSync {
		refs[i] = edgeRef(syncLo + i)
	}
	for i := range nData {
		refs[nSync+i] = edgeRef(dataLo+i) | dataRefBit
	}
	return succLayer{syncSeq: refs[:nSync:nSync], dataSeq: refs[nSync:]}
}

// merge collapses a newer layer into l (the older one, which wins
// ties) and returns the result, both sections in one allocation; neither
// operand is written, and an empty one returns the other as is (layers
// are read-only once built).
func (l succLayer) merge(ar *arenas, newer succLayer) succLayer {
	if newer.refCount() == 0 {
		return l
	}
	if l.refCount() == 0 {
		return newer
	}
	nSync := len(l.syncSeq) + len(newer.syncSeq)
	refs := make([]edgeRef, 0, nSync+len(l.dataSeq)+len(newer.dataSeq))
	refs = ar.appendMerged(refs, l.syncSeq, newer.syncSeq)
	refs = ar.appendMerged(refs, l.dataSeq, newer.dataSeq)
	return succLayer{syncSeq: refs[:nSync:nSync], dataSeq: refs[nSync:]}
}

// canonicalRefSeqs merges a base + overlay stack back into one globally
// sorted ref sequence per section — the lazy flat view and the
// compactor share it. The stack is folded newest first: layer sizes
// grow geometrically towards the base (see incStore.push), so the
// two-way merges copy at most twice the overlay before the one pass
// over the base.
func canonicalRefSeqs(ar *arenas, succ *succIndex, layers []succLayer) (syncSeq, dataSeq []edgeRef) {
	var all succLayer
	for i := len(layers) - 1; i >= 0; i-- {
		all = layers[i].merge(ar, all)
	}
	if succ != nil {
		all = succ.layer().merge(ar, all)
	}
	return all.syncSeq, all.dataSeq
}

// threadPreds is one thread's predecessor arrays: off holds len+1
// offsets into ref, and each vertex's refs are [sync From-ascending][data
// From-ascending] — exactly the order the canonical full edge sequence
// delivers incoming edges in.
type threadPreds struct {
	off []int32
	ref []edgeRef
}

// buildPredIndex counting-sorts canonical ref sequences by To into
// per-thread predecessor arrays. Refs whose To lies outside the prefix
// are left out, as in the sealed successor index.
func buildPredIndex(ar *arenas, syncSeq, dataSeq []edgeRef, lens []int) []threadPreds {
	preds := make([]threadPreds, len(lens))
	fill := make([][]int32, len(lens))
	for t, n := range lens {
		preds[t].off = make([]int32, n+1)
		fill[t] = make([]int32, n)
	}
	count := func(seq []edgeRef) {
		for _, r := range seq {
			if to := ar.row(r).to; to.inPrefix(lens) {
				preds[to.thread()].off[to.alpha()+1]++
			}
		}
	}
	count(syncSeq)
	count(dataSeq)
	for t, n := range lens {
		off := preds[t].off
		for i := 0; i < n; i++ {
			off[i+1] += off[i]
		}
		preds[t].ref = make([]edgeRef, off[n])
	}
	place := func(seq []edgeRef) {
		for _, r := range seq {
			to := ar.row(r).to
			if !to.inPrefix(lens) {
				continue
			}
			t, i := to.thread(), to.alpha()
			preds[t].ref[preds[t].off[i]+fill[t][i]] = r
			fill[t][i]++
		}
	}
	place(syncSeq)
	place(dataSeq)
	return preds
}

// succCompactFloor is the overlay size below which the base never
// reseals; above it the base reseals once the overlay reaches half the
// base's size (geometric cadence: total reseal work over N edges is
// O(N)).
const succCompactFloor = 1024

// incStore is the shared edge store an IncrementalAnalyzer grows across
// epochs. All state is append-only or replaced wholesale, so the view
// captured for an earlier epoch never observes later extension.
type incStore struct {
	ar arenas
	// preds[t] are thread t's predecessor arrays; a vertex's slot is
	// written once, at its seal epoch.
	preds []threadPreds
	// succ is the sealed successor base (nil until first reseal);
	// layers are the unsealed epochs on top of it, oldest first, each
	// more than twice the size of the next (push keeps it so).
	succ      *succIndex
	layers    []succLayer
	layerRefs int
	// mergedRefs tallies the refs compaction has passed through a merge:
	// the work TestCompactionWorkIsLogLinear bounds.
	mergedRefs int
	// cursors and cursorBuf are appendPreds' scratch: cursors[t] is carved
	// from cursorBuf every epoch, one fill cursor per new vertex.
	cursors   [][]int32
	cursorBuf []int32
}

func newIncStore(threads int) *incStore {
	st := &incStore{
		preds:   make([]threadPreds, threads),
		cursors: make([][]int32, threads),
	}
	for t := range st.preds {
		st.preds[t].off = []int32{0}
	}
	return st
}

// extend publishes one epoch: the rows appended to the sync and data
// arenas since syncLo and dataLo (each run canonically sorted, every
// data row's run of pages in the page arena) become the epoch's overlay
// layer and predecessor slots, and extend returns the epoch's immutable
// Analysis view over the prefix lens (whose dense-index base the caller
// has computed; the view shares both) with completeness comp.
func (st *incStore) extend(g *Graph, syncLo, dataLo int, lens, prevLens, base []int, comp Completeness, epoch uint64) *Analysis {
	if nSync, nData := len(st.ar.sync)-syncLo, len(st.ar.data)-dataLo; nSync+nData > 0 {
		st.push(freshLayer(syncLo, nSync, dataLo, nData), lens)
	}
	st.appendPreds(syncLo, dataLo, lens, prevLens)
	return st.view(g, lens, base, comp, epoch)
}

// appendPreds writes the epoch's rows — the sync arena from syncLo, the
// data arena from dataLo — into their To vertices' predecessor slots.
// The derivation guarantees every To seals this very epoch (see the
// file comment), so the normal path is pure append; hand-built graphs
// can violate the discipline through arbitrary sync logs, and then the
// predecessor arrays are rebuilt from the canonical sequences instead
// (old views keep their replaced slices).
func (st *incStore) appendPreds(syncLo, dataLo int, lens, prevLens []int) {
	newSync, newData := st.ar.sync[syncLo:], st.ar.data[dataLo:]
	for i := range newSync {
		if to := newSync[i].to; to.alpha() < uint64(prevLens[to.thread()]) {
			syncSeq, dataSeq := canonicalRefSeqs(&st.ar, st.succ, st.layers)
			st.preds = buildPredIndex(&st.ar, syncSeq, dataSeq, lens)
			return
		}
	}
	newVertices := 0
	for t := range lens {
		newVertices += lens[t] - prevLens[t]
	}
	buf := slices.Grow(st.cursorBuf[:0], newVertices)[:newVertices]
	clear(buf)
	st.cursorBuf = buf
	counts := st.cursors
	for t := range lens {
		n := lens[t] - prevLens[t]
		counts[t], buf = buf[:n:n], buf[n:]
	}
	slot := func(to vertexRef) *int32 {
		return &counts[to.thread()][to.alpha()-uint64(prevLens[to.thread()])]
	}
	for i := range newSync {
		*slot(newSync[i].to)++
	}
	for i := range newData {
		*slot(newData[i].to)++
	}
	// Turn each count into its vertex's fill cursor while extending the
	// offsets (Grow keeps a one-fold Analyze's arrays exactly sized).
	for t := range lens {
		if len(counts[t]) == 0 {
			continue
		}
		p := &st.preds[t]
		off := slices.Grow(p.off, len(counts[t]))
		last := off[len(off)-1]
		for i, c := range counts[t] {
			counts[t][i] = last
			last += c
			off = append(off, last)
		}
		p.off = off
		if need := int(last) - len(p.ref); need > 0 {
			p.ref = slices.Grow(p.ref, need)[:last]
		}
	}
	// Sync before data per vertex, each section scanned in canonical
	// order: the slots come out [sync From-asc][data From-asc].
	place := func(rows []edgeRow, lo edgeRef) {
		for i := range rows {
			to := rows[i].to
			cur := slot(to)
			st.preds[to.thread()].ref[*cur] = lo + edgeRef(i)
			*cur++
		}
	}
	place(newSync, edgeRef(syncLo))
	place(newData, edgeRef(dataLo)|dataRefBit)
}

// push stacks one epoch's layer on the overlay and compacts, size-tiered
// like a binary counter: the new layer absorbs its neighbour for as long
// as the neighbour is at most twice its size. Every ref is therefore
// merged O(log overlay) times between base reseals and the stack stays
// at most log₂(overlay refs) + 1 deep, which bounds the per-lookup merge
// width. The base reseals — everything merges into one new sealed index
// — once the overlay both clears succCompactFloor and reaches half the
// base's size.
//
// Published views hold the old base pointer and alias the layer list up
// to their own length. Appending past that length is invisible to them;
// rewriting an entry would not be, so a merge continues on a fresh list.
func (st *incStore) push(layer succLayer, lens []int) {
	st.layerRefs += layer.refCount()
	baseRefs := 0
	if st.succ != nil {
		baseRefs = st.succ.refCount()
	}
	reseal := st.layerRefs > succCompactFloor && st.layerRefs*2 > baseRefs
	keep := len(st.layers)
	for keep > 0 && (reseal || st.layers[keep-1].refCount() <= 2*layer.refCount()) {
		keep--
		layer = st.layers[keep].merge(&st.ar, layer)
		st.mergedRefs += layer.refCount()
	}
	if reseal {
		if st.succ != nil {
			layer = st.succ.layer().merge(&st.ar, layer)
			st.mergedRefs += layer.refCount()
		}
		st.succ = buildSuccIndex(&st.ar, layer.syncSeq, layer.dataSeq, lens)
		st.layers, st.layerRefs = nil, 0
		return
	}
	if keep < len(st.layers) {
		st.layers = st.layers[:keep:keep] // the append below must copy
	}
	st.layers = append(st.layers, layer)
}

// view captures the current store state as an epoch's immutable
// Analysis: arena and layer-list slice-header snapshots, per-thread
// predecessor prefix views and the sealed base pointer. lens and base
// are the cut's own immutable slices, shared, not copied.
func (st *incStore) view(g *Graph, lens, base []int, comp Completeness, epoch uint64) *Analysis {
	a := &Analysis{
		g: g, epoch: epoch, lens: lens, base: base, comp: comp,
		ar: st.ar, succ: st.succ, layers: st.layers[:len(st.layers):len(st.layers)],
	}
	a.preds = make([]threadPreds, len(lens))
	for t, ln := range lens {
		p := st.preds[t]
		end := p.off[ln]
		a.preds[t] = threadPreds{off: p.off[: ln+1 : ln+1], ref: p.ref[:end:end]}
	}
	return a
}

// visitScratch is one traversal's reusable visit state: the run-list
// scratch of the k-way section merge, and the Edge view every edge —
// stored or synthesized control — is handed to the callback in. The
// callback is an indirect call, so a view declared per visit would
// escape — one heap Edge per visited edge; declared per traversal it
// is one.
type visitScratch struct {
	runs [][]edgeRef
	view Edge
}

// visitSuccs walks id's outgoing edges in the canonical per-vertex
// order — the synthesized control edge first, then the sync section,
// then the data section, each section k-way merged across the base and
// the overlay layers. fn returning false stops the walk; visitSuccs
// reports whether it ran to completion. The Edge is sc's view, valid
// only for the duration of the callback. sc is per-traversal scratch,
// reused across visits.
func (a *Analysis) visitSuccs(id SubID, sc *visitScratch, fn func(ref edgeRef, e *Edge) bool) bool {
	if int(id.Alpha)+1 < a.lens[id.Thread] {
		fillControl(&sc.view, id, SubID{Thread: id.Thread, Alpha: id.Alpha + 1})
		if !fn(ctrlRef, &sc.view) {
			return false
		}
	}
	v := refOf(id)
	return a.visitSuccSection(v, false, sc, fn) && a.visitSuccSection(v, true, sc, fn)
}

func (a *Analysis) visitSuccSection(id vertexRef, data bool, sc *visitScratch, fn func(ref edgeRef, e *Edge) bool) bool {
	runs := sc.runs[:0]
	defer func() { sc.runs = runs[:0] }()
	if a.succ != nil {
		if run := a.succ.run(id, data); len(run) > 0 {
			runs = append(runs, run)
		}
	}
	for i := range a.layers {
		if run := a.ar.vertexRange(a.layers[i].seq(data), id); len(run) > 0 {
			runs = append(runs, run)
		}
	}
	visit := func(r edgeRef) bool {
		a.ar.fill(r, &sc.view)
		return fn(r, &sc.view)
	}
	switch len(runs) {
	case 0:
		return true
	case 1:
		for _, r := range runs[0] {
			if !visit(r) {
				return false
			}
		}
		return true
	}
	for {
		best := -1
		var bestRow *edgeRow
		for i, run := range runs {
			if len(run) == 0 {
				continue
			}
			if row := a.ar.row(run[0]); best < 0 || a.ar.cmp(row, bestRow) < 0 {
				best, bestRow = i, row
			}
		}
		if best < 0 {
			return true
		}
		r := runs[best][0]
		runs[best] = runs[best][1:]
		if !visit(r) {
			return false
		}
	}
}

// visitPreds walks id's incoming edges in the canonical per-vertex
// order — control first, then the stored [sync][data] slot. Same
// callback contract as visitSuccs.
func (a *Analysis) visitPreds(id SubID, sc *visitScratch, fn func(ref edgeRef, e *Edge) bool) bool {
	if id.Alpha > 0 {
		fillControl(&sc.view, SubID{Thread: id.Thread, Alpha: id.Alpha - 1}, id)
		if !fn(ctrlRef, &sc.view) {
			return false
		}
	}
	p := a.preds[id.Thread]
	for _, r := range p.ref[p.off[id.Alpha]:p.off[id.Alpha+1]] {
		a.ar.fill(r, &sc.view)
		if !fn(r, &sc.view) {
			return false
		}
	}
	return true
}
