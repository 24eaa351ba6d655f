package core

import (
	"slices"
	"sort"
)

// This file is the storage layer behind Analysis: two append-only edge
// arenas (sync, data) plus a sealed-base + per-epoch-delta adjacency
// overlay. The flat builder (newAnalysis: .cpg loads, the tests'
// reference fold) seals everything into one base; the fold —
// Graph.Analyze is one fold — appends each epoch's edges to the shared
// arenas and stacks a small overlay layer on top, so sealing an epoch
// costs O(delta) instead of re-materializing O(graph) flat state.
// Compaction is size-tiered (incStore.push): a new layer absorbs its
// neighbour while the neighbour is at most twice its size, and the base
// reseals once the overlay reaches half of it. Every ref is merged
// O(log overlay) times per base generation whatever the fold cadence —
// one epoch per sealed sub-computation included — so the per-epoch cost
// is amortized O(delta · log) while every already-published Analysis
// keeps its own immutable view.
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

// edgeRef names one derived edge in an Analysis's arenas: an index into
// the sync arena, or an index into the data arena tagged with
// dataRefBit. Control edges are never stored — they are fully derived
// from the prefix lens — and traversals report them as ctrlRef.
type edgeRef int32

const (
	dataRefBit edgeRef = 1 << 30
	ctrlRef    edgeRef = -2
)

// arenaPair bundles the two edge arenas a ref can point into. Views
// held by an Analysis are slice-header snapshots: later epochs append
// beyond the captured lengths (disjoint addresses), never in place.
type arenaPair struct {
	sync []Edge
	data []Edge
}

// edge resolves a ref to its arena entry.
func (ar arenaPair) edge(r edgeRef) *Edge {
	if r&dataRefBit != 0 {
		return &ar.data[r&^dataRefBit]
	}
	return &ar.sync[r]
}

// vertexRange returns the subrange of a canonically sorted ref sequence
// whose edges leave id: one binary search for its start, then a scan to
// its end — the caller walks the run anyway, and a traversal probes
// every overlay layer for every vertex it visits.
func (ar arenaPair) vertexRange(seq []edgeRef, id SubID) []edgeRef {
	lo := sort.Search(len(seq), func(i int) bool {
		return !ar.edge(seq[i]).From.Less(id)
	})
	hi := lo
	for hi < len(seq) && ar.edge(seq[hi]).From == id {
		hi++
	}
	return seq[lo:hi]
}

// appendMerged appends the merge of two canonically sorted ref sequences
// to dst, comparing arena entries in place. Ties keep a before b; equal-
// comparing edges are byte-identical under the derivation, so any tie
// order exports the same bytes. Neither input is written.
func (ar arenaPair) appendMerged(dst, a, b []edgeRef) []edgeRef {
	if len(a) == 0 || len(b) == 0 {
		return append(append(dst, a...), b...)
	}
	ea, eb := ar.edge(a[0]), ar.edge(b[0])
	for {
		if edgeLess(eb, ea) {
			dst = append(dst, b[0])
			if b = b[1:]; len(b) == 0 {
				return append(dst, a...)
			}
			eb = ar.edge(b[0])
		} else {
			dst = append(dst, a[0])
			if a = a[1:]; len(a) == 0 {
				return append(dst, b...)
			}
			ea = ar.edge(a[0])
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
// left out of the adjacency, matching the pre-overlay newAnalysis.
func buildSuccIndex(ar arenaPair, syncSeq, dataSeq []edgeRef, lens []int) *succIndex {
	idx := &succIndex{lens: append([]int(nil), lens...)}
	idx.base = make([]int32, len(lens)+1)
	for t, n := range lens {
		idx.base[t+1] = idx.base[t] + int32(n)
	}
	nv := int(idx.base[len(lens)])
	build := func(seq []edgeRef) ([]int32, []edgeRef) {
		off := make([]int32, nv+1)
		kept := make([]edgeRef, 0, len(seq))
		for _, r := range seq {
			if vi, ok := idx.vi(ar.edge(r).From); ok {
				off[vi+1]++
				kept = append(kept, r)
			}
		}
		for i := 0; i < nv; i++ {
			off[i+1] += off[i]
		}
		return off, kept
	}
	idx.syncOff, idx.syncSeq = build(syncSeq)
	idx.dataOff, idx.dataSeq = build(dataSeq)
	return idx
}

// vi maps a SubID to the index's own dense numbering (which can trail
// the current analysis prefix).
func (idx *succIndex) vi(id SubID) (int32, bool) {
	if id.Thread < 0 || id.Thread >= len(idx.lens) || id.Alpha >= uint64(idx.lens[id.Thread]) {
		return 0, false
	}
	return idx.base[id.Thread] + int32(id.Alpha), true
}

// run returns id's successor refs in the selected section.
func (idx *succIndex) run(id SubID, data bool) []edgeRef {
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
func (l succLayer) merge(ar arenaPair, newer succLayer) succLayer {
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
func canonicalRefSeqs(ar arenaPair, succ *succIndex, layers []succLayer) (syncSeq, dataSeq []edgeRef) {
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
func buildPredIndex(ar arenaPair, syncSeq, dataSeq []edgeRef, lens []int) []threadPreds {
	preds := make([]threadPreds, len(lens))
	fill := make([][]int32, len(lens))
	for t, n := range lens {
		preds[t].off = make([]int32, n+1)
		fill[t] = make([]int32, n)
	}
	count := func(seq []edgeRef) {
		for _, r := range seq {
			if to := ar.edge(r).To; subInPrefix(to, lens) {
				preds[to.Thread].off[to.Alpha+1]++
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
			to := ar.edge(r).To
			if !subInPrefix(to, lens) {
				continue
			}
			t, i := to.Thread, to.Alpha
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
	ar arenaPair
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

// extend appends one epoch's new edges (each slice canonically sorted
// and handed over: the first epoch's slices become the arenas, which for
// a one-fold Analyze is the whole store) and returns the epoch's
// immutable Analysis view.
func (st *incStore) extend(g *Graph, newSync, newData []Edge, lens, prevLens []int, epoch uint64) *Analysis {
	syncLo, dataLo := len(st.ar.sync), len(st.ar.data)
	st.ar.sync = appendOrAdopt(st.ar.sync, newSync)
	st.ar.data = appendOrAdopt(st.ar.data, newData)
	if len(newSync)+len(newData) > 0 {
		st.push(freshLayer(syncLo, len(newSync), dataLo, len(newData)), lens)
	}
	st.appendPreds(newSync, newData, edgeRef(syncLo), edgeRef(dataLo)|dataRefBit, lens, prevLens)
	return st.view(g, lens, epoch)
}

// appendOrAdopt appends a freshly built slice the caller hands over; an
// empty destination takes it as is instead of copying it.
func appendOrAdopt[T any](dst, fresh []T) []T {
	if len(dst) == 0 {
		return fresh
	}
	return append(dst, fresh...)
}

// appendPreds writes the epoch's edges into their To vertices'
// predecessor slots. The derivation guarantees every To seals this very
// epoch (see the file comment), so the normal path is pure append;
// hand-built graphs can violate the discipline through arbitrary sync
// logs, and then the predecessor arrays are rebuilt from the canonical
// sequences instead (old views keep their replaced slices).
func (st *incStore) appendPreds(newSync, newData []Edge, syncLo, dataLo edgeRef, lens, prevLens []int) {
	for i := range newSync {
		if newSync[i].To.Alpha < uint64(prevLens[newSync[i].To.Thread]) {
			syncSeq, dataSeq := canonicalRefSeqs(st.ar, st.succ, st.layers)
			st.preds = buildPredIndex(st.ar, syncSeq, dataSeq, lens)
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
	for i := range newSync {
		to := newSync[i].To
		counts[to.Thread][to.Alpha-uint64(prevLens[to.Thread])]++
	}
	for i := range newData {
		to := newData[i].To
		counts[to.Thread][to.Alpha-uint64(prevLens[to.Thread])]++
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
	place := func(edges []Edge, lo edgeRef) {
		for i := range edges {
			to := edges[i].To
			cur := &counts[to.Thread][to.Alpha-uint64(prevLens[to.Thread])]
			st.preds[to.Thread].ref[*cur] = lo + edgeRef(i)
			*cur++
		}
	}
	place(newSync, syncLo)
	place(newData, dataLo)
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
		layer = st.layers[keep].merge(st.ar, layer)
		st.mergedRefs += layer.refCount()
	}
	if reseal {
		if st.succ != nil {
			layer = st.succ.layer().merge(st.ar, layer)
			st.mergedRefs += layer.refCount()
		}
		st.succ = buildSuccIndex(st.ar, layer.syncSeq, layer.dataSeq, lens)
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
// share one allocation.
func (st *incStore) view(g *Graph, lens []int, epoch uint64) *Analysis {
	n := len(lens)
	ints := make([]int, 2*n+1)
	a := &Analysis{
		g: g, epoch: epoch, lens: ints[:n:n], base: ints[n:],
		ar: st.ar, succ: st.succ, layers: st.layers[:len(st.layers):len(st.layers)],
	}
	copy(a.lens, lens)
	a.comp = summarizeGaps(g.gapsForPrefix(lens))
	a.preds = make([]threadPreds, n)
	for t, ln := range lens {
		a.base[t+1] = a.base[t] + ln
		p := st.preds[t]
		end := p.off[ln]
		a.preds[t] = threadPreds{off: p.off[: ln+1 : ln+1], ref: p.ref[:end:end]}
	}
	return a
}

// visitScratch is one traversal's reusable visit state: the run-list
// scratch of the k-way section merge, and the Edge the synthesized
// control edges are handed to the callback in. The callback is an
// indirect call, so an Edge declared per visit would escape — one heap
// Edge per visited vertex; declared per traversal it is one.
type visitScratch struct {
	runs [][]edgeRef
	ctrl Edge
}

// visitSuccs walks id's outgoing edges in the canonical per-vertex
// order — the synthesized control edge first, then the sync section,
// then the data section, each section k-way merged across the base and
// the overlay layers. fn returning false stops the walk; visitSuccs
// reports whether it ran to completion. The Edge pointer is valid only
// for the duration of the callback. sc is per-traversal scratch, reused
// across visits.
func (a *Analysis) visitSuccs(id SubID, sc *visitScratch, fn func(ref edgeRef, e *Edge) bool) bool {
	if int(id.Alpha)+1 < a.lens[id.Thread] {
		sc.ctrl = Edge{From: id, To: SubID{Thread: id.Thread, Alpha: id.Alpha + 1}, Kind: EdgeControl}
		if !fn(ctrlRef, &sc.ctrl) {
			return false
		}
	}
	return a.visitSuccSection(id, false, &sc.runs, fn) &&
		a.visitSuccSection(id, true, &sc.runs, fn)
}

func (a *Analysis) visitSuccSection(id SubID, data bool, scratch *[][]edgeRef, fn func(ref edgeRef, e *Edge) bool) bool {
	runs := (*scratch)[:0]
	defer func() { *scratch = runs[:0] }()
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
	switch len(runs) {
	case 0:
		return true
	case 1:
		for _, r := range runs[0] {
			if !fn(r, a.ar.edge(r)) {
				return false
			}
		}
		return true
	}
	for {
		best := -1
		var bestE *Edge
		for i, run := range runs {
			if len(run) == 0 {
				continue
			}
			e := a.ar.edge(run[0])
			if best < 0 || edgeLess(e, bestE) {
				best, bestE = i, e
			}
		}
		if best < 0 {
			return true
		}
		r := runs[best][0]
		runs[best] = runs[best][1:]
		if !fn(r, bestE) {
			return false
		}
	}
}

// visitPreds walks id's incoming edges in the canonical per-vertex
// order — control first, then the stored [sync][data] slot. Same
// callback contract as visitSuccs.
func (a *Analysis) visitPreds(id SubID, sc *visitScratch, fn func(ref edgeRef, e *Edge) bool) bool {
	if id.Alpha > 0 {
		sc.ctrl = Edge{From: SubID{Thread: id.Thread, Alpha: id.Alpha - 1}, To: id, Kind: EdgeControl}
		if !fn(ctrlRef, &sc.ctrl) {
			return false
		}
	}
	p := a.preds[id.Thread]
	for _, r := range p.ref[p.off[id.Alpha]:p.off[id.Alpha+1]] {
		if !fn(r, a.ar.edge(r)) {
			return false
		}
	}
	return true
}
