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
// Compaction (collapse layers, reseal the base) runs on geometric
// thresholds, keeping the per-epoch cost amortized O(delta · log) while
// every already-published Analysis keeps its own immutable view.
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

// refSeq builds the identity ref sequence [lo, lo+n) over one arena.
func refSeq(lo, n int, data bool) []edgeRef {
	if n == 0 {
		return nil
	}
	out := make([]edgeRef, n)
	for i := range out {
		out[i] = edgeRef(lo + i)
		if data {
			out[i] |= dataRefBit
		}
	}
	return out
}

// vertexRange returns the subrange of a canonically sorted ref sequence
// whose edges leave id.
func (ar arenaPair) vertexRange(seq []edgeRef, id SubID) []edgeRef {
	lo := sort.Search(len(seq), func(i int) bool {
		return !ar.edge(seq[i]).From.Less(id)
	})
	hi := lo + sort.Search(len(seq)-lo, func(i int) bool {
		return id.Less(ar.edge(seq[lo+i]).From)
	})
	return seq[lo:hi]
}

// mergeRefSeqs k-way merges canonically sorted ref sequences into one.
// Ties keep input order (earlier sequence first); equal-comparing edges
// are byte-identical under the derivation, so any tie order exports the
// same bytes. With at most one non-empty input the slice is returned as
// is (callers treat the result as read-only or copy it).
func (ar arenaPair) mergeRefSeqs(seqs ...[]edgeRef) []edgeRef {
	live := seqs[:0]
	total := 0
	for _, s := range seqs {
		if len(s) > 0 {
			live = append(live, s)
			total += len(s)
		}
	}
	if len(live) == 0 {
		return nil
	}
	if len(live) == 1 {
		return live[0]
	}
	out := make([]edgeRef, 0, total)
	for {
		best := -1
		var bestE *Edge
		for i, s := range live {
			if len(s) == 0 {
				continue
			}
			e := ar.edge(s[0])
			if best < 0 || edgeLess(*e, *bestE) {
				best, bestE = i, e
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, live[best][0])
		live[best] = live[best][1:]
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

// canonicalRefSeqs merges a base + overlay stack back into one globally
// sorted ref sequence per section — the lazy flat view and the
// compactor share it.
func canonicalRefSeqs(ar arenaPair, succ *succIndex, layers []succLayer) (syncSeq, dataSeq []edgeRef) {
	var syncs, datas [][]edgeRef
	if succ != nil {
		syncs = append(syncs, succ.syncSeq)
		datas = append(datas, succ.dataSeq)
	}
	for i := range layers {
		syncs = append(syncs, layers[i].syncSeq)
		datas = append(datas, layers[i].dataSeq)
	}
	return ar.mergeRefSeqs(syncs...), ar.mergeRefSeqs(datas...)
}

// buildPredIndex counting-sorts canonical ref sequences by To into
// per-thread predecessor arrays: predOff[t] has lens[t]+1 offsets into
// predRef[t], and each vertex's refs are [sync From-ascending][data
// From-ascending] — exactly the order the canonical full edge sequence
// delivers incoming edges in. Refs whose To lies outside the prefix are
// left out, as in the sealed successor index.
func buildPredIndex(ar arenaPair, syncSeq, dataSeq []edgeRef, lens []int) ([][]int32, [][]edgeRef) {
	predOff := make([][]int32, len(lens))
	predRef := make([][]edgeRef, len(lens))
	fill := make([][]int32, len(lens))
	for t, n := range lens {
		predOff[t] = make([]int32, n+1)
		fill[t] = make([]int32, n)
	}
	count := func(seq []edgeRef) {
		for _, r := range seq {
			if to := ar.edge(r).To; subInPrefix(to, lens) {
				predOff[to.Thread][to.Alpha+1]++
			}
		}
	}
	count(syncSeq)
	count(dataSeq)
	for t, n := range lens {
		off := predOff[t]
		for i := 0; i < n; i++ {
			off[i+1] += off[i]
		}
		predRef[t] = make([]edgeRef, off[n])
	}
	place := func(seq []edgeRef) {
		for _, r := range seq {
			to := ar.edge(r).To
			if !subInPrefix(to, lens) {
				continue
			}
			t, i := to.Thread, to.Alpha
			predRef[t][predOff[t][i]+fill[t][i]] = r
			fill[t][i]++
		}
	}
	place(syncSeq)
	place(dataSeq)
	return predOff, predRef
}

// Compaction thresholds. Layers collapse into one once maxSuccLayers
// stack up (bounds the per-lookup merge width); the base reseals once
// the overlay both clears succCompactFloor refs and reaches half the
// base's size (geometric cadence: total reseal work over N edges is
// O(N log N), so the per-epoch amortized cost stays proportional to the
// delta).
const (
	maxSuccLayers    = 8
	succCompactFloor = 1024
)

// incStore is the shared edge store an IncrementalAnalyzer grows across
// epochs. All state is append-only or replaced wholesale, so the view
// captured for an earlier epoch never observes later extension.
type incStore struct {
	ar arenaPair
	// predOff[t]/predRef[t] are the per-thread predecessor arrays; a
	// vertex's slot is written once, at its seal epoch.
	predOff [][]int32
	predRef [][]edgeRef
	// succ is the sealed successor base (nil until first reseal);
	// layers are the unsealed epochs on top of it.
	succ      *succIndex
	layers    []succLayer
	layerRefs int
}

func newIncStore(threads int) *incStore {
	st := &incStore{
		predOff: make([][]int32, threads),
		predRef: make([][]edgeRef, threads),
	}
	for t := range st.predOff {
		st.predOff[t] = []int32{0}
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
	layer := succLayer{
		syncSeq: refSeq(syncLo, len(newSync), false),
		dataSeq: refSeq(dataLo, len(newData), true),
	}
	if n := layer.refCount(); n > 0 {
		st.layers = append(st.layers, layer)
		st.layerRefs += n
	}
	st.appendPreds(newSync, newData, edgeRef(syncLo), edgeRef(dataLo)|dataRefBit, lens, prevLens)
	st.compact(lens)
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
			st.predOff, st.predRef = buildPredIndex(st.ar, syncSeq, dataSeq, lens)
			return
		}
	}
	counts := make([][]int32, len(lens))
	for t := range lens {
		if n := lens[t] - prevLens[t]; n > 0 {
			counts[t] = make([]int32, n)
		}
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
		if counts[t] == nil {
			continue
		}
		off := slices.Grow(st.predOff[t], len(counts[t]))
		last := off[len(off)-1]
		for i, c := range counts[t] {
			counts[t][i] = last
			last += c
			off = append(off, last)
		}
		st.predOff[t] = off
		if need := int(last) - len(st.predRef[t]); need > 0 {
			st.predRef[t] = slices.Grow(st.predRef[t], need)[:last]
		}
	}
	// Sync before data per vertex, each section scanned in canonical
	// order: the slots come out [sync From-asc][data From-asc].
	place := func(edges []Edge, lo edgeRef) {
		for i := range edges {
			to := edges[i].To
			cur := &counts[to.Thread][to.Alpha-uint64(prevLens[to.Thread])]
			st.predRef[to.Thread][*cur] = lo + edgeRef(i)
			*cur++
		}
	}
	place(newSync, syncLo)
	place(newData, dataLo)
}

// compact bounds the overlay: reseal the base when the overlay has
// grown to a constant fraction of it, otherwise collapse the layer
// stack when it gets too deep. Published views hold the old base
// pointer and their own copy of the layer list, so both operations are
// invisible to earlier epochs.
func (st *incStore) compact(lens []int) {
	baseRefs := 0
	if st.succ != nil {
		baseRefs = st.succ.refCount()
	}
	if st.layerRefs > succCompactFloor && st.layerRefs*2 > baseRefs {
		syncSeq, dataSeq := canonicalRefSeqs(st.ar, st.succ, st.layers)
		st.succ = buildSuccIndex(st.ar, syncSeq, dataSeq, lens)
		st.layers = nil
		st.layerRefs = 0
		return
	}
	if len(st.layers) >= maxSuccLayers {
		merged := succLayer{
			syncSeq: st.ar.mergeRefSeqs(layerSeqs(st.layers, false)...),
			dataSeq: st.ar.mergeRefSeqs(layerSeqs(st.layers, true)...),
		}
		st.layers = []succLayer{merged}
	}
}

func layerSeqs(layers []succLayer, data bool) [][]edgeRef {
	out := make([][]edgeRef, len(layers))
	for i := range layers {
		out[i] = layers[i].seq(data)
	}
	return out
}

// view captures the current store state as an epoch's immutable
// Analysis: arena slice-header snapshots, per-thread predecessor prefix
// views, the sealed base pointer, and a copy of the layer stack.
func (st *incStore) view(g *Graph, lens []int, epoch uint64) *Analysis {
	a := &Analysis{g: g, epoch: epoch, lens: append([]int(nil), lens...)}
	a.comp = summarizeGaps(g.gapsForPrefix(lens))
	a.base = make([]int32, len(lens)+1)
	for t, n := range lens {
		a.base[t+1] = a.base[t] + int32(n)
	}
	a.ar = st.ar
	a.predOff = make([][]int32, len(lens))
	a.predRef = make([][]edgeRef, len(lens))
	for t, n := range lens {
		off := st.predOff[t]
		a.predOff[t] = off[: n+1 : n+1]
		a.predRef[t] = st.predRef[t][:off[n]:off[n]]
	}
	a.succ = st.succ
	a.layers = append([]succLayer(nil), st.layers...)
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
			if best < 0 || edgeLess(*e, *bestE) {
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
	off := a.predOff[id.Thread]
	for _, r := range a.predRef[id.Thread][off[id.Alpha]:off[id.Alpha+1]] {
		if !fn(r, a.ar.edge(r)) {
			return false
		}
	}
	return true
}
