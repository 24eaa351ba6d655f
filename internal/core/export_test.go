package core

import (
	"fmt"
	"math"
	"slices"

	"github.com/repro/inspector/internal/wire"
)

// Test-only exports: the external (core_test) equivalence tests reach
// the package's oracles — the spec derivation, the flat builder and the
// full-rebuild fold — through these.

// ReferenceSections derives a's canonical edge sections from the spec:
// the graph's sync-edge log restricted to a's prefix, and
// dataEdgesReference over a's vertices. Nothing here shares code with
// the fold.
func ReferenceSections(a *Analysis) (syncEdges, dataEdges []Edge) {
	for _, e := range a.g.SyncEdges() {
		if subInPrefix(e.From, a.lens) && subInPrefix(e.To, a.lens) {
			syncEdges = append(syncEdges, e)
		}
	}
	return syncEdges, dataEdgesReference(a.Subs())
}

// DeriveDataEdges derives every data edge of g's current (causally
// closed) prefix with up to workers goroutines (0 = GOMAXPROCS): one
// cut of a throw-away IncrementalAnalyzer, the fold's own derivation,
// without building an Analysis. The output is independent of the worker
// count.
func DeriveDataEdges(g *Graph, workers int) []Edge {
	inc := newWholeAnalyzer(g)
	inc.SetFoldWorkers(workers)
	rows, pages := inc.deriveNewData(inc.lens, inc.cut.Lens)
	return inc.edgesOf(rows, pages, EdgeData)
}

// edgesOf materializes rows the analyzer derived or folded as edges of
// the given kind, each data edge's pages copied out of pages (the
// analyzer reuses its buffers).
func (inc *IncrementalAnalyzer) edgesOf(rows []edgeRow, pages []uint64, kind EdgeKind) []Edge {
	out := make([]Edge, len(rows))
	for i := range rows {
		r := &rows[i]
		out[i] = Edge{From: r.from.id(), To: r.to.id(), Kind: kind}
		if kind == EdgeSync {
			out[i].Object = inc.g.ObjectName(r.obj)
		} else {
			out[i].Pages = slices.Clone((&arenas{pages: pages}).pagesOf(r))
		}
	}
	return out
}

// mergeSortedEdges merges two canonically sorted edge runs into a fresh
// slice (left-biased on ties, which preserves the multiset order
// sortEdges would produce). The inputs are never mutated.
func mergeSortedEdges(a, b []Edge) []Edge {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]Edge, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if edgeLess(&b[j], &a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// newAnalysis is the flat builder, the spec for incStore: the whole
// already-derived sync and data sections (each canonically sorted) go
// into one sealed successor base with no overlay, and the predecessor
// arrays are one counting sort. The fold proper — Analyze, the live fold
// and NewAnalysisFromSections — builds through incStore, and the
// equivalence property tests pin the two byte-identical.
func newAnalysis(g *Graph, syncEdges, dataEdges []Edge, lens []int, epoch uint64) *Analysis {
	a := &Analysis{g: g, epoch: epoch, lens: lens, syms: g.interner.Len()}
	a.ar.names = g.interner.View(a.syms)
	for _, e := range syncEdges {
		obj, _ := g.interner.Find(e.Object)
		a.ar.sync = append(a.ar.sync, edgeRow{from: refOf(e.From), to: refOf(e.To), obj: ObjRef(obj)})
	}
	var data EdgeRows
	for _, e := range dataEdges {
		data.AppendData(e.From, e.To, e.Pages)
	}
	a.ar.data, a.ar.pages = data.rows, data.pages
	gaps, _ := g.gapsForPrefix(lens, nil)
	a.comp = summarizeGaps(gaps)
	a.base = make([]int, len(a.lens)+1)
	for t, n := range a.lens {
		a.base[t+1] = a.base[t] + n
	}
	all := freshLayer(0, len(syncEdges), 0, len(dataEdges))
	a.succ = buildSuccIndex(&a.ar, all.syncSeq, all.dataSeq, lens)
	a.preds = buildPredIndex(&a.ar, all.syncSeq, all.dataSeq, lens)
	a.totals.add(g, make([]int, len(lens)), lens)
	return a
}

// FlatAnalysis builds the flat (one sealed base, no overlay) analysis of
// a's prefix and epoch over the given sections.
func FlatAnalysis(a *Analysis, syncEdges, dataEdges []Edge) *Analysis {
	return newAnalysis(a.g, syncEdges, dataEdges, a.ThreadLens(), a.epoch)
}

// ReferenceAnalyzer is the serial full-rebuild-per-epoch fold — what
// every fold cost before the overlay store — kept as the executable
// spec the equivalence tests and BenchmarkIncrementalAnalyzeLarge
// measure incStore against. It shares the fold's cut, derivation and
// sync-log steps and replaces only the store: each epoch re-merges the
// flat sections and rebuilds the whole Analysis through newAnalysis.
type ReferenceAnalyzer struct {
	cutter               *Cutter
	inc                  *IncrementalAnalyzer
	syncEdges, dataEdges []Edge
}

// NewReferenceAnalyzer prepares an empty reference fold over g.
func NewReferenceAnalyzer(g *Graph) *ReferenceAnalyzer {
	inc := NewIncrementalAnalyzer(g)
	inc.SetFoldWorkers(1)
	return &ReferenceAnalyzer{cutter: NewCutter(g), inc: inc}
}

// Fold seals one epoch, O(graph).
func (r *ReferenceAnalyzer) Fold() *Analysis {
	inc := r.inc
	if err := inc.Adopt(r.cutter.Cut()); err != nil {
		panic(err)
	}
	ar := &inc.st.ar
	ar.names = inc.g.interner.View(inc.cut.Syms)
	rows, pages := inc.deriveNewData(inc.lens, inc.cut.Lens)
	r.dataEdges = mergeSortedEdges(r.dataEdges, inc.edgesOf(rows, pages, EdgeData))
	r.syncEdges = mergeSortedEdges(r.syncEdges, inc.edgesOf(inc.foldSync(inc.cut.Lens), nil, EdgeSync))
	inc.lens = inc.cut.Lens
	inc.epoch++
	return newAnalysis(inc.g, r.syncEdges, r.dataEdges, slices.Clone(inc.lens), inc.epoch)
}

// CutDelta cuts the next epoch of c and returns its delta, filled into
// a new EpochDelta: the cut and fill a framing driver makes, for tests
// that keep deltas.
func CutDelta(c *Cutter) *EpochDelta {
	c.Cut()
	d := new(EpochDelta)
	c.FillDelta(d)
	return d
}

// VertexLog is a graph shard's vertex log: TestAllocsApplyDelta
// measures its growth.
type VertexLog = shardLog[*SubComputation]

// Push appends v to the log.
func (l *shardLog[T]) Push(v T) { l.push(v) }

// LogSyncEdge appends a sync-edge log entry the way an Acquire does,
// but with any endpoints: the lazy-fold test logs entries whose
// acquiring vertex already sealed, which only a deferred fold reading
// past its cut's log lengths would pick up early.
func (g *Graph) LogSyncEdge(from, to SubID, object ObjRef) { g.addSyncEdge(from, to, object) }

// OverlayShape reports the store's live compaction state: the layer
// count and ref total of the overlay, the sealed base's ref count, and
// the running tally of refs compaction has merged.
func (inc *IncrementalAnalyzer) OverlayShape() (layers, layerRefs, baseRefs, mergedRefs int) {
	st := inc.st
	if st.succ != nil {
		baseRefs = st.succ.refCount()
	}
	return len(st.layers), st.layerRefs, baseRefs, st.mergedRefs
}

// SuccCompactFloor is the overlay size below which a store never seals
// a base: a one-epoch store over fewer refs is one overlay layer.
const SuccCompactFloor = succCompactFloor

// StoreShape reports how a's adjacency is stored: its overlay layer
// count and the ref count of its sealed successor base (0 for none).
func StoreShape(a *Analysis) (layers, baseRefs int) {
	if a.succ != nil {
		baseRefs = a.succ.refCount()
	}
	return len(a.layers), baseRefs
}

// ParseThunks is the reference reader of an AppendThunks list, the one
// walkThunks is held to (FuzzControlPath): the count and every field
// read through wire.Cursor into a decoded Thunk, numbered by its
// position. It returns nil for an empty or refused list.
func ParseThunks(c *wire.Cursor) []Thunk {
	n := c.Count("thunks", MinThunkBytes)
	if n == 0 {
		return nil
	}
	thunks := make([]Thunk, n)
	for i := range thunks {
		th := &thunks[i]
		th.Index = uint64(i)
		// Read the head and the target on a copy, so a refused one
		// fails where it starts.
		probe := *c
		if head := probe.Uvarint("thunk.site"); probe.Err() == nil && head>>3 > math.MaxUint32 {
			c.Fail("thunk.site", fmt.Sprintf("value %d exceeds %d", head>>3, uint64(math.MaxUint32)))
		} else {
			*c = probe
			th.Site = SiteRef(head >> 3)
			th.Taken, th.Indirect = head&1 != 0, head&2 != 0
			if head&4 != 0 {
				probe = *c
				if th.Target = SiteRef(probe.Uint32("thunk.target")); probe.Err() == nil && th.Target == 0 {
					c.Fail("thunk.target", "flagged target 0: an empty target is spelled by leaving it out")
				} else {
					*c = probe
				}
			}
		}
		th.Instructions = c.Uvarint("thunk.instructions")
		if c.Err() != nil {
			return nil
		}
	}
	return thunks
}

// ThunkList returns sc's control path decoded, nil when it is empty.
func ThunkList(sc *SubComputation) []Thunk {
	var out []Thunk
	for _, th := range sc.Thunks {
		out = append(out, th)
	}
	return out
}

// DecodePath decodes a run of AppendThunks elements, nil when empty.
func DecodePath(path []byte) []Thunk {
	return ThunkList(&SubComputation{path: string(path)})
}

// PathBytes returns sc's path as it holds it.
func PathBytes(sc *SubComputation) string { return sc.path }

// WalkPath is walkThunks: the elements' bytes (aliasing c's body),
// their count and the largest ref they name.
func WalkPath(c *wire.Cursor) ([]byte, int, SiteRef) { return walkThunks(c) }

// WithoutPaths returns a copy of d whose vertices carry no control
// path: the form gob, which sees only exported fields, round-trips.
func WithoutPaths(d *EpochDelta) *EpochDelta {
	out := *d
	if d.Subs != nil {
		out.Subs = make([]*SubComputation, len(d.Subs))
	}
	for i, sc := range d.Subs {
		bare := *sc
		bare.path, bare.nThunks, bare.maxRef = "", 0, 0
		out.Subs[i] = &bare
	}
	return &out
}
