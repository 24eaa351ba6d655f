package core

import "slices"

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
	inc                  *IncrementalAnalyzer
	syncEdges, dataEdges []Edge
}

// NewReferenceAnalyzer prepares an empty reference fold over g.
func NewReferenceAnalyzer(g *Graph) *ReferenceAnalyzer {
	inc := NewIncrementalAnalyzer(g)
	inc.SetFoldWorkers(1)
	return &ReferenceAnalyzer{inc: inc}
}

// Fold seals one epoch, O(graph).
func (r *ReferenceAnalyzer) Fold() *Analysis {
	inc := r.inc
	newSubs := inc.captureCut()
	r.dataEdges = mergeSortedEdges(r.dataEdges, inc.deriveNewData(newSubs))
	r.syncEdges = mergeSortedEdges(r.syncEdges, inc.consumeSyncLogs(nil))
	inc.epoch++
	return newAnalysis(inc.g, r.syncEdges, r.dataEdges, slices.Clone(inc.lens), inc.epoch)
}

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
