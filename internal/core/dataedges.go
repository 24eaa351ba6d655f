package core

// DataEdges derives the update-use edges (§IV-A III): for every reader n
// and page p in its read set, an edge from each maximal writer m (under
// happens-before) with p in its write set and m -> n. Writers hidden by a
// later writer of the same page that still precedes the reader are
// excluded, so each edge names a write that may actually have produced
// the value read.
//
// There is one derivation, the incremental fold's (incremental.go:
// deriveNewData over the page → writer-runs index); DataEdges and
// Analyze take a single cut of the whole graph through a throw-away
// IncrementalAnalyzer. dataEdgesReference (dataedges_test.go) retains
// the original map-of-maps single-threaded derivation as the executable
// specification; property tests assert the two never diverge.
func (g *Graph) DataEdges() []Edge { return deriveDataEdges(g, 0) }

// deriveDataEdges derives every data edge of g's current (causally
// closed) prefix with up to workers goroutines (0 = GOMAXPROCS). The
// output is independent of the worker count.
func deriveDataEdges(g *Graph, workers int) []Edge {
	inc := NewIncrementalAnalyzer(g)
	inc.SetFoldWorkers(workers)
	inc.cut(nil)
	return inc.deriveNewData(inc.subsBetween(inc.lens, inc.cutLens))
}
