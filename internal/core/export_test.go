package core

// Test-only exports: the external (core_test) equivalence tests reach
// the package's oracles — the spec derivation and the flat builder —
// through these.

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
