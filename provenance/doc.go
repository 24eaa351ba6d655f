// Package provenance is the versioned query surface over a Concurrent
// Provenance Graph: one typed Query, one Engine that executes it against
// a core.Analysis, and one wire representation (provenance/v1 JSON)
// shared by the library API (inspector.Runtime.Query), the cpg-query
// CLI, and the inspector-serve HTTP daemon.
//
// The paper's end product is not the trace but the queries it answers —
// lineage, slicing, and taint over the CPG (§V, §VIII). This package
// makes that the single public surface:
//
//	a := graph.Analyze()
//	eng := provenance.NewEngine(a, provenance.EngineOptions{})
//	res, err := eng.Execute(ctx, provenance.Query{
//	    Kind:   provenance.KindSlice,
//	    Target: "T0.3",
//	})
//
// Every query result is deterministic: sub-computation lists are ordered
// by (thread, alpha) and edge lists follow the canonical core order
// (control edges in program order, then sync edges, then data edges,
// each sorted by (From, To)). Determinism plus the immutability of an
// Analysis is what makes cursor-based pagination sound: a cursor is an
// opaque position in the fixed result sequence, so paging through a
// large slice from many concurrent clients needs no server-side session
// state.
//
// Execution honors context cancellation end to end — a canceled context
// stops closure traversal inside internal/core, not just the response
// write — and an Engine is safe for concurrent use by any number of
// goroutines (it only reads the Analysis).
//
// # Live graphs
//
// Queries do not require the traced execution to have finished. The
// epoch pipeline (internal/epoch) folds a still-recording graph into
// successive immutable epoch Analyses and a Feed publishes each — a
// LiveEngine's, folded off the recording path, or an IngestSource's,
// replayed from a recorder's streamed deltas. Result.Epoch says which
// epoch answered, and cursors are valid against exactly that epoch. The
// Server resolves one engine per request from its Source, so a request
// is pinned to one epoch however far the fold advances while it
// executes. Post-mortem engines report epoch 0 and omit the field on
// the wire — the live additions are strictly backward compatible
// within provenance/v1.
//
// See DESIGN.md, sections "The query API & service" (grammar, cursor
// contract, wire format) and "The live pipeline" (epoch model,
// equivalence guarantee, the epoch pipeline's sink order and numbering).
package provenance
