// Package core implements the paper's central contribution: the Concurrent
// Provenance Graph (CPG, §IV-A) and the parallel provenance algorithm that
// builds it (§IV-B, Algorithms 1 and 2).
//
// The CPG is a DAG whose vertices are sub-computations — the instruction
// sequences a thread executes between two pthreads synchronization calls —
// and whose edges record three dependency kinds:
//
//   - control edges: intra-thread program order, refined within each
//     sub-computation by thunks (branch-delimited instruction runs);
//   - synchronization edges: inter-thread happens-before derived from the
//     acquire/release ordering of synchronization operations;
//   - data edges: update-use relationships derived from per-sub-computation
//     page-granularity read/write sets combined with the happens-before
//     partial order.
//
// The algorithm is fully decentralized: each thread maintains a vector
// clock, synchronization objects carry clocks between releasers and
// acquirers, and every completed sub-computation is stamped with its
// thread's clock. Standard vector-clock comparison over those stamps is
// the happens-before relation.
//
// The store mirrors that decentralization: vertices live in per-thread
// shards (a Recorder appends to its own shard without any global lock),
// synchronization edges in per-thread logs keyed by the acquiring thread,
// and symbols — branch-site labels, indirect targets, synchronization
// object names — are interned once into dense refs so the per-vertex
// records carry ints, not strings. String forms are materialized only at
// export and query time.
//
// # Contract
//
// Recording threads are the only writers, each through its own Recorder,
// and a published SubComputation is immutable. Everything else is a
// reader: Graph accessors copy under per-shard read locks, and the two
// analysis paths build immutable queryable views —
//
//   - IncrementalAnalyzer.Fold extends the previous epoch's state with
//     only the newly sealed vertices, over a causally consistent cut —
//     the package's one data-edge derivation;
//   - Graph.Analyze (the post-mortem path) is one fold of a throw-away
//     analyzer over the whole graph, stamped epoch 0, so k folds and one
//     fold agree by construction (ExportJSON byte-identical).
//
// The oracles the property tests hold both to are independent of the
// fold and compiled only into the tests: dataEdgesReference specifies
// the derivation, and the flat newAnalysis (through the tests'
// ReferenceAnalyzer, export_test.go) the store.
//
// See DESIGN.md, sections "The columnar CPG core" (store layout, CSR
// adjacency, derivation fast paths) and "The live pipeline" (epoch
// model, cut consistency, equivalence guarantee).
package core
