package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// IncrementalAnalyzer folds a still-growing CPG into successive immutable
// Analyses — the live half of the paper's claim that provenance is
// usable *while* the traced program runs. Each Fold call captures the
// vertices and sync edges sealed since the previous epoch and extends
// the accumulated analysis state instead of re-deriving it:
//
//   - the page → writer-runs index persists across epochs and only the
//     new writers are appended to it;
//   - data edges are derived only for the epoch's new readers, fanned
//     out across fold workers on an atomic work counter (SetFoldWorkers):
//     a vertex already analyzed can never gain a new *incoming* edge
//     (see the cut argument below), so earlier epochs' derivations are
//     final;
//   - sync edges arrive as sorted runs that each epoch merges into the
//     store, deferring entries whose acquiring sub-computation has not
//     sealed yet (the deferred backlog stays sorted, so an epoch costs
//     one linear partition + merge, never a re-sort of the backlog);
//   - the epoch's Analysis is built by appending the new edges to the
//     shared arenas and stacking one overlay layer on the adjacency
//     (csr.go) — per-epoch sealing cost is proportional to the delta
//     at any cadence, with size-tiered compaction keeping the stack
//     logarithmic in the overlay, instead of the O(graph) flat rebuild
//     the pre-overlay fold paid;
//   - the interned symbol table is the graph's own append-only interner,
//     so materialized names never need recomputing.
//
// This is the package's only data-edge derivation: Graph.Analyze and
// Graph.DataEdges are one fold of a throw-away analyzer over the whole
// graph, so k folds and one fold are the same code and the equivalence
// property tests pin them byte-identical. The oracles are independent
// of it and live with the tests: dataEdgesReference specifies the
// derivation, and the tests' ReferenceAnalyzer (export_test.go) re-merges
// flat sections and rebuilds through the flat newAnalysis every epoch as
// the spec for the store.
//
// # Why folding is sound: causally consistent cuts
//
// A fold must not analyze a reader before all its potential writers are
// visible, or it would derive an update-use edge from a hidden (stale)
// writer and freeze it into every later epoch. Fold therefore closes the
// captured per-thread lengths under happens-before: a sealed
// sub-computation's clock component Ct[u] names the latest thread-u
// vertex it has observed, and the recording discipline publishes a
// vertex to its shard (EndSub) before its clock can flow to any other
// thread (Release → Acquire). So extending the cut until lens[u] ≥
// Ct[u] for every captured vertex only ever pulls vertices already
// present in the shards, and the resulting prefix is closed: every
// happens-before predecessor of an included vertex is included. Under a
// closed cut, a writer sealed later cannot happen-before an
// already-included reader — which is exactly what makes per-epoch
// derivations final.
//
// An IncrementalAnalyzer is safe to drive from one goroutine while any
// number of recording threads append to the graph; Fold itself is
// serialized internally.
type IncrementalAnalyzer struct {
	g *Graph

	epoch uint64
	// lens is the folded prefix: thread t's vertices [0, lens[t]) are
	// analyzed; prevLens is the previous epoch's prefix, snapshotted by
	// each captureCut.
	lens     []int
	prevLens []int
	// seqs mirrors the folded prefix per thread (append-only, so slices
	// handed to earlier epochs stay valid).
	seqs [][]*SubComputation
	// syncSeen counts the consumed entries of each shard's sync-edge log.
	syncSeen []int
	// pendingSync holds materialized log entries seen before their
	// endpoints sealed, in canonical sorted order.
	pendingSync []Edge
	// writers is the persistent page → writer-runs index: for each page,
	// one run per writing thread with alphas ascending.
	writers map[uint64][]incRun

	// st accumulates the arenas and the adjacency overlay across epochs.
	st *incStore
	// totals sums the folded prefix's per-vertex counters; each fold adds
	// its new vertices and every view copies the sums, so Stats never
	// walks the prefix.
	totals vertexTotals

	// workers caps the fold's data-edge derivation fan-out (0 =
	// GOMAXPROCS); workerHook, when set, runs at the start of every
	// derivation worker (fault injection hooks in, here).
	workers    int
	workerHook func(worker int)

	// gapsSeen and symSeen track how much of the gap lists and the
	// interner the delta capture (FoldDelta) has already emitted. Plain
	// Fold leaves them untouched, so an analyzer driven by FoldDelta
	// emits every item exactly once.
	gapsSeen []int
	symSeen  int

	// scratch serves the serial derivation path; parallel workers carry
	// their own. cutTarget and syncTail are captureCut's and
	// consumeSyncLogs' reusable buffers, edgeSort every sortEdges call's.
	scratch   incScratch
	cutTarget []int
	syncTail  []syncEdgeRec
	edgeSort  edgeSortScratch
}

// incRun is one thread's writers of one page, alphas ascending.
type incRun struct {
	thread int32
	alphas []int32
}

// incCand identifies one candidate writer during derivation.
type incCand struct {
	thread int32
	alpha  int32
}

// incScratch is one derivation worker's reusable per-reader scratch.
type incScratch struct {
	cands    []incCand
	accFrom  []incCand
	accPages [][]uint64
}

// NewIncrementalAnalyzer prepares an empty fold state over g. No epoch
// exists until the first Fold.
func NewIncrementalAnalyzer(g *Graph) *IncrementalAnalyzer {
	n := g.Threads()
	return &IncrementalAnalyzer{
		g:        g,
		lens:     make([]int, n),
		seqs:     make([][]*SubComputation, n),
		syncSeen: make([]int, n),
		writers:  make(map[uint64][]incRun),
		st:       newIncStore(n),
		gapsSeen: make([]int, n),
		// Ref 0 is the "" every NewGraph interns; deltas never carry it,
		// so replay against a fresh graph starts aligned.
		symSeen: 1,
	}
}

// SetFoldWorkers caps the number of worker goroutines Fold fans the
// data-edge derivation across: 0 (the default) means GOMAXPROCS,
// negative values are treated as 0, 1 forces the serial path. Small
// epochs use fewer workers regardless (one per foldWorkerGrain new
// readers). Takes effect at the next Fold; not safe to call
// concurrently with Fold.
func (inc *IncrementalAnalyzer) SetFoldWorkers(n int) {
	if n < 0 {
		n = 0
	}
	inc.workers = n
}

// SetWorkerHook installs h to run at the start of every derivation
// worker of every fold (with the worker's index), including the serial
// path's worker 0. Fault injection uses it to delay or crash folds
// inside the workers; a panic escaping h propagates out of Fold on the
// calling goroutine after the remaining workers drain, never as a
// goroutine crash. Not safe to call concurrently with Fold.
func (inc *IncrementalAnalyzer) SetWorkerHook(h func(worker int)) {
	inc.workerHook = h
}

// Graph returns the graph being folded.
func (inc *IncrementalAnalyzer) Graph() *Graph { return inc.g }

// Epoch returns the newest fold's epoch number (0 before the first
// fold): the number of completed folds, unless FoldAs named them.
func (inc *IncrementalAnalyzer) Epoch() uint64 { return inc.epoch }

// Fold seals one epoch, numbered one past the previous: it captures
// everything recorded since the last fold, extends the analysis state,
// and returns the new epoch's Analysis. Calling Fold with nothing new
// still produces a (cheap) new epoch over the unchanged prefix. Fold
// must not be called concurrently with itself; recording threads may
// keep appending throughout.
func (inc *IncrementalAnalyzer) Fold() *Analysis { return inc.FoldAs(inc.epoch + 1) }

// FoldAs is Fold numbering the sealed epoch e, which must exceed
// Epoch(). The apply side (epoch.Replayer) folds a batch of deltas once
// and names the epoch by the last delta: everything but the number is
// independent of how many folds the prefix took, so k appended deltas
// folded once are the Analysis k folds produce.
func (inc *IncrementalAnalyzer) FoldAs(e uint64) *Analysis {
	a, _ := inc.fold(false, e)
	return a
}

// FoldDelta seals one epoch exactly like Fold and additionally captures
// the epoch's delta: everything the fold consumed that the previous
// FoldDelta had not yet emitted — the cut's new vertices, the sync-edge
// log tails, the gap-list tails, and the interner additions. Replaying
// the delta sequence with ApplyDelta + Fold on a fresh graph rebuilds
// byte-identical per-epoch Analyses (the journal recovery path). Mixing
// Fold and FoldDelta on one analyzer would leave the skipped epochs'
// state out of every delta; drive a journaled analyzer through
// FoldDelta exclusively.
func (inc *IncrementalAnalyzer) FoldDelta() (*Analysis, *EpochDelta) {
	return inc.fold(true, inc.epoch+1)
}

func (inc *IncrementalAnalyzer) fold(capture bool, epoch uint64) (*Analysis, *EpochDelta) {
	newSubs := inc.captureCut()
	var d *EpochDelta
	if capture {
		d = &EpochDelta{Subs: newSubs}
		// Gap tails ride in the epoch that first folds after they were
		// recorded; they carry no interned refs, so order within the
		// delta does not matter.
		for t := range inc.gapsSeen {
			gaps := inc.g.ThreadGapList(t)
			for _, gp := range gaps[inc.gapsSeen[t]:] {
				d.Gaps = append(d.Gaps, DeltaGap{Thread: t, Gap: gp})
			}
			inc.gapsSeen[t] = len(gaps)
		}
	}

	// Derive the new readers' incoming data edges; everything older is
	// final (closed cut: no new writer can happen-before an old reader).
	newData := inc.deriveNewData(newSubs)
	newSync := inc.consumeSyncLogs(d)

	inc.epoch = epoch
	inc.totals.add(newSubs)
	a := inc.st.extend(inc.g, newSync, newData, inc.lens, inc.prevLens, inc.epoch)
	a.totals = inc.totals
	if capture {
		// The interner tail comes last: every ref the captured vertices
		// and sync edges use was interned before its user sealed, so
		// capturing the table after the cut guarantees coverage.
		d.Symbols = inc.g.interner.Tail(inc.symSeen)
		d.SymBase = uint32(inc.symSeen)
		inc.symSeen += len(d.Symbols)
		d.Epoch = inc.epoch
		// The view's own copy of the prefix: both are immutable from here.
		d.Lens = a.lens
	}
	return a, d
}

// consumeSyncLogs folds the shards' sync-edge logs: entries whose
// endpoints are both sealed join the epoch (returned sorted), the rest
// are deferred (an acquire logs its edge before the acquiring
// sub-computation seals). Both the fresh tail and the deferred backlog
// are sorted runs, so one epoch costs a sort of the fresh entries plus
// linear partitions and merges — the backlog is never re-sorted,
// however many epochs it survives (the deferred-acquirer regression
// test pins this path).
func (inc *IncrementalAnalyzer) consumeSyncLogs(d *EpochDelta) []Edge {
	var fresh []Edge
	for t := range inc.syncSeen {
		inc.syncTail = inc.g.syncEdgeTail(inc.syncTail[:0], t, inc.syncSeen[t])
		inc.syncSeen[t] += len(inc.syncTail)
		for _, rec := range inc.syncTail {
			if d != nil {
				d.Sync = append(d.Sync, DeltaSyncEdge{From: rec.From, To: rec.To, Object: rec.Object})
			}
			fresh = append(fresh, Edge{
				From:   rec.From,
				To:     rec.To,
				Kind:   EdgeSync,
				Object: inc.g.ObjectName(rec.Object),
			})
		}
	}
	sortEdges(fresh, &inc.edgeSort)
	backlogReady, backlogDefer := partitionSyncReady(inc.pendingSync, inc.lens)
	freshReady, freshDefer := partitionSyncReady(fresh, inc.lens)
	inc.pendingSync = mergeSortedEdges(backlogDefer, freshDefer)
	return mergeSortedEdges(backlogReady, freshReady)
}

// partitionSyncReady splits a sorted entry run the fold owns (the
// backlog, the epoch's fresh entries — never a slice an Analysis holds)
// into the entries whose endpoints are both inside the prefix and the
// still-deferred rest, preserving order (so both halves stay sorted).
// The ready entries move to a fresh slice, which the store adopts; the
// deferred ones are compacted in place.
func partitionSyncReady(entries []Edge, lens []int) (ready, deferred []Edge) {
	deferred = entries[:0]
	for i := range entries {
		if e := &entries[i]; subInPrefix(e.From, lens) && subInPrefix(e.To, lens) {
			ready = append(ready, *e)
		} else {
			deferred = append(deferred, *e)
		}
	}
	return ready, deferred
}

// foldWorkerGrain is the number of new readers that justifies one
// derivation worker: cuts with fewer than two grains derive serially,
// and the fan-out never exceeds ceil(new readers / grain) regardless of
// the configured worker count.
const foldWorkerGrain = 256

// deriveNewData indexes the cut's new writers and derives its new
// readers' incoming data edges, returned canonically sorted. The index
// is extended with every new vertex before any reader is derived: a new
// reader's writers may be new vertices of the same cut. With more than
// one effective worker the readers fan out across goroutines on an
// atomic work counter with per-worker scratch; per-reader results land
// in a fixed slot each, so the assembled sequence is deterministic
// whatever the interleaving. A worker panic (the workload's or an
// injected one) is re-raised on the calling goroutine after all workers
// drain.
func (inc *IncrementalAnalyzer) deriveNewData(newSubs []*SubComputation) []Edge {
	for _, sc := range newSubs {
		th := int32(sc.ID.Thread)
		for _, p := range sc.WriteSet.view() {
			runs := inc.writers[p]
			found := false
			for i := range runs {
				if runs[i].thread == th {
					runs[i].alphas = append(runs[i].alphas, int32(sc.ID.Alpha))
					found = true
					break
				}
			}
			if !found {
				inc.writers[p] = append(runs, incRun{thread: th, alphas: []int32{int32(sc.ID.Alpha)}})
			}
		}
	}
	workers := inc.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if maxw := (len(newSubs) + foldWorkerGrain - 1) / foldWorkerGrain; workers > maxw {
		workers = maxw
	}
	if workers <= 1 {
		if h := inc.workerHook; h != nil {
			h(0)
		}
		var out []Edge
		for _, sc := range newSubs {
			out = appendOrAdopt(out, inc.scratch.readerEdges(inc, sc))
		}
		sortEdges(out, &inc.edgeSort)
		return out
	}
	perReader := make([][]Edge, len(newSubs))
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicMu sync.Mutex
	var panicked any
	sawPanic := false
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if !sawPanic {
						sawPanic, panicked = true, r
					}
					panicMu.Unlock()
				}
			}()
			if h := inc.workerHook; h != nil {
				h(wid)
			}
			var sc incScratch
			for {
				i := int(next.Add(1)) - 1
				if i >= len(newSubs) {
					return
				}
				perReader[i] = sc.readerEdges(inc, newSubs[i])
			}
		}(w)
	}
	wg.Wait()
	if sawPanic {
		panic(panicked)
	}
	total := 0
	for _, es := range perReader {
		total += len(es)
	}
	out := make([]Edge, 0, total)
	for _, es := range perReader {
		out = append(out, es...)
	}
	sortEdges(out, &inc.edgeSort)
	return out
}

// captureCut advances inc.lens to a causally closed snapshot of the
// shard lengths (keeping the previous prefix in inc.prevLens), pulls the
// newly covered vertices into inc.seqs, and returns them in (thread,
// alpha) order.
func (inc *IncrementalAnalyzer) captureCut() []*SubComputation {
	inc.prevLens = append(inc.prevLens[:0], inc.lens...)
	target := append(inc.cutTarget[:0], inc.lens...)
	inc.cutTarget = target
	for t := range target {
		target[t] = max(inc.g.shardLen(t), inc.lens[t])
	}
	for grew := true; grew; {
		grew = false
		for t := range inc.seqs {
			have := len(inc.seqs[t])
			if have >= target[t] {
				continue
			}
			inc.seqs[t] = inc.g.threadTail(inc.seqs[t], t, have, target[t])
			tail := inc.seqs[t][have:]
			// threadTail clamps to the live shard; shrink the target so a
			// hand-built graph that never publishes the wanted vertices
			// cannot spin this loop.
			target[t] = have + len(tail)
			grew = grew || len(tail) > 0
			for i, sc := range tail {
				// The fold names and indexes vertices by their recorded ID;
				// one that disagrees with its slot (only a hand-mutated
				// graph — Verify reports it) is folded under its slot
				// instead, so it cannot index outside the prefix.
				if slot := (SubID{Thread: t, Alpha: uint64(have + i)}); sc.ID != slot {
					cp := *sc
					cp.ID = slot
					tail[i] = &cp
				}
				for u := range target {
					// The recording discipline publishes a vertex before
					// its clock flows anywhere, so the needed vertices
					// are already in the shard; the clamp only guards
					// hand-built graphs that break that discipline.
					if need := int(sc.Clock.Get(u)); need > target[u] {
						target[u] = max(target[u], min(need, inc.g.shardLen(u)))
					}
				}
			}
		}
	}
	// The first advanced thread's run is handed out as a capped view of
	// its append-only sequence — a per-seal cut advances one thread, so
	// that is usually the whole result — and further threads' runs append
	// to a copy (the cap forces it).
	var newSubs []*SubComputation
	for t := range inc.seqs {
		tail := inc.seqs[t][inc.lens[t]:]
		newSubs = appendOrAdopt(newSubs, tail[:len(tail):len(tail)])
		inc.lens[t] = len(inc.seqs[t])
	}
	return newSubs
}

// readerEdges derives reader n's incoming data edges against the folded
// prefix. Three structural facts keep it cheap on sync-heavy executions:
// (1) a thread's writers of a page are totally ordered by program order,
// so at most the *latest* one that happens-before n can be maximal —
// earlier ones are hidden by it; (2) "happens-before n" is monotone
// along a thread's sequence, so that latest writer is found by binary
// search within the page's writer run; and (3) the search key is a pure
// integer threshold. The recording discipline guarantees the standard
// vector-clock theorem (every sub-computation ticks its own component at
// start, and components only flow through synchronization): thread u's
// sub α carries clock[u] = α+1, so m on thread u happens-before n
// exactly when n.Clock[u] ≥ α(m)+1. Thread u's candidate is therefore
// the latest writer with alpha ≤ n.Clock[u]-1 (program order on n's own
// thread, which also excludes self-writes), and a candidate m is hidden
// iff another candidate has seen m's tick. No O(threads) clock
// comparison appears anywhere; dataEdgesReference keeps the
// full-comparison form and the property tests hold the two equal.
//
// The analyzer state read here (writers, seqs) is frozen for the
// duration of the derivation, so any number of workers can share it; all
// mutable state lives in the scratch.
func (sc *incScratch) readerEdges(inc *IncrementalAnalyzer, n *SubComputation) []Edge {
	sc.accFrom = sc.accFrom[:0]
	sc.accPages = sc.accPages[:0]
	for _, p := range n.ReadSet.view() {
		runs := inc.writers[p]
		if runs == nil {
			continue
		}
		sc.cands = sc.cands[:0]
		for _, run := range runs {
			var lim int32
			if int(run.thread) == n.ID.Thread {
				lim = int32(n.ID.Alpha) - 1
			} else {
				lim = int32(n.Clock.Get(int(run.thread))) - 1
			}
			seq := run.alphas
			if len(seq) == 0 || seq[0] > lim {
				continue
			}
			lo, hi := 1, len(seq)
			for lo < hi {
				mid := (lo + hi) / 2
				if seq[mid] <= lim {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			sc.cands = append(sc.cands, incCand{thread: run.thread, alpha: seq[lo-1]})
		}
		for _, m := range sc.cands {
			hidden := false
			for _, m2 := range sc.cands {
				if m2 != m && int32(inc.seqs[m2.thread][m2.alpha].Clock.Get(int(m.thread))) >= m.alpha+1 {
					hidden = true
					break
				}
			}
			if hidden {
				continue
			}
			slot := -1
			for k, f := range sc.accFrom {
				if f == m {
					slot = k
					break
				}
			}
			if slot < 0 {
				sc.accFrom = append(sc.accFrom, m)
				sc.accPages = append(sc.accPages, nil)
				slot = len(sc.accFrom) - 1
			}
			// Pages arrive ascending from the read-set view, so each
			// list comes out sorted without a final sort.
			sc.accPages[slot] = append(sc.accPages[slot], p)
		}
	}
	if len(sc.accFrom) == 0 {
		return nil
	}
	out := make([]Edge, len(sc.accFrom))
	for k, m := range sc.accFrom {
		out[k] = Edge{
			From:  SubID{Thread: int(m.thread), Alpha: uint64(m.alpha)},
			To:    n.ID,
			Kind:  EdgeData,
			Pages: sc.accPages[k],
		}
	}
	return out
}

// mergeSortedEdges merges two canonically sorted edge runs into a fresh
// slice (left-biased on ties, which preserves the multiset order
// sortEdges would produce). The inputs are never mutated, so earlier
// epochs' analyses keep their views.
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
	out = append(out, b[j:]...)
	return out
}
