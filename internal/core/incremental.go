package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// IncrementalAnalyzer folds a still-growing CPG into successive immutable
// Analyses — the live half of the paper's claim that provenance is
// usable *while* the traced program runs. An epoch has two halves, the
// paper's record/build split: a Cutter cuts it (cutter.go: a causally
// closed frontier and the epoch's delta, no derivation), and an
// analyzer Adopts the cut and FoldAs derives everything adopted since
// the previous fold, extending the accumulated analysis state instead
// of re-deriving it. An analyzer only ever folds deltas it adopted: the
// recording's follower adopts the epoch driver's cuts over the
// recorder's graph, a replay the deltas it applied to a rebuilt one,
// and Fold is the analyzer's own Cutter, Adopt and FoldAs back to back.
// The fold:
//
//   - the page → writer-runs index persists across epochs and only the
//     new writers are appended to it;
//   - data edges are derived only for the epoch's new readers, fanned
//     out across fold workers on an atomic work counter (SetFoldWorkers):
//     a vertex already analyzed can never gain a new *incoming* edge
//     (the cuts are causally closed: see Cutter), so earlier epochs'
//     derivations are final;
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
// The data edges are the update-use edges (§IV-A III): for every reader
// n and page p in its read set, an edge from each maximal writer m
// (under happens-before) with p in its write set and m -> n. Writers
// hidden by a later writer of the same page that still precedes the
// reader are excluded, so each edge names a write that may actually have
// produced the value read.
//
// This is the package's only data-edge derivation (deriveNewData over
// the page → writer-runs index): Graph.Analyze is one fold of a
// throw-away analyzer over one whole-graph cut, so k folds and one fold
// are the same code and the equivalence property tests pin them
// byte-identical. The oracles are independent of it and live with the
// tests: dataEdgesReference (dataedges_test.go) retains the original
// map-of-maps derivation as the executable specification, and the
// tests' ReferenceAnalyzer (export_test.go) re-merges flat sections and
// rebuilds through the flat newAnalysis every epoch as the spec for the
// store.
//
// An IncrementalAnalyzer is driven from one goroutine (or under one
// lock); recording threads may append to the graph meanwhile.
type IncrementalAnalyzer struct {
	g *Graph

	epoch uint64
	// lens is the folded prefix: thread t's vertices [0, lens[t]) are
	// analyzed. cutLens is the last adopted cut's frontier, lens[t] ≤
	// cutLens[t]; the vertices in between are adopted but not yet
	// folded. Both are immutable once set, so deltas and views share
	// them; cutBase is the dense-index base of cutLens (the Cutter's,
	// from the same allocation; nil after a decoded delta until the fold
	// needs it).
	lens    []int
	cutLens []int
	cutBase []int
	adopted uint64 // the last adopted delta's epoch
	// seqs mirrors the adopted prefix per thread (append-only, so slices
	// handed to earlier epochs stay valid).
	seqs [][]*SubComputation
	// adoptedSync's open run holds the sync entries adopted since the
	// last fold.
	adoptedSync runs[Edge]
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

	// gapCut is each thread's gap count through the last adopted cut
	// (gapTotal their sum): the only gaps a fold may see. comp is the
	// last view's completeness, built from compGaps gaps; compFinal says
	// no gap of it reaches past the folded prefix, so a longer prefix
	// clamps nothing differently and the next view may reuse comp while
	// no gap is new.
	gapCut    []int
	gapTotal  int
	comp      Completeness
	compGaps  int
	compFinal bool

	// syms is the interner length the last adopted cut saw: the symbol
	// table of every Analysis folded from it, and where the next delta's
	// table extends it.
	syms int

	// scratch serves the serial derivation path; parallel workers carry
	// their own. edgeSort is every sortEdges call's.
	scratch  incScratch
	edgeSort edgeSortScratch
	cutter   *Cutter // Fold's and FoldDelta's, made by the first of them
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
// exists until the first fold.
func NewIncrementalAnalyzer(g *Graph) *IncrementalAnalyzer {
	n := g.Threads()
	empty := make([]int, n)
	return &IncrementalAnalyzer{
		g:         g,
		lens:      empty,
		cutLens:   empty,
		seqs:      make([][]*SubComputation, n),
		gapCut:    make([]int, n),
		writers:   make(map[uint64][]incRun),
		st:        newIncStore(n),
		comp:      Completeness{Complete: true},
		compFinal: true,
		syms:      1, // a Cutter's first symbol base
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

// Fold seals one epoch, numbered one past the previous: the analyzer's
// own Cutter cuts everything recorded since its last cut, and the
// analyzer adopts and folds it, returning the new epoch's Analysis.
// Calling Fold with nothing new still produces a (cheap) new epoch over
// the unchanged prefix. Fold must not be called concurrently with
// itself; recording threads may keep appending throughout.
func (inc *IncrementalAnalyzer) Fold() *Analysis {
	a, _ := inc.FoldDelta()
	return a
}

// FoldDelta is Fold that also returns the epoch's delta: the per-seal
// journal path of a recorder whose consumer wants every epoch's
// Analysis. It panics on an analyzer that adopted another Cutter's
// deltas, whose epochs its own cuts would not continue.
func (inc *IncrementalAnalyzer) FoldDelta() (*Analysis, *EpochDelta) {
	if inc.cutter == nil {
		inc.cutter = NewCutter(inc.g)
	}
	d := inc.cutter.Cut()
	if err := inc.Adopt(d); err != nil {
		panic(err)
	}
	return inc.FoldAs(d.Epoch), d
}

// FoldAs derives everything adopted since the last fold — the vertices
// between the folded prefix and the cut frontier, the sync-log entries
// and gaps the cuts carried — and seals it as epoch e, which must exceed
// Epoch(). It reads the graph only up to the lengths the last cut
// captured, so however long the fold is deferred, and whatever is
// recorded meanwhile, it returns the Analysis an immediate fold would
// have. The epoch pipeline folds a batch of adopted deltas once and
// names the epoch by the last delta. Everything but the number is
// independent of how many folds the prefix took, so k cuts folded once
// are the Analysis k folds produce.
func (inc *IncrementalAnalyzer) FoldAs(e uint64) *Analysis {
	prev, lens := inc.lens, inc.cutLens
	if inc.cutBase == nil {
		inc.cutBase = make([]int, len(lens)+1)
		for t, l := range lens {
			inc.cutBase[t+1] = inc.cutBase[t] + l
		}
	}
	newSubs := subsBetween(inc.seqs, prev, lens)
	// Derive the new readers' incoming data edges; everything older is
	// final (closed cut: no new writer can happen-before an old reader).
	newData := inc.deriveNewData(newSubs)
	newSync := inc.foldSync(lens)

	inc.epoch, inc.lens = e, lens
	inc.totals.add(newSubs)
	a := inc.st.extend(inc.g, newSync, newData, lens, prev, inc.cutBase, inc.completeness(lens), e)
	a.totals, a.syms = inc.totals, inc.syms
	return a
}

// Adopt takes a Cutter's cut: d's vertices extend the mirrored prefix
// up to d.Lens, d.Sync joins the next fold's sync entries, d.Gaps counts
// on each thread's gap list, and the symbol table ends d.Symbols on. The
// next FoldAs folds it, reading the gaps and names back from the graph,
// which must hold everything d carries: the graph d was cut from, or
// one d was applied to. A delta that is not the next epoch (one past
// the newer of the last adopted delta and the last fold) or extends
// another symbol table is refused, changing nothing.
func (inc *IncrementalAnalyzer) Adopt(d *EpochDelta) error {
	if want := max(inc.adopted, inc.epoch) + 1; d.Epoch != want || int(d.SymBase) != inc.syms {
		return fmt.Errorf("core: adopted epoch %d over symbol base %d, want epoch %d over %d (reordered or cross-run delta)", d.Epoch, d.SymBase, want, inc.syms)
	}
	// Each thread's run of d.Subs extends its mirror at once; a first run
	// is shared, not copied (Analyze adopts one whole-graph cut).
	for subs := d.Subs; len(subs) > 0; {
		t, n := subs[0].ID.Thread, 1
		for n < len(subs) && subs[n].ID.Thread == t {
			n++
		}
		inc.seqs[t], subs = appendOrAdopt(inc.seqs[t], subs[:n:n]), subs[n:]
	}
	inc.cutLens, inc.cutBase = d.Lens, d.base
	for _, e := range d.Sync {
		inc.adoptedSync.add(Edge{From: e.From, To: e.To, Kind: EdgeSync, Object: inc.g.ObjectName(e.Object)})
	}
	for _, dg := range d.Gaps {
		inc.gapCut[dg.Thread]++
	}
	inc.gapTotal += len(d.Gaps)
	inc.syms += len(d.Symbols)
	inc.adopted = d.Epoch
	return nil
}

// completeness returns the trace-loss summary of the prefix lens over
// the gaps the last cut saw, reusing the previous view's summary while
// no gap is new and none of them reached past the previous prefix.
func (inc *IncrementalAnalyzer) completeness(lens []int) Completeness {
	if inc.gapTotal != inc.compGaps || !inc.compFinal {
		gaps, final := inc.g.gapsForPrefix(lens, inc.gapCut)
		inc.comp, inc.compGaps, inc.compFinal = summarizeGaps(gaps), inc.gapTotal, final
	}
	return inc.comp
}

// foldSync folds the sync-edge log entries adopted since the last
// fold: entries whose endpoints are both inside the prefix join the
// epoch (returned sorted), the rest are deferred (an acquire logs its
// edge before the acquiring sub-computation seals). Both the fresh
// entries and the deferred backlog are sorted runs, so one epoch costs a
// sort of the fresh entries plus linear partitions and merges — the
// backlog is never re-sorted, however many epochs it survives (the
// deferred-acquirer regression test pins this path).
func (inc *IncrementalAnalyzer) foldSync(lens []int) []Edge {
	fresh := inc.adoptedSync.take()
	sortEdges(fresh, &inc.edgeSort)
	backlogReady, backlogDefer := partitionSyncReady(inc.pendingSync, lens)
	freshReady, freshDefer := partitionSyncReady(fresh, lens)
	inc.pendingSync = mergeSortedEdges(backlogDefer, freshDefer)
	return mergeSortedEdges(backlogReady, freshReady)
}

// partitionSyncReady splits a sorted entry run the fold owns (the
// backlog, the epoch's fresh entries — never a slice an Analysis holds)
// into the entries whose endpoints are both inside the prefix and the
// still-deferred rest, preserving order (so both halves stay sorted).
// A run that is all ready (every entry of a whole-graph Analyze) is
// handed over whole, one with none ready stays as it is; otherwise the
// ready entries move to a fresh slice of their exact size, which the
// store adopts, and the deferred ones are compacted in place.
func partitionSyncReady(entries []Edge, lens []int) (ready, deferred []Edge) {
	n := 0
	for i := range entries {
		if e := &entries[i]; subInPrefix(e.From, lens) && subInPrefix(e.To, lens) {
			n++
		}
	}
	switch n {
	case 0:
		return nil, entries
	case len(entries):
		return entries, nil
	}
	ready, deferred = make([]Edge, 0, n), entries[:0]
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
