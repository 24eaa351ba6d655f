package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// IncrementalAnalyzer folds a still-growing CPG into successive immutable
// Analyses — the live half of the paper's claim that provenance is
// usable *while* the traced program runs. An epoch has two halves, the
// paper's record/build split: a Cutter cuts it (cutter.go: a causally
// closed frontier kept as lengths, no derivation), and an analyzer
// Adopts the Cut and FoldAs derives everything adopted since the
// previous fold, extending the accumulated analysis state instead of
// re-deriving it. An analyzer only ever folds cuts it adopted: the
// recording's follower adopts the epoch driver's cuts over the
// recorder's graph, a replay the lengths of the graph it applied each
// delta to, Fold is the analyzer's own Cutter, Adopt and FoldAs back to
// back, and Graph.Analyze's throw-away analyzer adopts a whole-graph
// cut.
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
// An analyzer keeps lengths, not copies: a fold reads what it adopted
// since the last fold in place in the graph's shard logs, with no lock,
// and names each vertex by its slot (t, α), never by the ID it records.
//
// An IncrementalAnalyzer is driven from one goroutine (or under one
// lock); recording threads may append to the graph meanwhile.
type IncrementalAnalyzer struct {
	g *Graph

	epoch uint64
	// cut is the last adopted cut. lens is the folded prefix: thread t's
	// vertices [0, lens[t]) are analyzed, lens[t] ≤ cut.Lens[t]; the
	// vertices in between are adopted but not yet folded. Both are
	// immutable once set, so cuts and views share them. ints is what
	// each view's dense-index base is carved from.
	cut  Cut
	lens []int
	ints runs[int]
	// syncLens is each thread's sync-edge log length folded: the entries
	// up to cut.Sync join the next fold.
	syncLens []int
	// pendingSync holds the log entries, as rows, seen before their
	// endpoints sealed, in canonical sorted order. freshSync, mergedSync
	// and readySync are foldSync's scratch: the fold's new entries, the
	// backlog merged with them, the ones the epoch takes.
	pendingSync, freshSync, mergedSync, readySync []edgeRow
	// dataRows and dataPages are deriveNewData's output buffers: the
	// epoch's data rows, their pages at offsets into dataPages. FoldAs
	// copies both into the store's arenas, or hands them over while the
	// arenas are empty (see adopt), so the next fold reuses or regrows
	// them.
	dataRows  []edgeRow
	dataPages []uint64
	// rowCmp is the store's row order (arenas.cmp), bound once.
	rowCmp func(a, b *edgeRow) int
	// writers is the persistent page → writer-runs index: for each page,
	// one run per writing thread with alphas ascending.
	writers map[uint64][]incRun

	// st accumulates the arenas and the adjacency overlay across epochs.
	st *incStore
	// totals sums the folded prefix's per-vertex counters; each fold adds
	// its new vertices and every view copies the sums, so Stats never
	// walks the prefix.
	totals VertexTotals

	// workers caps the fold's data-edge derivation fan-out (0 =
	// GOMAXPROCS); workerHook, when set, runs at the start of every
	// derivation worker (fault injection hooks in, here).
	workers    int
	workerHook func(worker int)

	// gapTotal sums cut.Gaps: the only gaps a fold may see. comp is the
	// last view's completeness, built from compGaps gaps; compFinal says
	// no gap of it reaches past the folded prefix, so a longer prefix
	// clamps nothing differently and the next view may reuse comp while
	// no gap is new.
	gapTotal  int
	comp      Completeness
	compGaps  int
	compFinal bool

	// scratch serves the serial derivation path; par[w] is parallel
	// worker w's, kept across folds. edgeSort is every sortEdges call's.
	scratch  incScratch
	par      []incScratch
	edgeSort edgeSortScratch
	cutter   *Cutter // Fold's, made by the first
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

// incHit is one page a reader takes from the writer in slot of its
// scratch's accFrom.
type incHit struct {
	slot uint32
	page uint64
}

// incScratch is one derivation worker's reusable per-reader scratch,
// and a parallel worker's output: the rows it derived, their pages at
// offsets into pages.
type incScratch struct {
	cands   []incCand
	accFrom []incCand
	hits    []incHit
	at      []uint64
	rows    []edgeRow
	pages   []uint64
}

// NewIncrementalAnalyzer prepares an empty fold state over g. No epoch
// exists until the first fold.
func NewIncrementalAnalyzer(g *Graph) *IncrementalAnalyzer {
	n := g.Threads()
	cut := zeroCut(n)
	st := newIncStore(n)
	return &IncrementalAnalyzer{
		g:         g,
		cut:       cut,
		lens:      cut.Lens,
		syncLens:  make([]int, n),
		writers:   make(map[uint64][]incRun),
		st:        st,
		rowCmp:    st.ar.cmp,
		comp:      Completeness{Complete: true},
		compFinal: true,
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
// itself; recording threads may keep appending throughout. It panics on
// an analyzer that adopted another Cutter's cuts, whose epochs its own
// would not continue.
func (inc *IncrementalAnalyzer) Fold() *Analysis {
	if inc.cutter == nil {
		inc.cutter = NewCutter(inc.g)
	}
	c := inc.cutter.Cut()
	if err := inc.Adopt(c); err != nil {
		panic(err)
	}
	return inc.FoldAs(c.Epoch)
}

// FoldDelta is Fold that also returns the epoch's delta, filled into a
// new EpochDelta: for callers that frame or journal each epoch
// themselves.
func (inc *IncrementalAnalyzer) FoldDelta() (*Analysis, *EpochDelta) {
	a, d := inc.Fold(), new(EpochDelta)
	inc.cutter.FillDelta(d)
	return a, d
}

// FoldAs derives everything adopted since the last fold — the vertices
// between the folded prefix and the cut frontier, the sync-log entries
// and gaps the cuts counted — and seals it as epoch e, which must exceed
// Epoch(). It reads the graph only up to the lengths the last cut
// captured, so however long the fold is deferred, and whatever is
// recorded meanwhile, it returns the Analysis an immediate fold would
// have. The epoch pipeline folds a batch of adopted cuts once and names
// the epoch by the last cut. Everything but the number is independent
// of how many folds the prefix took, so k cuts folded once are the
// Analysis k folds produce.
func (inc *IncrementalAnalyzer) FoldAs(e uint64) *Analysis {
	prev, lens := inc.lens, inc.cut.Lens
	base := inc.ints.alloc(len(lens) + 1)
	for t, l := range lens {
		base[t+1] = base[t] + l
	}
	// The names sync rows compare and materialize by: the symbol table
	// every adopted cut saw.
	ar := &inc.st.ar
	if len(ar.names) < inc.cut.Syms {
		ar.names = inc.g.interner.View(inc.cut.Syms)
	}
	// Derive the new readers' incoming data edges; everything older is
	// final (closed cut: no new writer can happen-before an old reader).
	// The epoch's rows go to the arenas' tails, beyond every published
	// view's length, each data row's run of pages rebased into the page
	// arena.
	syncLo, dataLo := len(ar.sync), len(ar.data)
	rows, pages := inc.deriveNewData(prev, lens)
	if pagesLo := uint64(len(ar.pages)); pagesLo > 0 {
		for i := range rows {
			if rows[i].n > 1 {
				rows[i].page[0] += pagesLo
			}
		}
	}
	ar.pages = adopt(ar.pages, pages, &inc.dataPages)
	ar.data = adopt(ar.data, rows, &inc.dataRows)
	ar.sync = adopt(ar.sync, inc.foldSync(lens), &inc.freshSync, &inc.readySync)

	inc.epoch, inc.lens = e, lens
	inc.totals.add(inc.g, prev, lens)
	a := inc.st.extend(inc.g, syncLo, dataLo, lens, prev, base, inc.completeness(lens), e)
	a.totals, a.syms = inc.totals, inc.cut.Syms
	return a
}

// adopt appends buf, a buffer of the analyzer's, to the arena dst. An
// empty arena takes buf itself instead of a copy — so a one-fold
// Analyze's arenas are its derivation's buffers — and the analyzer lets
// go of every buffer in owners, those buf may be, so that no later fold
// writes what the store now holds.
func adopt[T any](dst, buf []T, owners ...*[]T) []T {
	if len(dst) > 0 || len(buf) == 0 {
		return append(dst, buf...)
	}
	for _, own := range owners {
		*own = nil
	}
	return buf
}

// Adopt takes c as the cut the next FoldAs folds to, reading everything
// from the graph, which must hold what c counts: the graph c was cut
// from, or a replay of it. A cut that is not the next epoch (one past
// the newer of the last adopted cut and the last fold), counts fewer of
// any log or symbols than the last adopted cut, or counts more than the
// graph has published is refused, changing nothing.
func (inc *IncrementalAnalyzer) Adopt(c Cut) error {
	last, g := &inc.cut, inc.g
	if want := max(last.Epoch, inc.epoch) + 1; c.Epoch != want || c.Syms < last.Syms || c.Syms > g.interner.Len() {
		return fmt.Errorf("core: adopted epoch %d over %d symbols, want epoch %d over %d to %d (reordered or cross-run cut)", c.Epoch, c.Syms, want, last.Syms, g.interner.Len())
	}
	n := len(last.Lens)
	if len(c.Lens) != n || len(c.Sync) != n || len(c.Gaps) != n {
		return fmt.Errorf("core: adopted cut of %d/%d/%d threads, graph has %d", len(c.Lens), len(c.Sync), len(c.Gaps), n)
	}
	gaps := 0
	for t, l := range c.Lens {
		sh := &g.shards[t]
		if l < last.Lens[t] || c.Sync[t] < last.Sync[t] || c.Gaps[t] < last.Gaps[t] ||
			l > sh.seq.Len() || c.Sync[t] > sh.syncEdges.Len() || c.Gaps[t] > sh.gaps.Len() {
			return fmt.Errorf("core: adopted cut ends thread %d at %d vertices, %d sync entries and %d gaps: before the last cut's %d, %d and %d, or past the graph's %d, %d and %d (cross-run cut)",
				t, l, c.Sync[t], c.Gaps[t], last.Lens[t], last.Sync[t], last.Gaps[t], sh.seq.Len(), sh.syncEdges.Len(), sh.gaps.Len())
		}
		gaps += c.Gaps[t]
	}
	inc.cut, inc.gapTotal = c, gaps
	return nil
}

// AdoptPublished adopts everything the graph has published, as the cut
// numbered epoch: each shard's vertex, sync-log and gap-list lengths and
// the interner's. It closes nothing, so it is for a graph whose every
// published prefix is a consistent cut — a replay's, built cut by cut
// by ApplyDelta, which adopts after each.
func (inc *IncrementalAnalyzer) AdoptPublished(epoch uint64) error {
	lens := inc.ints.alloc(len(inc.cut.Lens))
	for t := range lens {
		lens[t] = inc.g.shards[t].seq.Len()
	}
	return inc.Adopt(inc.g.advance(epoch, lens, inc.cut, &inc.ints))
}

// Adopted returns the last adopted cut (the zero cut before the first).
func (inc *IncrementalAnalyzer) Adopted() Cut { return inc.cut }

// newWholeAnalyzer returns an analyzer of g that has adopted the cut of
// everything g has published, a fresh Cutter's first: Analyze's one
// fold.
func newWholeAnalyzer(g *Graph) *IncrementalAnalyzer {
	inc := NewIncrementalAnalyzer(g)
	if err := inc.Adopt(NewCutter(g).Cut()); err != nil {
		panic(err) // the graph's own cut
	}
	return inc
}

// completeness returns the trace-loss summary of the prefix lens over
// the gaps the last cut saw, reusing the previous view's summary while
// no gap is new and none of them reached past the previous prefix.
func (inc *IncrementalAnalyzer) completeness(lens []int) Completeness {
	if inc.gapTotal != inc.compGaps || !inc.compFinal {
		gaps, final := inc.g.gapsForPrefix(lens, inc.cut.Gaps)
		inc.comp, inc.compGaps, inc.compFinal = summarizeGaps(gaps), inc.gapTotal, final
	}
	return inc.comp
}

// foldSync folds the sync-edge log entries adopted since the last
// fold, read from the shard logs as rows: entries whose endpoints are
// both inside the prefix join the epoch (returned sorted, in scratch
// the next fold reuses), the rest are deferred (an acquire logs its
// edge before the acquiring sub-computation seals). The fresh entries
// are sorted and merged with the deferred backlog, which is itself a
// sorted run, and the merge is split in order: one epoch costs a sort
// of the fresh entries plus a linear merge and partition — the backlog
// is never re-sorted, however many epochs it survives (the
// deferred-acquirer regression test pins this path).
func (inc *IncrementalAnalyzer) foldSync(lens []int) []edgeRow {
	n := 0
	for t, l := range inc.cut.Sync {
		n += l - inc.syncLens[t]
	}
	fresh := slices.Grow(inc.freshSync[:0], n)
	for t, l := range inc.cut.Sync {
		fresh = inc.g.appendSyncLog(fresh, t, inc.syncLens[t], l)
		inc.syncLens[t] = l
	}
	sortEdges(fresh, inc.rowCmp, &inc.edgeSort)
	inc.freshSync = fresh
	all := fresh
	if len(inc.pendingSync) > 0 {
		all = inc.st.ar.appendMergedRows(slices.Grow(inc.mergedSync[:0], len(inc.pendingSync)+n), inc.pendingSync, fresh)
		inc.mergedSync = all
	} else if allReady(fresh, lens) {
		return fresh
	}
	ready, pending := slices.Grow(inc.readySync[:0], len(all)), inc.pendingSync[:0]
	for i := range all {
		if r := &all[i]; r.from.inPrefix(lens) && r.to.inPrefix(lens) {
			ready = append(ready, *r)
		} else {
			pending = append(pending, *r)
		}
	}
	inc.readySync, inc.pendingSync = ready, pending
	return ready
}

// allReady reports whether every row has both endpoints inside the
// prefix lens.
func allReady(rows []edgeRow, lens []int) bool {
	for i := range rows {
		if !rows[i].from.inPrefix(lens) || !rows[i].to.inPrefix(lens) {
			return false
		}
	}
	return true
}

// appendMergedRows appends the merge of two canonically sorted row runs
// to dst, a ahead of b on ties (which preserves the order sortEdges
// would produce). Neither input is written.
func (ar *arenas) appendMergedRows(dst, a, b []edgeRow) []edgeRow {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if ar.cmp(&b[j], &a[i]) < 0 {
			dst = append(dst, b[j])
			j++
		} else {
			dst = append(dst, a[i])
			i++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// foldWorkerGrain is the number of new readers that justifies one
// derivation worker: cuts with fewer than two grains derive serially,
// and the fan-out never exceeds ceil(new readers / grain) regardless of
// the configured worker count.
const foldWorkerGrain = 256

// deriveNewData indexes the new writers — thread t's vertices [prev[t],
// lens[t]) — and derives the new readers' incoming data edges, returned
// as canonically sorted rows whose pages lie at their offsets into the
// returned page run: the analyzer's output buffers, which the next fold
// reuses. The index is extended with every new vertex before any reader
// is derived: a new reader's writers may be new vertices of the same
// cut. With more than one effective worker the readers fan out across
// goroutines on an atomic work counter with per-worker scratch; each
// reader's rows are recorded by position, so the assembled sequence is
// deterministic whatever the interleaving. A worker panic (the
// workload's or an injected one) is re-raised on the calling goroutine
// after all workers drain.
func (inc *IncrementalAnalyzer) deriveNewData(prev, lens []int) ([]edgeRow, []uint64) {
	total := 0
	for id, sc := range inc.g.between(prev, lens) {
		th, alpha := int32(id.Thread), int32(id.Alpha)
		total++
		for _, p := range sc.WriteSet.view() {
			runs := inc.writers[p]
			found := false
			for i := range runs {
				if runs[i].thread == th {
					runs[i].alphas = append(runs[i].alphas, alpha)
					found = true
					break
				}
			}
			if !found {
				inc.writers[p] = append(runs, incRun{thread: th, alphas: []int32{alpha}})
			}
		}
	}
	// The grain caps the workers first: a fold of fewer than two grains
	// is serial whatever GOMAXPROCS says, and asking takes the
	// scheduler's lock.
	workers := (total + foldWorkerGrain - 1) / foldWorkerGrain
	if workers > 1 {
		limit := inc.workers
		if limit <= 0 {
			limit = runtime.GOMAXPROCS(0)
		}
		workers = min(workers, limit)
	}
	// A reader derives an edge or a few, each of a page or a few: room
	// for one row and one page per reader saves most regrowths.
	rows, pages := slices.Grow(inc.dataRows[:0], total), slices.Grow(inc.dataPages[:0], total)
	defer func() { inc.dataRows, inc.dataPages = rows, pages }()
	if workers <= 1 {
		if h := inc.workerHook; h != nil {
			h(0)
		}
		for id, sc := range inc.g.between(prev, lens) {
			rows, pages = inc.scratch.readerEdges(inc, id, sc, rows, pages)
		}
		sortEdges(rows, inc.rowCmp, &inc.edgeSort)
		return rows, pages
	}
	// perReader[i] is where reader i's rows lie: [lo, hi) of worker w's.
	type readerRows struct{ w, lo, hi int32 }
	perReader := make([]readerRows, total)
	for len(inc.par) < workers {
		inc.par = append(inc.par, incScratch{})
	}
	// Only what the workers read is captured: a variable a goroutine
	// captures lives on the heap, which the serial path would pay for.
	share := total/workers + foldWorkerGrain
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
			sc := &inc.par[wid]
			sc.rows, sc.pages = slices.Grow(sc.rows[:0], share), slices.Grow(sc.pages[:0], share)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(perReader) {
					return
				}
				// Reader i is the i-th new vertex in (thread, alpha) order.
				t, alpha := 0, i
				for alpha >= lens[t]-prev[t] {
					alpha -= lens[t] - prev[t]
					t++
				}
				alpha += prev[t]
				lo := len(sc.rows)
				sc.rows, sc.pages = sc.readerEdges(inc, SubID{Thread: t, Alpha: uint64(alpha)}, inc.g.shards[t].seq.at(alpha), sc.rows, sc.pages)
				perReader[i] = readerRows{w: int32(wid), lo: int32(lo), hi: int32(len(sc.rows))}
			}
		}(w)
	}
	wg.Wait()
	if sawPanic {
		panic(panicked)
	}
	for _, pr := range perReader {
		sc := &inc.par[pr.w]
		for _, r := range sc.rows[pr.lo:pr.hi] {
			if r.n > 1 {
				from := r.page[0]
				r.page[0] = uint64(len(pages))
				pages = append(pages, sc.pages[from:from+uint64(r.n)]...)
			}
			rows = append(rows, r)
		}
	}
	sortEdges(rows, inc.rowCmp, &inc.edgeSort)
	return rows, pages
}

// readerEdges derives the incoming data edges of reader n, the vertex
// in slot id, against the folded prefix, and appends them to rows, one
// row per writer, its pages to pages. Three structural facts keep it
// cheap on sync-heavy executions: (1) a thread's writers of a page are
// totally ordered by program order, so at most the *latest* one that
// happens-before n can be maximal — earlier ones are hidden by it; (2)
// "happens-before n" is monotone along a thread's sequence, so that
// latest writer is found by binary search within the page's writer run;
// and (3) the search key is a pure integer threshold. The recording discipline guarantees the standard
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
// The analyzer state read here (writers) and the graph's published
// vertices are frozen for the duration of the derivation, so any number
// of workers can share them; all mutable state lives in the scratch
// and the caller's rows and pages.
func (sc *incScratch) readerEdges(inc *IncrementalAnalyzer, id SubID, n *SubComputation, rows []edgeRow, pages []uint64) ([]edgeRow, []uint64) {
	sc.accFrom = sc.accFrom[:0]
	sc.hits = sc.hits[:0]
	for _, p := range n.ReadSet.view() {
		runs := inc.writers[p]
		if runs == nil {
			continue
		}
		sc.cands = sc.cands[:0]
		for _, run := range runs {
			var lim int32
			if int(run.thread) == id.Thread {
				lim = int32(id.Alpha) - 1
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
				if m2 != m && int32(inc.g.shards[m2.thread].seq.at(int(m2.alpha)).Clock.Get(int(m.thread))) >= m.alpha+1 {
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
				slot = len(sc.accFrom) - 1
			}
			sc.hits = append(sc.hits, incHit{slot: uint32(slot), page: p})
		}
	}
	if len(sc.accFrom) == 0 {
		return rows, pages
	}
	// One row per writer: count each writer's hits, lay out a run of
	// the page arena for each writer of more than one page, then place
	// the pages, a single one in its row. Pages arrive ascending from the
	// read-set view, so each run comes out sorted without a final sort.
	at := slices.Grow(sc.at[:0], len(sc.accFrom))[:len(sc.accFrom)]
	clear(at)
	sc.at = at
	for _, h := range sc.hits {
		at[h.slot]++
	}
	first, to, next := len(rows), refOf(id), uint64(len(pages))
	for k, m := range sc.accFrom {
		r := edgeRow{from: vertexRef(uint64(m.thread)<<32 | uint64(uint32(m.alpha))), to: to, n: uint32(at[k])}
		if r.n > 1 {
			r.page[0] = next
			at[k], next = next, next+at[k]
		}
		rows = append(rows, r)
	}
	pages = slices.Grow(pages, int(next)-len(pages))[:next]
	for _, h := range sc.hits {
		if r := &rows[first+int(h.slot)]; r.n == 1 {
			r.page[0] = h.page
		} else {
			pages[at[h.slot]] = h.page
			at[h.slot]++
		}
	}
	return rows, pages
}
