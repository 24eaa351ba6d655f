package core

// A Cutter computes a recording's epoch cuts, numbered 1, 2, …: the
// record half of the paper's record/build split, each a §VI consistent
// snapshot, kept as lengths: the last cut's frontier and each shard's
// log lengths and the interner's. It derives nothing; an
// IncrementalAnalyzer that adopts its deltas (on the graph they were cut
// from, or one they are applied to) folds them.
//
// # Why folding is sound: causally consistent cuts
//
// A fold must not analyze a reader before all its potential writers are
// visible, or it would derive an update-use edge from a hidden (stale)
// writer and freeze it into every later epoch. A cut therefore closes the
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
// A cut reads the clocks it closes over and the tails it emits in place
// in the graph's shard logs, so a Cutter is safe to drive from one
// goroutine (or under one lock, as epoch.Driver does) while any number
// of recording threads append to the graph.
type Cutter struct {
	g     *Graph
	epoch uint64
	// lens is the last cut's frontier, immutable once set. syncLens and
	// gapLens are each shard's sync-edge log and gap-list lengths at the
	// last cut, syms the interner length: where the next delta's tails
	// start. scanned is closeCut's scratch.
	lens, syncLens, gapLens, scanned []int
	syms                             int
	// deltas, ints, subs and sync are what cuts are carved from — each
	// delta, its lens, its vertices and its sync tail (most cuts carry a
	// few of each) — all immutable once cut.
	deltas runs[EpochDelta]
	ints   runs[int]
	subs   runs[*SubComputation]
	sync   runs[DeltaSyncEdge]
}

// NewCutter prepares the cuts of g. No epoch exists until the first Cut.
func NewCutter(g *Graph) *Cutter {
	n := g.Threads()
	return &Cutter{
		g:        g,
		lens:     make([]int, n),
		syncLens: make([]int, n),
		gapLens:  make([]int, n),
		scanned:  make([]int, n),
		// Ref 0 is the "" every NewGraph interns; deltas never carry it,
		// so replay against a fresh graph starts aligned.
		syms: 1,
	}
}

// Epoch returns the newest cut's epoch number (0 before the first).
func (c *Cutter) Epoch() uint64 { return c.epoch }

// Cut advances the causally closed frontier over everything recorded
// since the previous cut and returns the next epoch's delta: the
// vertices it covers that the previous cut did not, the log tails past
// what earlier cuts emitted, and the interner tail, each copied from
// the graph.
func (c *Cutter) Cut() *EpochDelta {
	c.epoch++
	d := &c.deltas.alloc(1)[0]
	d.Epoch, d.SymBase = c.epoch, uint32(c.syms)
	n := len(c.lens)
	lens := c.ints.alloc(n)
	copy(lens, c.lens)
	c.g.closeCut(c.lens, lens, c.scanned)
	// The logs are read after the frontier is closed: an acquire logs its
	// edge before its acquiring vertex seals, so every vertex inside the
	// cut has its incoming sync entries in these lengths.
	for slot, sc := range c.g.between(c.lens, lens) {
		// A vertex whose ID disagrees with its slot (only a hand-mutated
		// graph — Verify reports it) travels under its slot, so a replay
		// cannot put it anywhere else.
		if sc.ID != slot {
			cp := *sc
			cp.ID = slot
			sc = &cp
		}
		c.subs.add(sc)
	}
	for t := range lens {
		sh := &c.g.shards[t]
		syncLen, gapLen := sh.syncEdges.Len(), sh.gaps.Len()
		c.sync.reserve(syncLen - c.syncLens[t])
		c.sync.buf = sh.syncEdges.appendTo(c.sync.buf, c.syncLens[t], syncLen)
		for run := range sh.gaps.runs(c.gapLens[t], gapLen) {
			for _, gp := range run {
				d.Gaps = append(d.Gaps, DeltaGap{Thread: t, Gap: gp})
			}
		}
		c.syncLens[t], c.gapLens[t] = syncLen, gapLen
	}
	c.lens, d.Lens = lens, lens
	d.Subs, d.Sync = c.subs.take(), c.sync.take()
	// The interner tail comes last: every ref the captured vertices and
	// sync edges use was interned before its user sealed, so capturing
	// the table after the cut guarantees coverage.
	d.Symbols = c.g.interner.Tail(c.syms)
	c.syms += len(d.Symbols)
	return d
}

// closeCut extends lens, from a causally closed cut of g at from, over
// every vertex published since and closes it under happens-before,
// reading each clock past from once, in place. scanned is scratch, one
// int per thread: how far that thread's clocks have been read.
func (g *Graph) closeCut(from, lens, scanned []int) {
	copy(scanned, from)
	for t := range lens {
		lens[t] = max(lens[t], g.shards[t].seq.Len())
	}
	for grew := true; grew; {
		grew = false
		for t := range lens {
			lo, hi := scanned[t], lens[t]
			for run := range g.shards[t].seq.runs(lo, hi) {
				for _, sc := range run {
					for u := range lens {
						// A vertex is published before its clock flows
						// anywhere; the clamp guards hand-built graphs.
						lens[u] = max(lens[u], min(int(sc.Clock.Get(u)), g.shards[u].seq.Len()))
					}
				}
			}
			scanned[t], grew = hi, grew || lo < hi
		}
	}
}
