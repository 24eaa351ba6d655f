package core

// A Cutter computes a recording's epoch cuts, numbered 1, 2, …: the
// record half of the paper's record/build split, each a §VI consistent
// snapshot, kept as lengths (a Cut): the frontier, each shard's log
// lengths and the interner's. It derives and copies nothing; an
// IncrementalAnalyzer that adopts its cuts folds them, and FillDelta
// reads an epoch's delta from the logs only for a consumer that frames
// it.
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
// A cut reads the clocks it closes over, and a fill the tails it
// emits, in place in the graph's shard logs, so a Cutter is safe to
// drive from one goroutine (or under one lock, as epoch.Driver does)
// while any number of recording threads append to the graph.
type Cutter struct {
	g *Graph
	// last is the newest cut, prev the one before it (the zero cut,
	// before the first): FillDelta's epoch lies between them. scanned is
	// closeCut's scratch, ints what each cut's lengths are carved from.
	prev, last Cut
	scanned    []int
	ints       runs[int]
}

// A Cut is an epoch as the record side holds it: a §VI consistent
// snapshot kept as lengths, never as copies. Thread t's vertices
// [0, Lens[t]), sync-log entries [0, Sync[t]) and gaps [0, Gaps[t]) and
// the interner's first Syms strings are what the epochs up to Epoch
// cover. The slices are immutable once cut, so a cut is passed by value
// and kept as long as anyone likes; everything it counts lies in the
// graph's append-only logs.
type Cut struct {
	Epoch            uint64
	Lens, Sync, Gaps []int
	Syms             int
}

// NewCutter prepares the cuts of g. No epoch exists until the first Cut.
func NewCutter(g *Graph) *Cutter {
	n := g.Threads()
	return &Cutter{g: g, prev: zeroCut(n), last: zeroCut(n), scanned: make([]int, n)}
}

// zeroCut is the cut before the first of an n-thread graph. Ref 0 is
// the "" every NewGraph interns; no delta carries it, so a replay
// against a fresh graph starts aligned.
func zeroCut(n int) Cut {
	return Cut{Lens: make([]int, n), Sync: make([]int, n), Gaps: make([]int, n), Syms: 1}
}

// Epoch returns the newest cut's epoch number (0 before the first).
func (c *Cutter) Epoch() uint64 { return c.last.Epoch }

// Cut advances the causally closed frontier over everything recorded
// since the previous cut and returns the next epoch's cut: the frontier,
// then each shard's log lengths and the interner's, read after it.
// Nothing is copied; FillDelta reads the epoch from the logs when a
// consumer frames it.
func (c *Cutter) Cut() Cut {
	lens := c.ints.alloc(len(c.last.Lens))
	copy(lens, c.last.Lens)
	c.g.closeCut(c.last.Lens, lens, c.scanned)
	c.prev, c.last = c.last, c.g.advance(c.last.Epoch+1, lens, c.last, &c.ints)
	return c.last
}

// FillDelta fills d with the newest cut's epoch: the vertices it covers
// that the cut before it did not, and the log entries and interned
// strings past that cut's lengths, read in place from the graph. It
// reuses d's slices; d.Lens is the cut's and d.Symbols a view of the
// interner's table, both read-only. Framing an epoch is its only use.
func (c *Cutter) FillDelta(d *EpochDelta) {
	prev, cut := &c.prev, &c.last
	d.Epoch, d.Lens, d.SymBase, d.Symbols = cut.Epoch, cut.Lens, uint32(prev.Syms), nil
	if cut.Syms > prev.Syms {
		d.Symbols = c.g.interner.View(cut.Syms)[prev.Syms:]
	}
	d.Subs, d.Sync, d.Gaps = d.Subs[:0], d.Sync[:0], d.Gaps[:0]
	for slot, sc := range c.g.between(prev.Lens, cut.Lens) {
		// A vertex whose ID disagrees with its slot (only a hand-mutated
		// graph — Verify reports it) travels under its slot, so a replay
		// cannot put it anywhere else.
		if sc.ID != slot {
			cp := *sc
			cp.ID = slot
			sc = &cp
		}
		d.Subs = append(d.Subs, sc)
	}
	// Most threads grow no log in an epoch: skip them without a walk.
	for t := range cut.Lens {
		sh := &c.g.shards[t]
		if prev.Sync[t] < cut.Sync[t] {
			d.Sync = sh.syncEdges.appendTo(d.Sync, prev.Sync[t], cut.Sync[t])
		}
		if prev.Gaps[t] == cut.Gaps[t] {
			continue
		}
		for run := range sh.gaps.runs(prev.Gaps[t], cut.Gaps[t]) {
			for _, gp := range run {
				d.Gaps = append(d.Gaps, DeltaGap{Thread: t, Gap: gp})
			}
		}
	}
}

// advance returns the cut numbered epoch whose frontier is lens, a
// causally closed frontier past last's, reading each shard's log lengths
// and the interner's now. Read after the frontier closed, they cover
// it: an acquire logs its edge before its acquiring vertex seals, and
// every ref a vertex or edge uses was interned before its user sealed.
// A cut's slices never change, so a log-length slice no log outgrew
// since last is last's own; most cuts grow no gap list and many no sync
// log. The others are carved from ints.
func (g *Graph) advance(epoch uint64, lens []int, last Cut, ints *runs[int]) Cut {
	c := Cut{Epoch: epoch, Lens: lens, Sync: last.Sync, Gaps: last.Gaps}
	for t := range lens {
		sh := &g.shards[t]
		if n := sh.syncEdges.Len(); n != c.Sync[t] {
			c.Sync = own(c.Sync, last.Sync, ints)
			c.Sync[t] = n
		}
		if n := sh.gaps.Len(); n != c.Gaps[t] {
			c.Gaps = own(c.Gaps, last.Gaps, ints)
			c.Gaps[t] = n
		}
	}
	c.Syms = g.interner.Len()
	return c
}

// own returns s ready to write: s itself once it is a copy, or, while
// it is still the array shared with the previous cut, a copy carved
// from ints.
func own(s, shared []int, ints *runs[int]) []int {
	if &s[0] != &shared[0] {
		return s
	}
	cp := ints.alloc(len(s))
	copy(cp, s)
	return cp
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
