package core

import "slices"

// A Cutter computes a recording's epoch cuts, numbered 1, 2, …: the
// record half of the paper's record/build split, each a §VI consistent
// snapshot. It derives nothing; an IncrementalAnalyzer that adopts its
// deltas (on the graph they were cut from, or one they are applied to)
// folds them.
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
// A Cutter is safe to drive from one goroutine (or under one lock, as
// epoch.Driver does) while any number of recording threads append to
// the graph.
type Cutter struct {
	g     *Graph
	epoch uint64
	// seqs mirrors the cut prefix per thread (append-only, so slices
	// handed to earlier deltas stay valid); lens is the last cut's
	// frontier, immutable once set.
	seqs [][]*SubComputation
	lens []int
	// syncLens and gapLens are each shard's sync-edge log and gap-list
	// lengths at the last cut, syms the interner length: where the next
	// delta's tails start.
	syncLens, gapLens []int
	syms              int
	target            []int // advance's reusable buffer
	// deltas, ints and sync are what cuts are carved from — each delta,
	// its lens with their base, and its sync tail (most cuts carry a few
	// entries) — all immutable once cut.
	deltas runs[EpochDelta]
	ints   runs[int]
	sync   runs[DeltaSyncEdge]
}

// NewCutter prepares the cuts of g. No epoch exists until the first Cut.
func NewCutter(g *Graph) *Cutter {
	n := g.Threads()
	return &Cutter{
		g:        g,
		seqs:     make([][]*SubComputation, n),
		lens:     make([]int, n),
		syncLens: make([]int, n),
		gapLens:  make([]int, n),
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
// what earlier cuts emitted, and the interner tail.
func (c *Cutter) Cut() *EpochDelta {
	c.epoch++
	d := &c.deltas.alloc(1)[0]
	d.Epoch, d.SymBase = c.epoch, uint32(c.syms)
	prev := c.lens
	c.advance()
	n := len(c.seqs)
	ints := c.ints.alloc(2*n + 1)
	lens, base := ints[:n:n], ints[n:]
	for t := range c.seqs {
		lens[t] = len(c.seqs[t])
		base[t+1] = base[t] + lens[t]
	}
	c.lens, d.Lens, d.base = lens, lens, base
	// The logs are read after the frontier is closed: an acquire logs its
	// edge before its acquiring vertex seals, so every vertex inside the
	// cut has its incoming sync entries in these lengths.
	for t := range c.syncLens {
		c.syncLens[t], c.gapLens[t] = c.g.logTails(t, d, &c.sync, c.syncLens[t], c.gapLens[t])
	}
	d.Sync = c.sync.take()
	d.Subs = subsBetween(c.seqs, prev, lens)
	// The interner tail comes last: every ref the captured vertices and
	// sync edges use was interned before its user sealed, so capturing
	// the table after the cut guarantees coverage.
	d.Symbols = c.g.interner.Tail(c.syms)
	c.syms += len(d.Symbols)
	return d
}

// advance extends c.seqs to a causally closed snapshot of the shard
// lengths, pulling in the newly covered vertices.
func (c *Cutter) advance() {
	target := slices.Grow(c.target[:0], len(c.seqs))[:len(c.seqs)]
	c.target = target
	for t := range target {
		target[t] = max(c.g.shardLen(t), len(c.seqs[t]))
	}
	for grew := true; grew; {
		grew = false
		for t := range c.seqs {
			have := len(c.seqs[t])
			if have >= target[t] {
				continue
			}
			c.seqs[t] = c.g.threadTail(c.seqs[t], t, have, target[t])
			tail := c.seqs[t][have:]
			// threadTail clamps to the live shard; shrink the target so a
			// hand-built graph that never publishes the wanted vertices
			// cannot spin this loop.
			target[t] = have + len(tail)
			grew = grew || len(tail) > 0
			for i, sc := range tail {
				// The fold names and indexes vertices by their recorded ID;
				// one that disagrees with its slot (only a hand-mutated
				// graph — Verify reports it) is cut under its slot
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
						target[u] = max(target[u], min(need, c.g.shardLen(u)))
					}
				}
			}
		}
	}
}

// subsBetween returns the vertices between two prefixes of seqs in
// (thread, alpha) order. The first advanced thread's run is handed out
// as a capped view of its append-only sequence — a per-seal cut advances
// one thread, so that is usually the whole result — and further
// threads' runs append to a copy (the cap forces it).
func subsBetween(seqs [][]*SubComputation, from, to []int) []*SubComputation {
	var subs []*SubComputation
	for t := range seqs {
		run := seqs[t][from[t]:to[t]]
		subs = appendOrAdopt(subs, run[:len(run):len(run)])
	}
	return subs
}
