package core

import "fmt"

// An EpochDelta is the serializable difference between two consecutive
// epochs: what a Cutter's newest Cut covers past the one before it,
// filled from the graph's logs by Cutter.FillDelta. The record side
// keeps cuts as lengths and fills a delta only to frame it: the epoch
// driver (internal/epoch) fills one delta, reused every epoch, when a
// sink asks for the frame, and AppendWire is the one encoder. The frame
// is the record the crash-durability journal appends and the bytes a
// recorder streams to an aggregator (provenance.Uploader's queue →
// IngestSource): self-contained, order-dependent, and replayable; the
// replay side decodes it and applies it with ApplyDelta.
//
// Interned refs inside Subs and Sync are journal-scoped: they resolve
// against the symbol table built by interning every delta's Symbols in
// sequence. SymBase pins each delta to the table length it extends, so
// replay detects reordered, skipped, or cross-run records instead of
// silently mis-resolving names.
type EpochDelta struct {
	// Epoch is the epoch this delta seals (1 for the first cut).
	Epoch uint64
	// Lens is the cut prefix after this epoch: thread t's vertices
	// [0, Lens[t]) are covered. On replay the shard lengths must land
	// exactly here, which cross-checks the vertex payload.
	Lens []int
	// SymBase is the interner length the Symbols extend (ref of
	// Symbols[0]). Ref 0, the empty string every NewGraph pre-interns,
	// is never carried.
	SymBase uint32
	// Symbols are the strings interned since the previous delta, in ref
	// order.
	Symbols []string
	// Subs are the vertices the epoch's cut captured, ordered by
	// (thread, alpha).
	Subs []*SubComputation
	// Sync are the sync-edge log entries first seen by this epoch, in
	// acquiring-thread order. An entry may reference a vertex a later
	// epoch captures; the replay fold defers it exactly like the live
	// fold did.
	Sync []DeltaSyncEdge
	// Gaps are the trace-loss intervals first seen by this epoch.
	Gaps []DeltaGap
}

// DeltaSyncEdge is the stored form of one schedule-dependency log entry,
// in a shard's sync-edge log and in a delta.
type DeltaSyncEdge struct {
	From, To SubID
	Object   ObjRef
}

// DeltaGap is one trace-loss interval with its owning thread.
type DeltaGap struct {
	Thread int
	Gap    Gap
}

// validateDelta checks that d is a well-formed extension of g without
// mutating either: symbol continuity against the interner, interned-ref
// range, thread range, per-thread alpha density, and the final shard
// lengths against Lens. A nil error means ApplyDelta on the same graph
// state cannot fail.
func validateDelta(g *Graph, d *EpochDelta) error {
	if d == nil {
		return fmt.Errorf("core: nil epoch delta")
	}
	if len(d.Lens) != g.threads {
		return fmt.Errorf("core: delta lens for %d threads, graph has %d", len(d.Lens), g.threads)
	}
	// Symbols first: every ref below resolves against the table as
	// extended through this delta.
	if got := g.interner.Len(); int(d.SymBase) != got {
		return fmt.Errorf("core: delta symbol base %d, graph table has %d (reordered or cross-run delta)", d.SymBase, got)
	}
	var tail map[string]uint32
	if len(d.Symbols) > 0 {
		tail = make(map[string]uint32, len(d.Symbols))
	}
	for i, s := range d.Symbols {
		want := uint32(int(d.SymBase) + i)
		got, present := g.interner.Find(s)
		if !present {
			got, present = tail[s]
		}
		if present {
			return fmt.Errorf("core: delta symbol %d (%q) interned as ref %d, want %d (duplicate in tail)", i, s, got, want)
		}
		tail[s] = want
	}
	nsym := uint32(int(d.SymBase) + len(d.Symbols))
	badRef := func(r uint32) bool { return r >= nsym }
	// next tracks where each thread's shard would end up, so density
	// and the Lens cross-check run against the delta alone.
	if g.applyNext == nil {
		g.applyNext = make([]uint64, g.threads)
	}
	next := g.applyNext
	for t := range next {
		next[t] = uint64(g.shards[t].seq.Len())
	}
	for _, sc := range d.Subs {
		if sc == nil {
			return fmt.Errorf("core: delta contains nil sub-computation")
		}
		if badRef(uint32(sc.End.Object)) {
			return fmt.Errorf("core: sub %v end-object ref %d out of range [0,%d)", sc.ID, sc.End.Object, nsym)
		}
		if badRef(uint32(sc.maxRef)) {
			return fmt.Errorf("core: sub %v thunk site/target ref %d out of range [0,%d)", sc.ID, sc.maxRef, nsym)
		}
		t := sc.ID.Thread
		if t < 0 || t >= g.threads {
			return fmt.Errorf("core: thread slot %d out of range [0,%d)", t, g.threads)
		}
		if sc.ID.Alpha != next[t] {
			return fmt.Errorf("core: thread %d alpha %d out of order (have %d)", t, sc.ID.Alpha, next[t])
		}
		next[t]++
	}
	for _, e := range d.Sync {
		if g.shard(e.To.Thread) == nil {
			return fmt.Errorf("core: delta sync edge to out-of-range thread %d", e.To.Thread)
		}
		if badRef(uint32(e.Object)) {
			return fmt.Errorf("core: delta sync edge object ref %d out of range [0,%d)", e.Object, nsym)
		}
	}
	for _, dg := range d.Gaps {
		if g.shard(dg.Thread) == nil {
			return fmt.Errorf("core: delta gap on out-of-range thread %d", dg.Thread)
		}
	}
	for t, want := range d.Lens {
		if want < 0 {
			return fmt.Errorf("core: delta lens[%d] = %d is negative", t, want)
		}
		if next[t] != uint64(want) {
			return fmt.Errorf("core: thread %d has %d vertices after delta, lens say %d", t, next[t], want)
		}
	}
	return nil
}

// ApplyDelta appends one epoch delta to g — the replay half of
// Cutter.Cut. Deltas must be applied in epoch order against a graph
// built from them alone; an analyzer of g that Adopts each one
// reproduces the recording's Analyses byte-for-byte.
//
// The apply is atomic: validateDelta runs to completion before the
// first mutation, so a rejected delta leaves g byte-for-byte untouched.
// That matters on trust boundaries — journal recovery and the network
// ingest path both feed ApplyDelta records that passed a CRC check but
// may still be forged or stale (fuzzing, mixed runs), and a rejecting
// aggregator keeps serving the last good epoch from the same graph. The
// caller serializes ApplyDelta against other mutators of g.
func ApplyDelta(g *Graph, d *EpochDelta) error {
	if err := validateDelta(g, d); err != nil {
		return err
	}
	for _, s := range d.Symbols {
		g.interner.Intern(s)
	}
	for _, sc := range d.Subs {
		// add re-checks thread range and alpha density; validation makes
		// failure impossible, so an error here is a bug, not bad input.
		if err := g.add(sc); err != nil {
			return err
		}
	}
	for _, e := range d.Sync {
		g.addSyncEdge(e.From, e.To, e.Object)
	}
	for _, dg := range d.Gaps {
		g.AddGap(dg.Thread, dg.Gap)
	}
	return nil
}
