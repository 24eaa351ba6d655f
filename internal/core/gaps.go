package core

import "fmt"

// Trace loss is a first-class property of the hardware channel the paper
// records from: Intel PT overflows its AUX ring under load (the OVF
// packet exists for exactly this), traces truncate when a process dies
// mid-write, and a crashed workload leaves its last sub-computation
// unsealed. A CPG built from such a trace is not wrong — every vertex
// and edge it does contain was really observed — but it may be missing
// control path detail inside the affected intervals. Gaps record those
// intervals in the graph itself, so every consumer downstream (analysis,
// verification, the query wire) can distinguish "complete" from
// "degraded" instead of silently treating them alike.

// GapKind classifies why a trace interval is uncertain.
type GapKind uint8

// Gap kinds.
const (
	// GapAuxLoss marks trace bytes dropped by the AUX ring (or any
	// lossy sink): the decoder will resync past an OVF, losing the
	// branch history in between.
	GapAuxLoss GapKind = iota + 1
	// GapTruncated marks a trace that ended mid-stream (the recording
	// process died before the final flush).
	GapTruncated
	// GapPanic marks a sub-computation whose workload body panicked:
	// the interval was being recorded when the thread unwound, so its
	// access sets and control path are partial.
	GapPanic
)

// String names the gap kind.
func (k GapKind) String() string {
	switch k {
	case GapAuxLoss:
		return "aux-loss"
	case GapTruncated:
		return "truncated"
	case GapPanic:
		return "panic"
	default:
		return "unknown"
	}
}

// Gap marks one per-thread interval of sub-computation indices
// [FromAlpha, ToAlpha] whose recorded detail is uncertain because trace
// data was lost while they executed. The vertices themselves remain in
// the graph (boundaries come from the instrumentation layer, not the
// trace), but their thunk sequences may be incomplete.
type Gap struct {
	FromAlpha uint64
	ToAlpha   uint64
	Kind      GapKind
	// Bytes counts the trace bytes lost over the interval (0 when the
	// loss is structural rather than byte-counted, e.g. a panic).
	Bytes uint64
}

// String renders like "T?.3-5 aux-loss (128 bytes)" without the thread.
func (gp Gap) String() string {
	if gp.Bytes > 0 {
		return fmt.Sprintf("α%d-%d %s (%d bytes)", gp.FromAlpha, gp.ToAlpha, gp.Kind, gp.Bytes)
	}
	return fmt.Sprintf("α%d-%d %s", gp.FromAlpha, gp.ToAlpha, gp.Kind)
}

// ThreadGaps pairs one thread slot with its recorded gap intervals, in
// the order they were recorded (FromAlpha ascending, since the recording
// thread appends them in program order).
type ThreadGaps struct {
	Thread int
	Gaps   []Gap
}

// AddGap records a trace-loss interval on thread t. Like vertex appends,
// gaps are recorded by the owning thread, so the shard mutex is
// uncontended on the recording path.
func (g *Graph) AddGap(t int, gp Gap) {
	sh := g.shard(t)
	if sh == nil {
		return
	}
	sh.mu.Lock()
	sh.gaps.push(gp)
	sh.mu.Unlock()
}

// ThreadGapList returns thread t's recorded gap intervals.
func (g *Graph) ThreadGapList(t int) []Gap {
	sh := g.shard(t)
	if sh == nil {
		return nil
	}
	return sh.gaps.appendTo(nil, 0, sh.gaps.Len())
}

// Gaps returns every thread's gap intervals, thread ascending, omitting
// threads with none. Nil means the recording was complete.
func (g *Graph) Gaps() []ThreadGaps {
	var out []ThreadGaps
	for t := range g.shards {
		if gaps := g.ThreadGapList(t); len(gaps) > 0 {
			out = append(out, ThreadGaps{Thread: t, Gaps: gaps})
		}
	}
	return out
}

// Degraded reports whether any trace loss was recorded.
func (g *Graph) Degraded() bool {
	for t := range g.shards {
		if g.shards[t].gaps.Len() > 0 {
			return true
		}
	}
	return false
}

// Completeness summarizes how much of a recording the graph can vouch
// for. The zero value of the counting fields plus Complete=true is the
// common case: no trace loss anywhere.
type Completeness struct {
	// Complete is true when no gap intervals were recorded.
	Complete bool
	// GapThreads counts threads with at least one gap.
	GapThreads int
	// GapIntervals counts recorded gap intervals across all threads.
	GapIntervals int
	// LostBytes totals the trace bytes the gaps account for.
	LostBytes uint64
	// Gaps is the per-thread detail (nil when Complete).
	Gaps []ThreadGaps
}

// summarizeGaps folds per-thread gap lists into a Completeness.
func summarizeGaps(gaps []ThreadGaps) Completeness {
	c := Completeness{Complete: len(gaps) == 0, Gaps: gaps}
	for _, tg := range gaps {
		c.GapThreads++
		c.GapIntervals += len(tg.Gaps)
		for _, gp := range tg.Gaps {
			c.LostBytes += gp.Bytes
		}
	}
	return c
}

// Completeness summarizes the graph's recorded trace loss.
func (g *Graph) Completeness() Completeness {
	return summarizeGaps(g.Gaps())
}

// gapsForPrefix snapshots the gap intervals that touch the vertex prefix
// bounded by lens, clamping intervals to the prefix. Gaps recorded
// entirely beyond the prefix belong to a later epoch's analysis and are
// excluded, so live folds report completeness consistent with the
// prefix their cursors refer to. A non-nil gapLens bounds how much of
// each thread's list is read (a fold sees the gaps its cut saw, not
// later ones). final reports that no read gap reaches past the prefix,
// so a longer prefix would clamp and exclude nothing differently.
func (g *Graph) gapsForPrefix(lens, gapLens []int) (out []ThreadGaps, final bool) {
	final = true
	for t := 0; t < len(lens) && t < len(g.shards); t++ {
		log := &g.shards[t].gaps
		n := log.Len()
		if gapLens != nil {
			n = gapLens[t]
		}
		var kept []Gap
		for run := range log.runs(0, n) {
			for _, gp := range run {
				if end := uint64(lens[t]); gp.FromAlpha >= end || gp.ToAlpha >= end {
					if final = false; gp.FromAlpha >= end {
						continue
					}
					gp.ToAlpha = end - 1
				}
				kept = append(kept, gp)
			}
		}
		if len(kept) > 0 {
			out = append(out, ThreadGaps{Thread: t, Gaps: kept})
		}
	}
	return out, final
}
