package epoch

import "github.com/repro/inspector/internal/core"

// Replayer rebuilds a recording from its epoch deltas: a fresh graph,
// the analyzer folding it, and the last appended delta's lens and epoch.
// Appends and folds need not alternate: a fold seals everything appended
// since the previous one and is numbered by the last appended delta, so
// any batching of the same deltas reaches the recording's Analysis at
// that epoch byte for byte. A replay of a frame stream (Bind) also
// reads the stream's frames (Apply, stream.go). Methods are not
// goroutine-safe; callers serialize.
type Replayer struct {
	g    *core.Graph
	inc  *core.IncrementalAnalyzer
	lens []int
	last uint64

	sealed  bool
	invalid error
}

// NewReplayer prepares an empty replay of a threads-wide graph.
func NewReplayer(threads int) *Replayer {
	g := core.NewGraph(threads)
	return &Replayer{g: g, inc: core.NewIncrementalAnalyzer(g)}
}

// Graph returns the graph being rebuilt.
func (r *Replayer) Graph() *core.Graph { return r.g }

// Append adds d to the graph without folding it. The append is atomic
// (core.ApplyDelta validates before it mutates), so after an error the
// graph still ends exactly at the previous delta.
func (r *Replayer) Append(d *core.EpochDelta) error {
	if err := core.ApplyDelta(r.g, d); err != nil {
		return err
	}
	r.lens, r.last = d.Lens, d.Epoch
	return nil
}

// Pending reports whether deltas were appended since the last fold.
func (r *Replayer) Pending() bool { return r.last > r.inc.Epoch() }

// Fold seals everything appended since the last fold into one epoch,
// numbered by the last appended delta — or, when nothing was appended
// since, one past the previous fold. It cuts the rebuilt graph first;
// the delta that cut re-captures is what was just appended, so it is
// dropped.
func (r *Replayer) Fold() *core.Analysis {
	r.inc.Cut()
	return r.inc.FoldAs(max(r.last, r.inc.Epoch()+1))
}

// Truncate is the fold that ends a replay cut short: it first marks, on
// every thread that has vertices, that an arbitrary suffix may be
// missing after the last appended delta (anchored on the last replayed
// vertex so prefix-scoped completeness retains the interval), so the
// epoch it returns reports degraded. Journal recovery truncates instead
// of folding its pending records, so the degraded epoch is the last
// record's; a poisoned ingest source, which already published its
// applied prefix, truncates into one more epoch.
func (r *Replayer) Truncate() *core.Analysis {
	for t, n := range r.lens {
		if n > 0 {
			r.g.AddGap(t, core.Gap{FromAlpha: uint64(n - 1), ToAlpha: uint64(n), Kind: core.GapTruncated})
		}
	}
	return r.Fold()
}
