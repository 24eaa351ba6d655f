package epoch

import "github.com/repro/inspector/internal/core"

// Replayer rebuilds a recording from its epoch deltas: a fresh graph
// each delta is applied to, and the analyzer adopting the graph's
// lengths after each, so no fold cuts. Appends and folds need not
// alternate: a fold seals everything appended since the previous one
// and is numbered by the last appended delta, so any batching of the
// same deltas reaches the recording's Analysis at that epoch byte for
// byte. It replays a frame stream (Bind, Apply: stream.go) for journal
// recovery and the aggregator. Methods are not goroutine-safe; callers
// serialize.
type Replayer struct {
	g    *core.Graph
	inc  *core.IncrementalAnalyzer
	last uint64

	sealed  bool
	invalid error
}

// Graph returns the graph being rebuilt.
func (r *Replayer) Graph() *core.Graph { return r.g }

// Adopted returns the cut the replay adopted last: the recording's cut
// of the last appended delta's epoch, lengths for lengths.
func (r *Replayer) Adopted() core.Cut { return r.inc.Adopted() }

// Append adds d, the next epoch, to the graph and adopts the graph's
// lengths after it, without folding it. It is atomic (core.ApplyDelta
// validates before it mutates, and of what AdoptPublished checks only
// the epoch order is not ApplyDelta's, and Apply checks it first), so
// after an error the replay still ends exactly at the previous delta.
func (r *Replayer) Append(d *core.EpochDelta) error {
	if err := core.ApplyDelta(r.g, d); err != nil {
		return err
	}
	if err := r.inc.AdoptPublished(d.Epoch); err != nil {
		return err
	}
	r.last = d.Epoch
	return nil
}

// Pending reports whether deltas were appended since the last fold.
func (r *Replayer) Pending() bool { return r.last > r.inc.Epoch() }

// Fold seals everything appended since the last fold into one epoch,
// numbered by the last appended delta.
func (r *Replayer) Fold() *core.Analysis { return r.inc.FoldAs(r.last) }

// Truncate is the fold that ends a replay cut short: numbered by the
// last appended delta, or one past the previous fold if that was it. It
// first marks, on every thread that has vertices, that an arbitrary
// suffix may be missing after the last appended delta (a gap anchored on
// the last replayed vertex, so prefix-scoped completeness retains the
// interval) and adopts the graph's lengths with those gaps, so the
// epoch it returns reports degraded. Journal recovery truncates instead
// of folding its pending records, so the degraded epoch is the last
// record's; a poisoned ingest source, which already published its
// applied prefix, truncates into one more epoch.
func (r *Replayer) Truncate() *core.Analysis {
	at, cut := max(r.last, r.inc.Epoch()+1), r.inc.Adopted()
	for t, n := range cut.Lens {
		if n > 0 {
			r.g.AddGap(t, core.Gap{FromAlpha: uint64(n - 1), ToAlpha: uint64(n), Kind: core.GapTruncated})
		}
	}
	if err := r.inc.AdoptPublished(max(cut.Epoch, r.inc.Epoch()) + 1); err != nil {
		panic(err) // the replay's own lengths
	}
	return r.inc.FoldAs(at)
}
