package epoch

import "github.com/repro/inspector/internal/core"

// Replayer rebuilds a recording from its epoch deltas: a fresh graph
// each delta is applied to, and the analyzer adopting each delta's cut,
// so no fold cuts. Appends and folds need not alternate: a fold seals
// everything appended since the previous one and is numbered by the
// last appended delta, so any batching of the same deltas reaches the
// recording's Analysis at that epoch byte for byte. It replays a frame
// stream (Bind, Apply: stream.go) for journal recovery and the
// aggregator. Methods are not goroutine-safe; callers serialize.
type Replayer struct {
	g    *core.Graph
	inc  *core.IncrementalAnalyzer
	lens []int
	last uint64

	sealed  bool
	invalid error
}

// Graph returns the graph being rebuilt.
func (r *Replayer) Graph() *core.Graph { return r.g }

// Append adds d, the next epoch, to the graph and adopts its cut,
// without folding it. It is atomic (core.ApplyDelta validates before it
// mutates, and Adopt's checks are ApplyDelta's and the epoch order
// Apply checks), so after an error the replay still ends exactly at the
// previous delta.
func (r *Replayer) Append(d *core.EpochDelta) error {
	if err := core.ApplyDelta(r.g, d); err != nil {
		return err
	}
	if err := r.inc.Adopt(d); err != nil {
		return err
	}
	r.lens, r.last = d.Lens, d.Epoch
	return nil
}

// Pending reports whether deltas were appended since the last fold.
func (r *Replayer) Pending() bool { return r.last > r.inc.Epoch() }

// Fold seals everything appended since the last fold into one epoch,
// numbered by the last appended delta.
func (r *Replayer) Fold() *core.Analysis { return r.inc.FoldAs(r.last) }

// Truncate is the fold that ends a replay cut short: numbered by the
// last appended delta, or one past the previous fold if that was it. It
// first appends one more delta, of no vertices, marking on every
// thread that has vertices that an arbitrary suffix may be missing after
// the last appended delta (anchored on the last replayed vertex so
// prefix-scoped completeness retains the interval), so the epoch it
// returns reports degraded. Journal recovery truncates instead of folding
// its pending records, so the degraded epoch is the last record's; a
// poisoned ingest source, which already published its applied prefix,
// truncates into one more epoch.
func (r *Replayer) Truncate() *core.Analysis {
	at, last := max(r.last, r.inc.Epoch()+1), r.last
	d := &core.EpochDelta{Epoch: max(r.last, r.inc.Epoch()) + 1, Lens: r.lens, SymBase: uint32(len(r.g.Symbols()))}
	for t, n := range r.lens {
		if n > 0 {
			d.Gaps = append(d.Gaps, core.DeltaGap{Thread: t, Gap: core.Gap{FromAlpha: uint64(n - 1), ToAlpha: uint64(n), Kind: core.GapTruncated}})
		}
	}
	if err := r.Append(d); err != nil {
		panic(err) // a delta of the replay's own lengths and table
	}
	r.last = last // Applied counts the stream's deltas
	return r.inc.FoldAs(at)
}
