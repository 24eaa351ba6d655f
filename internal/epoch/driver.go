// Package epoch is the one epoch pipeline every consumer of a recording
// hangs off: a Driver cuts the live graph once per epoch and hands each
// cut to an ordered list of sinks (journal, live feed, snapshot ring,
// stream queue), and a Replayer is its mirror image on the apply side
// (journal recovery, the aggregator's ingest). A cut is the epoch's
// delta and nothing more. A sink that wants the epoch's Analysis either
// asks the driver for it, folding on the sealing thread, or is a
// Follower, which replays the delta and folds on its own goroutine; a
// run whose sinks only persist or ship deltas derives nothing while it
// records. There is one epoch numbering: the Driver cuts once per
// epoch, so journal record k, wire frame k and the recorder's epoch k
// are the same cut. The apply side folds once per batch of deltas and
// numbers each fold by its last delta, so the epochs it publishes are a
// subset of the delta epochs, each the same cut as the recorder's epoch
// of that number.
package epoch

import (
	"errors"
	"fmt"
	"sync"

	"github.com/repro/inspector/internal/core"
)

// Sink consumes a run's epochs, in epoch order, on whichever goroutine
// cut them (the sealing thread for commit-hook cuts).
type Sink interface {
	// Emit receives one epoch. An error latches this sink only: the
	// Driver stops feeding it and reports the error from Close.
	Emit(e Epoch) error
	// Finish runs once after the final epoch, latched or not (journal
	// seal or unsealed close, stream seal frame, closed feed).
	Finish(final uint64) error
}

// Epoch is one cut as a sink sees it: the delta, and the analysis on
// request.
type Epoch struct {
	// Delta is the epoch's delta; Delta.Epoch numbers the epoch.
	Delta *core.EpochDelta
	d     *Driver
}

// Analysis returns the epoch's Analysis, folding everything cut since
// the last fold on the first call of any sink and handing later callers
// the same pointer. It runs under the driver's lock, which Emit already
// holds, so call it only from Emit: once the next epoch is cut, this
// one's analysis is no longer derivable and Analysis panics.
func (e Epoch) Analysis() *core.Analysis {
	if e.Delta.Epoch != e.d.cut {
		panic(fmt.Sprintf("epoch: analysis of epoch %d asked after epoch %d was cut", e.Delta.Epoch, e.d.cut))
	}
	return e.d.analysisLocked()
}

// Options configure a Driver.
type Options struct {
	// Every cuts one epoch each N commit seals (minimum and default 1).
	Every uint64
	// WorkerHook is the analyzer's SetWorkerHook (fault injection); it
	// runs only in folds, that is when a sink asks for an analysis.
	WorkerHook func(worker int)
}

// Driver owns a graph's one IncrementalAnalyzer. Every epoch is a Cut
// whose delta goes to each unlatched sink in list order, under the
// Driver's lock: a sink listed earlier is done with an epoch before a
// later one sees it, so list the journal first and an epoch is durable
// before it is observable. The first sink to ask for the epoch's
// analysis pays its fold; one that never asks costs nothing.
type Driver struct {
	every uint64

	mu    sync.Mutex
	inc   *core.IncrementalAnalyzer
	sinks []Sink
	errs  []error // per sink; non-nil = latched
	alive int
	seals uint64
	// cut is the newest cut's epoch; last the newest folded analysis,
	// the cut's once some caller asked for it.
	cut    uint64
	last   *core.Analysis
	closed bool
}

// NewDriver prepares the pipeline over g. No epoch exists until the
// first cut.
func NewDriver(g *core.Graph, opts Options, sinks ...Sink) *Driver {
	inc := core.NewIncrementalAnalyzer(g)
	inc.SetWorkerHook(opts.WorkerHook)
	return &Driver{every: max(opts.Every, 1), inc: inc, sinks: sinks, errs: make([]error, len(sinks)), alive: len(sinks)}
}

// CommitHook returns the threading.Runtime commit hook: it counts seals
// and cuts every Options.Every of them, synchronously on the sealing
// thread — at Every = 1, epoch i is seal i.
func (d *Driver) CommitHook() func(core.SubID) {
	return func(core.SubID) {
		d.mu.Lock()
		defer d.mu.Unlock()
		if d.seals++; d.seals%d.every == 0 {
			d.cutLocked()
		}
	}
}

// Cut cuts one epoch now, whatever the seal count — for callers that
// pace epochs themselves (LiveEngine's coalescing goroutine, a forced
// snapshot).
func (d *Driver) Cut() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cutLocked()
}

// cutLocked cuts one epoch and feeds the sinks. Once every sink has
// latched (or the pipeline closed) there is nobody to cut for.
func (d *Driver) cutLocked() {
	if d.closed || d.alive == 0 {
		return
	}
	e := Epoch{Delta: d.inc.Cut(), d: d}
	d.cut = e.Delta.Epoch
	for i, s := range d.sinks {
		if d.errs[i] != nil {
			continue
		}
		if d.errs[i] = s.Emit(e); d.errs[i] != nil {
			d.alive--
		}
	}
}

// analysisLocked folds whatever was cut since the last fold, numbered by
// the newest cut, and memoizes it (nil before the first cut).
func (d *Driver) analysisLocked() *core.Analysis {
	if d.cut > d.inc.Epoch() {
		d.last = d.inc.FoldAs(d.cut)
	}
	return d.last
}

// Epoch returns the number of epochs cut so far.
func (d *Driver) Epoch() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cut
}

// Analysis returns the newest cut's analysis (nil before the first cut),
// folding first if no sink asked for it. After Close that is one fold of
// everything no sink asked for — for a run whose sinks never ask, a
// Graph.Analyze-sized fold of the whole recording.
func (d *Driver) Analysis() *core.Analysis {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.analysisLocked()
}

// Close cuts a final epoch covering everything sealed since the last,
// then finishes every sink. Call it after recording has quiesced. It
// returns the sinks' errors joined; closing again returns the same.
func (d *Driver) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.closed {
		d.cutLocked()
		d.closed = true
		for i, s := range d.sinks {
			if err := s.Finish(d.cut); d.errs[i] == nil {
				d.errs[i] = err
			}
		}
	}
	return errors.Join(d.errs...)
}
