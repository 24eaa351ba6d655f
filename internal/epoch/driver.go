// Package epoch is the one epoch pipeline every consumer of a recording
// hangs off: a Driver folds the live graph once per epoch into an
// ordered list of sinks (journal, live feed, stream queue), and a
// Replayer is its mirror image on the apply side (journal recovery, the
// aggregator's ingest). There is one epoch numbering: the Driver folds
// once per epoch, so journal record k, wire frame k and the recorder's
// epoch k are the same cut. The apply side folds once per batch of
// deltas and numbers each fold by its last delta, so the epochs it
// publishes are a subset of the delta epochs, each the same cut as the
// recorder's epoch of that number.
package epoch

import (
	"errors"
	"sync"

	"github.com/repro/inspector/internal/core"
)

// Sink consumes a run's folded epochs, in epoch order, on whichever
// goroutine folded them (the sealing thread for commit-hook folds).
type Sink interface {
	// Emit receives one folded epoch. An error latches this sink only:
	// the Driver stops feeding it and reports the error from Close.
	Emit(a *core.Analysis, d *core.EpochDelta) error
	// Finish runs once after the final epoch, latched or not (journal
	// seal or unsealed close, stream seal frame, closed feed).
	Finish(final uint64) error
}

// Options configure a Driver.
type Options struct {
	// Every folds one epoch each N commit seals (minimum and default 1).
	Every uint64
	// WorkerHook is the analyzer's SetWorkerHook (fault injection).
	WorkerHook func(worker int)
}

// Driver owns a graph's one IncrementalAnalyzer. Every fold is a
// FoldDelta whose (analysis, delta) pair goes to each unlatched sink in
// list order, under the Driver's lock: a sink listed earlier is done
// with an epoch before a later one sees it, so list the journal first
// and an epoch is durable before it is observable.
type Driver struct {
	every uint64

	mu     sync.Mutex
	inc    *core.IncrementalAnalyzer
	sinks  []Sink
	errs   []error // per sink; non-nil = latched
	alive  int
	seals  uint64
	last   *core.Analysis
	closed bool
}

// NewDriver prepares the pipeline over g. No epoch exists until the
// first fold.
func NewDriver(g *core.Graph, opts Options, sinks ...Sink) *Driver {
	inc := core.NewIncrementalAnalyzer(g)
	inc.SetWorkerHook(opts.WorkerHook)
	return &Driver{every: max(opts.Every, 1), inc: inc, sinks: sinks, errs: make([]error, len(sinks)), alive: len(sinks)}
}

// CommitHook returns the threading.Runtime commit hook: it counts seals
// and folds every Options.Every of them, synchronously on the sealing
// thread — at Every = 1, epoch i is seal i.
func (d *Driver) CommitHook() func(core.SubID) {
	return func(core.SubID) {
		d.mu.Lock()
		defer d.mu.Unlock()
		if d.seals++; d.seals%d.every == 0 {
			d.foldLocked()
		}
	}
}

// Fold folds one epoch now, whatever the seal count — for callers that
// pace folds themselves (LiveEngine's coalescing goroutine).
func (d *Driver) Fold() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.foldLocked()
}

// foldLocked seals one epoch and feeds the sinks. Once every sink has
// latched (or the pipeline closed) there is nobody to fold for.
func (d *Driver) foldLocked() {
	if d.closed || d.alive == 0 {
		return
	}
	a, delta := d.inc.FoldDelta()
	d.last = a
	for i, s := range d.sinks {
		if d.errs[i] != nil {
			continue
		}
		if d.errs[i] = s.Emit(a, delta); d.errs[i] != nil {
			d.alive--
		}
	}
}

// Epoch returns the number of epochs folded so far.
func (d *Driver) Epoch() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inc.Epoch()
}

// Analysis returns the newest folded epoch's analysis (nil before the
// first fold).
func (d *Driver) Analysis() *core.Analysis {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last
}

// Close folds a final epoch covering everything sealed since the last,
// then finishes every sink. Call it after recording has quiesced. It
// returns the sinks' errors joined; closing again returns the same.
func (d *Driver) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.closed {
		d.foldLocked()
		d.closed = true
		for i, s := range d.sinks {
			if err := s.Finish(d.inc.Epoch()); d.errs[i] == nil {
				d.errs[i] = err
			}
		}
	}
	return errors.Join(d.errs...)
}
