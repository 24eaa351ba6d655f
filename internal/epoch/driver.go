// Package epoch is the one epoch pipeline every consumer of a recording
// hangs off: a Driver only cuts — it holds the live graph's one
// core.Cutter, no analyzer — once per epoch, and hands each cut, a
// value of lengths, and a way to its frame to an ordered list of sinks
// (journal, snapshot ring, follower, stream queue); only a sink that
// frames makes the driver read the epoch's delta. A Follower, off the
// sealing thread, is the one sink that builds analyses while a run
// records, adopting the driver's cuts on an analyzer of the recorder's
// own graph; a Replayer applies a frame stream's deltas to a fresh graph
// and folds the lengths it applied (journal recovery, the aggregator's
// ingest). There is one epoch numbering: journal record k, wire frame k
// and the recorder's epoch k are the same cut. Follower and Replayer
// fold once per batch of cuts, each fold numbered by its last.
package epoch

import (
	"errors"
	"sync"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/wire"
)

// Sink consumes a run's epochs, in epoch order, on whichever goroutine
// cut them (the sealing thread for commit-hook cuts).
type Sink interface {
	// Emit receives one epoch: its cut, c.Epoch numbering the epoch, and
	// its frame. An error latches this sink only: the Driver stops
	// feeding it and reports the error from Close.
	Emit(c core.Cut, frame Frame) error
	// Finish runs once after the final epoch, latched or not (journal
	// seal or unsealed close, stream seal frame, drained follower).
	Finish(final uint64) error
}

// Frame returns the epoch's delta frame, wire.AppendFrame(nil,
// wire.KindDelta, d) of the delta Cutter.FillDelta reads. The Driver
// fills and encodes it on the first call, into one delta and one buffer
// every epoch reuses: each sink that asks gets those bytes, valid until
// its Emit returns, and an epoch none asks for is neither read nor
// encoded.
type Frame func() ([]byte, error)

// Options configure a Driver.
type Options struct {
	// Every cuts one epoch each N commit seals (minimum and default 1).
	Every uint64
}

// Driver owns a graph's one Cutter. Every epoch's cut goes to each
// unlatched sink in list order, under the Driver's lock: a sink listed
// earlier is done with an epoch before a later one sees it, so list the
// journal first and an epoch is durable before it is observable.
type Driver struct {
	every uint64

	mu     sync.Mutex
	cutter *core.Cutter
	sinks  []Sink
	errs   []error // per sink; non-nil = latched
	alive  int
	seals  uint64
	closed bool

	// frame is encode, bound once (a method value per Emit would
	// allocate); delta and buf hold the epoch's delta and frame once
	// framed.
	frame Frame
	delta core.EpochDelta
	buf   []byte
}

// NewDriver prepares the pipeline over g. No epoch exists until the
// first cut.
func NewDriver(g *core.Graph, opts Options, sinks ...Sink) *Driver {
	d := &Driver{every: max(opts.Every, 1), cutter: core.NewCutter(g), sinks: sinks, errs: make([]error, len(sinks)), alive: len(sinks)}
	d.frame = d.encode
	return d
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
// pace epochs themselves (LiveEngine's Notify, a forced snapshot).
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
	c := d.cutter.Cut()
	d.buf = d.buf[:0]
	for i, s := range d.sinks {
		if d.errs[i] != nil {
			continue
		}
		if d.errs[i] = s.Emit(c, d.frame); d.errs[i] != nil {
			d.alive--
		}
	}
}

// encode is every epoch's Frame. A frame is never empty, and a failed
// encoding leaves buf empty.
func (d *Driver) encode() (_ []byte, err error) {
	if len(d.buf) == 0 {
		d.cutter.FillDelta(&d.delta)
		d.buf, err = wire.AppendFrame(d.buf, wire.KindDelta, &d.delta)
	}
	return d.buf, err
}

// Epoch returns the number of epochs cut so far.
func (d *Driver) Epoch() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cutter.Epoch()
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
			if err := s.Finish(d.cutter.Epoch()); d.errs[i] == nil {
				d.errs[i] = err
			}
		}
	}
	return errors.Join(d.errs...)
}
