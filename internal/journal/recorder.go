package journal

import (
	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/epoch"
)

// Emit appends the epoch's delta: with Finish it makes a Writer an
// epoch.Sink. It never asks for the epoch's analysis, so a journal
// costs its run no fold. List it first, so an epoch is on the journal
// before any later sink can observe it. The driver calls Emit
// synchronously on the sealing thread, which is the durability
// contract: under PolicyAlways a workload cannot proceed past a seal
// whose epoch is not on stable storage. A write error latches the sink
// only (the journal observes the workload, never gates it) and surfaces
// from the driver's Close.
func (w *Writer) Emit(e epoch.Epoch) error { return w.Append(e.Delta) }

// Finish seals the journal after the final epoch — the clean-close
// marker recovery uses to tell a finished run from a killed one. After
// a latched error it closes the file without sealing: the journal then
// truthfully reads as cut short.
func (w *Writer) Finish(final uint64) error {
	if w.err != nil {
		return w.Close()
	}
	return w.Seal(final)
}

// Recorder is the stand-alone journaling pipeline: an epoch.Driver
// (CommitHook, Epoch, Close) whose only sink is its Writer plus the
// OnEpoch observer.
type Recorder struct {
	// OnEpoch, when set before recording starts, observes every
	// journaled epoch (tests use it to capture the in-process analyses
	// the recovery property compares against). Setting it makes the
	// recorder fold every epoch, on the sealing thread with the driver's
	// lock held; unset, the recorder only cuts.
	OnEpoch func(*core.Analysis, *core.EpochDelta)

	*epoch.Driver
	w *Writer
}

// NewRecorder prepares a recorder cutting g into w every `every` seals
// (minimum 1: every seal journals an epoch).
func NewRecorder(g *core.Graph, w *Writer, every int) *Recorder {
	r := &Recorder{w: w}
	r.Driver = epoch.NewDriver(g, epoch.Options{Every: uint64(max(every, 1))}, r)
	return r
}

// Emit appends the epoch and, when OnEpoch is set, reports it with its
// analysis (epoch.Sink).
func (r *Recorder) Emit(e epoch.Epoch) error {
	if err := r.w.Append(e.Delta); err != nil {
		return err
	}
	if r.OnEpoch != nil {
		r.OnEpoch(e.Analysis(), e.Delta)
	}
	return nil
}

// Finish is the Writer's (epoch.Sink).
func (r *Recorder) Finish(final uint64) error { return r.w.Finish(final) }
