package journal

import (
	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/epoch"
)

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
// (CommitHook, Epoch, Close) whose sinks are its Writer and, when
// OnEpoch is set, an epoch.Follower calling it.
type Recorder struct {
	// OnEpoch, when set before recording starts, observes every
	// journaled epoch with its analysis, on the follower's goroutine, in
	// epoch order; Close returns after its last call. The delta it gets
	// carries only its Epoch, valid until the call returns: the follower
	// folds cuts, which are lengths, and no epoch is copied for it. An
	// epoch the writer failed to journal is not observed. Unset, the
	// recorder only cuts.
	OnEpoch func(*core.Analysis, *core.EpochDelta)

	*epoch.Driver
	w *Writer
	g *core.Graph
	f *epoch.Follower
}

// NewRecorder prepares a recorder cutting g into w every `every` seals
// (minimum 1: every seal journals an epoch).
func NewRecorder(g *core.Graph, w *Writer, every int) *Recorder {
	r := &Recorder{w: w, g: g}
	r.Driver = epoch.NewDriver(g, epoch.Options{Every: uint64(max(every, 1))}, w, follow{r})
	return r
}

// follow is the Recorder's second sink: it hands each epoch the writer
// journaled to a Follower built at the first epoch, when OnEpoch is
// set. Once the writer has latched it follows no further, so OnEpoch
// sees exactly the journaled prefix.
type follow struct{ r *Recorder }

func (s follow) Emit(c core.Cut, frame epoch.Frame) error {
	r := s.r
	if r.OnEpoch == nil || r.w.err != nil {
		return nil
	}
	if r.f == nil {
		var d core.EpochDelta
		r.f = epoch.NewFollower(r.g, nil, epoch.ObserverFunc(func(a *core.Analysis, e uint64) {
			d.Epoch = e
			r.OnEpoch(a, &d)
		}))
	}
	return r.f.Emit(c, frame)
}

func (s follow) Finish(final uint64) error {
	if s.r.f == nil {
		return nil
	}
	return s.r.f.Finish(final)
}
