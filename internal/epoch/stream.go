package epoch

import (
	"errors"
	"fmt"
	"io"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/wire"
)

// The frame stream — a hello, epoch deltas in order, an optional seal —
// is what a journal holds after its preamble and what an ingest body
// carries, and this file is its one reader: ReadHello binds a stream,
// Bind starts its replay, Apply reads every later frame. Journal
// recovery and the aggregator are transports around it.

// Apply's refusals; advancing and duplicate deltas are outcomes. An
// ErrInvalid refusal latches: every later frame is ErrDegraded.
var (
	ErrGap          = errors.New("epoch: delta skips ahead of the next expected epoch")
	ErrMalformed    = errors.New("epoch: malformed frame")
	ErrInvalid      = errors.New("epoch: invalid delta")
	ErrDegraded     = errors.New("epoch: stream is degraded")
	ErrAfterSeal    = errors.New("epoch: stream is sealed")
	ErrSealMismatch = errors.New("epoch: seal does not name the last applied epoch")
	ErrUnknownKind  = errors.New("epoch: unknown frame kind")
)

// Outcome is what an accepted frame did.
type Outcome uint8

const (
	Advanced  Outcome = iota + 1 // a delta was appended, one epoch on
	Duplicate                    // a delta at or below the applied epoch; nothing changed
	Sealed                       // a seal naming the applied epoch (again, if already sealed)
)

// ReadHello reads a stream's first frame, which must be its hello;
// wire.Hello.ParseWire checks its version and width.
func ReadHello(fr *wire.Reader) (h wire.Hello, err error) {
	kind, body, err := fr.Next()
	switch {
	case err == io.EOF:
		err = errors.New("empty stream")
	case err == nil && kind != wire.KindHeader:
		err = fmt.Errorf("first frame has kind %d, want the hello", kind)
	case err == nil:
		err = wire.Decode(body, &h)
	}
	if err != nil {
		err = fmt.Errorf("%w: hello: %v", ErrMalformed, err)
	}
	return h, err
}

// Bind starts the replay of the stream h opens: an empty graph as wide
// as h names.
func Bind(h wire.Hello) *Replayer {
	g := core.NewGraph(h.Threads)
	return &Replayer{g: g, inc: core.NewIncrementalAnalyzer(g)}
}

// Applied returns the last applied delta's epoch, 0 before the first.
func (r *Replayer) Applied() uint64 { return r.last }

// Sealed reports whether a seal was applied.
func (r *Replayer) Sealed() bool { return r.sealed }

// Invalid returns the latched ErrInvalid refusal, nil while healthy.
func (r *Replayer) Invalid() error { return r.invalid }

// Apply reads one frame after the hello: a delta is decoded, checked
// against the applied epoch and appended (not folded), a seal checked
// against it. A malformed frame changes and latches nothing.
func (r *Replayer) Apply(kind byte, body []byte) (Outcome, error) {
	var d *core.EpochDelta // exactly one of d and s is set
	var s *wire.Seal
	var err error
	switch kind {
	case wire.KindDelta:
		d = new(core.EpochDelta)
		err = wire.Decode(body, d)
	case wire.KindSeal:
		s = new(wire.Seal)
		err = wire.Decode(body, s)
	default:
		return 0, fmt.Errorf("%w %d", ErrUnknownKind, kind)
	}
	if err != nil { // a *wire.PayloadError, naming the field
		return 0, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	switch {
	case r.invalid != nil:
		return 0, fmt.Errorf("%w: %v", ErrDegraded, r.invalid)
	case s != nil && s.FinalEpoch != r.last:
		return 0, fmt.Errorf("%w: seal names epoch %d, stream is at %d", ErrSealMismatch, s.FinalEpoch, r.last)
	case s != nil:
		r.sealed = true
		return Sealed, nil
	case d.Epoch <= r.last:
		return Duplicate, nil
	case r.sealed:
		return 0, fmt.Errorf("%w at epoch %d", ErrAfterSeal, r.last)
	case d.Epoch != r.last+1:
		return 0, fmt.Errorf("%w: got epoch %d, want %d", ErrGap, d.Epoch, r.last+1)
	}
	if err := r.Append(d); err != nil {
		r.invalid = fmt.Errorf("%w: epoch %d: %v", ErrInvalid, d.Epoch, err)
		return 0, r.invalid
	}
	return Advanced, nil
}
