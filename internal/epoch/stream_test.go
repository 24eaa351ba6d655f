package epoch_test

import (
	"bytes"
	"errors"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/wire"
)

// TestApplyOutcomes walks the frame-stream grammar one frame at a time
// on one replay: every outcome and every typed refusal, and that a
// refused frame changes nothing — until a delta fails validation, which
// latches the stream degraded.
func TestApplyOutcomes(t *testing.T) {
	g := core.NewGraph(1)
	rec, err := core.NewRecorder(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cutter := core.NewCutter(g)
	var deltas [][]byte
	for i := 0; i < 3; i++ {
		rec.OnWrite(uint64(i))
		if _, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
			t.Fatal(err)
		}
		body, err := cutDelta(cutter).AppendWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, body)
	}
	seal := func(e uint64) []byte { b, _ := wire.Seal{FinalEpoch: e}.AppendWire(nil); return b }
	type step struct {
		kind byte
		body []byte
		want epoch.Outcome
		err  error
	}
	run := func(r *epoch.Replayer, steps []step) {
		t.Helper()
		for i, s := range steps {
			before := r.Applied()
			o, err := r.Apply(s.kind, s.body)
			if o != s.want || !errors.Is(err, s.err) || (s.err == nil) != (err == nil) {
				t.Fatalf("step %d: outcome %d, err %v; want %d, %v", i, o, err, s.want, s.err)
			}
			if err != nil && r.Applied() != before {
				t.Fatalf("step %d: a refused frame moved the stream from epoch %d to %d", i, before, r.Applied())
			}
		}
	}

	r := epoch.Bind(wire.Hello{RunID: "r", Threads: 1})
	run(r, []step{
		{wire.KindDelta, deltas[0], epoch.Advanced, nil},
		{wire.KindDelta, deltas[0], epoch.Duplicate, nil},
		{wire.KindDelta, deltas[2], 0, epoch.ErrGap},
		{wire.KindSeal, seal(5), 0, epoch.ErrSealMismatch},
		{wire.KindDelta, []byte{0xff}, 0, epoch.ErrMalformed},
		{9, nil, 0, epoch.ErrUnknownKind},
		{wire.KindDelta, deltas[1], epoch.Advanced, nil},
		{wire.KindSeal, seal(2), epoch.Sealed, nil},
		{wire.KindSeal, seal(2), epoch.Sealed, nil},
		{wire.KindDelta, deltas[1], epoch.Duplicate, nil},
		{wire.KindDelta, deltas[2], 0, epoch.ErrAfterSeal},
	})
	if !r.Sealed() || r.Applied() != 2 || r.Invalid() != nil {
		t.Fatalf("sealed=%v applied=%d invalid=%v, want sealed at 2, healthy", r.Sealed(), r.Applied(), r.Invalid())
	}

	// A delta that decodes but fails validation: the lens claim one more
	// vertex than the delta carries.
	var forged core.EpochDelta
	if err := wire.Decode(deltas[1], &forged); err != nil {
		t.Fatal(err)
	}
	forged.Lens[0]++
	bad, err := forged.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	r = epoch.Bind(wire.Hello{RunID: "r", Threads: 1})
	run(r, []step{
		{wire.KindDelta, deltas[0], epoch.Advanced, nil},
		{wire.KindDelta, bad, 0, epoch.ErrInvalid},
		{wire.KindDelta, deltas[1], 0, epoch.ErrDegraded},
		{wire.KindDelta, deltas[0], 0, epoch.ErrDegraded},
		{wire.KindSeal, seal(1), 0, epoch.ErrDegraded},
	})
	if r.Invalid() == nil || r.Sealed() {
		t.Fatalf("invalid=%v sealed=%v, want a latched refusal, unsealed", r.Invalid(), r.Sealed())
	}
}

// TestReadHelloBindsOnlyAHello: a stream must open with a hello the
// wire codec accepts; anything else is ErrMalformed.
func TestReadHelloBindsOnlyAHello(t *testing.T) {
	hello, err := wire.AppendFrame(nil, wire.KindHeader, wire.Hello{RunID: "r", Threads: 3, BaseEpoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if h, err := epoch.ReadHello(wire.NewReader(bytes.NewReader(hello), 0)); err != nil || h.Threads != 3 || h.RunID != "r" {
		t.Fatalf("ReadHello = %+v, %v", h, err)
	}
	seal, err := wire.AppendFrame(nil, wire.KindSeal, wire.Seal{})
	if err != nil {
		t.Fatal(err)
	}
	for name, stream := range map[string][]byte{
		"empty":             nil,
		"a seal first":      seal,
		"a torn hello":      hello[:len(hello)-1],
		"a corrupt hello":   append(append([]byte(nil), hello[:len(hello)-1]...), hello[len(hello)-1]^1),
		"three stray bytes": {1, 2, 3},
	} {
		if _, err := epoch.ReadHello(wire.NewReader(bytes.NewReader(stream), 0)); !errors.Is(err, epoch.ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

// cutDelta cuts c's next epoch and returns its delta, filled into a new
// EpochDelta.
func cutDelta(c *core.Cutter) *core.EpochDelta {
	c.Cut()
	d := new(core.EpochDelta)
	c.FillDelta(d)
	return d
}
