package epoch

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/wire"
)

// logSink records every call it receives into a log shared with the
// other sinks of its driver, keeps the last cut it saw when last is
// set, and fails Emit from epoch failAt on.
type logSink struct {
	name   string
	log    *[]string
	failAt uint64
	last   *core.Cut
}

func (s logSink) Emit(c core.Cut, _ Frame) error {
	if s.last != nil {
		*s.last = c
	}
	*s.log = append(*s.log, fmt.Sprintf("%s:emit %d", s.name, c.Epoch))
	if s.failAt != 0 && c.Epoch >= s.failAt {
		return fmt.Errorf("%s full at epoch %d", s.name, c.Epoch)
	}
	return nil
}

func (s logSink) Finish(final uint64) error {
	*s.log = append(*s.log, fmt.Sprintf("%s:finish %d", s.name, final))
	return nil
}

// TestDriverFeedsSinksInOrderAndLatchesEach pins the pipeline's
// contract: one cut per Every seals, every epoch offered to the sinks
// in list order, a failing sink dropped alone while the rest carry on,
// and Close = final cut + every sink's Finish + the latched errors.
func TestDriverFeedsSinksInOrderAndLatchesEach(t *testing.T) {
	g := core.NewGraph(1)
	rec, err := core.NewRecorder(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	var last core.Cut
	d := NewDriver(g, Options{Every: 2},
		logSink{name: "journal", log: &log, failAt: 2},
		logSink{name: "feed", log: &log, last: &last})
	hook := d.CommitHook()
	for i := 0; i < 5; i++ {
		rec.OnWrite(uint64(i))
		sc, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0)
		if err != nil {
			t.Fatal(err)
		}
		hook(sc.ID)
	}
	if got := d.Epoch(); got != 2 {
		t.Fatalf("5 seals at every-2 folded %d epochs, want 2", got)
	}
	cerr := d.Close()
	if cerr == nil || cerr.Error() != "journal full at epoch 2" {
		t.Fatalf("Close = %v, want the journal sink's latched error alone", cerr)
	}
	want := []string{
		"journal:emit 1", "feed:emit 1",
		"journal:emit 2", "feed:emit 2",
		"feed:emit 3", // the final cut: seal 5
		"journal:finish 3", "feed:finish 3",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("sink calls:\n got %q\nwant %q", log, want)
	}
	if last.Epoch != 3 || !slices.Equal(last.Lens, []int{5}) {
		t.Fatalf("final cut: epoch %d over %v, want epoch 3 over [5]", last.Epoch, last.Lens)
	}
	// Closed is closed: no more cuts, no second Finish, the same error.
	hook(core.SubID{})
	hook(core.SubID{})
	d.Cut()
	if again := d.Close(); !reflect.DeepEqual(log, want) || again == nil || again.Error() != cerr.Error() || d.Epoch() != 3 {
		t.Fatalf("after Close: epoch %d, Close = %v, calls %q", d.Epoch(), again, log)
	}
}

// TestDriverStopsFoldingWithNoSinkLeft: once every sink has latched
// there is nobody to cut for, and the epoch count stays where the last
// delivered epoch left it.
func TestDriverStopsFoldingWithNoSinkLeft(t *testing.T) {
	var log []string
	d := NewDriver(core.NewGraph(1), Options{}, logSink{name: "only", log: &log, failAt: 1})
	hook := d.CommitHook()
	hook(core.SubID{})
	hook(core.SubID{})
	if err := d.Close(); err == nil || d.Epoch() != 1 {
		t.Fatalf("Close = %v at epoch %d, want the latched error at epoch 1", err, d.Epoch())
	}
	if want := []string{"only:emit 1", "only:finish 1"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("sink calls %q, want %q", log, want)
	}
	if d.Close() == nil {
		t.Fatal("second Close forgot the latched error")
	}
}

// sinkFunc is a Sink that emits through a function and finishes at once.
type sinkFunc func(core.Cut, Frame) error

func (f sinkFunc) Emit(c core.Cut, frame Frame) error { return f(c, frame) }
func (sinkFunc) Finish(uint64) error                  { return nil }

// TestDriverFramesEachEpochOnce pins the driver's one encoding: two
// sinks that read an epoch's frame get one buffer holding the wire
// frame of the epoch's delta — a twin Cutter's, cut at the same point —
// and the second finds the marks the first left in it and in the
// driver's delta, so the driver did not fill or encode it again. A
// sink that reads only the cut between them changes nothing.
func TestDriverFramesEachEpochOnce(t *testing.T) {
	g := core.NewGraph(2)
	rec, err := core.NewRecorder(g, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	var want []byte
	var at *byte
	var d *Driver
	twin, own := core.NewCutter(g), new(core.EpochDelta)
	mark := sinkFunc(func(c core.Cut, frame Frame) error {
		b, err := frame()
		if err != nil {
			return err
		}
		if twin.Cut().Epoch != c.Epoch {
			t.Fatalf("the twin cut epoch %d beside the driver's %d", twin.Epoch(), c.Epoch)
		}
		twin.FillDelta(own)
		if want, err = wire.AppendFrame(want[:0], wire.KindDelta, own); err != nil {
			return err
		}
		if !bytes.Equal(b, want) {
			t.Errorf("epoch %d: the frame is not the delta's wire frame", c.Epoch)
		}
		at = &b[0]
		b[len(b)-1] ^= 0xff
		d.delta.Epoch = 0
		return nil
	})
	check := sinkFunc(func(c core.Cut, frame Frame) error {
		b, err := frame()
		if err != nil {
			return err
		}
		if &b[0] != at {
			t.Errorf("epoch %d: the second sink got another buffer", c.Epoch)
		}
		b[len(b)-1] ^= 0xff
		if !bytes.Equal(b, want) {
			t.Errorf("epoch %d: the driver encoded the frame again", c.Epoch)
		}
		if d.delta.Epoch != 0 {
			t.Errorf("epoch %d: the driver filled the delta again", c.Epoch)
		}
		return nil
	})
	d = NewDriver(g, Options{}, mark, logSink{name: "delta", log: &log}, check)
	hook := d.CommitHook()
	for i := range 50 {
		for j := range i % 4 {
			rec.OnWrite(uint64(i*8 + j))
		}
		sc, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0)
		if err != nil {
			t.Fatal(err)
		}
		hook(sc.ID)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 52 || d.Epoch() != 51 {
		t.Fatalf("%d epochs, %d cut-sink calls; want 51 epochs, 52 calls", d.Epoch(), len(log))
	}
}

// TestDriverReadsNoDeltaUnframed: the follower and a cut-only sink
// never ask for a frame, so the driver neither fills a delta nor
// encodes one, however many epochs it cuts.
func TestDriverReadsNoDeltaUnframed(t *testing.T) {
	g := core.NewGraph(1)
	rec, err := core.NewRecorder(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	lazy := NewDriver(g, Options{}, NewFollower(g, nil, ObserverFunc(func(*core.Analysis, uint64) {})), logSink{name: "cut", log: &log})
	hook := lazy.CommitHook()
	for range 20 {
		rec.OnWrite(7)
		sc, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0)
		if err != nil {
			t.Fatal(err)
		}
		hook(sc.ID)
	}
	if err := lazy.Close(); err != nil {
		t.Fatal(err)
	}
	if lazy.Epoch() != 21 || len(log) != 22 || lazy.buf != nil || !reflect.DeepEqual(lazy.delta, core.EpochDelta{}) {
		t.Fatalf("a driver whose sinks never ask for a frame: %d epochs, %d frame bytes buffered, delta of epoch %d with %d vertices; want 21 epochs, nothing filled or encoded",
			lazy.Epoch(), len(lazy.buf), lazy.delta.Epoch, len(lazy.delta.Subs))
	}
}
