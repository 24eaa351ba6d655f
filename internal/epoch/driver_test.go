package epoch

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/repro/inspector/internal/core"
)

// logSink records every call it receives into a log shared with the
// other sinks of its driver, keeps the last delta it saw when last is
// set, and fails Emit from epoch failAt on.
type logSink struct {
	name   string
	log    *[]string
	failAt uint64
	last   **core.EpochDelta
}

func (s logSink) Emit(d *core.EpochDelta) error {
	if s.last != nil {
		*s.last = d
	}
	*s.log = append(*s.log, fmt.Sprintf("%s:emit %d", s.name, d.Epoch))
	if s.failAt != 0 && d.Epoch >= s.failAt {
		return fmt.Errorf("%s full at epoch %d", s.name, d.Epoch)
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
	var last *core.EpochDelta
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
