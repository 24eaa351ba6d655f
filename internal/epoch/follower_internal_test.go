package epoch

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/inspector/internal/core"
)

// countSink counts the epochs the driver hands out.
type countSink struct{ n *atomic.Uint64 }

func (s countSink) Emit(core.Cut, Frame) error { s.n.Add(1); return nil }
func (s countSink) Finish(uint64) error        { return nil }

// TestFollowerBackpressure gates the observer at epoch 1 while another
// goroutine cuts three queues' worth of epochs: the sealing side stalls
// with exactly followQueue cuts queued, and once the observer is
// released every epoch arrives, in order, without a deadlock.
func TestFollowerBackpressure(t *testing.T) {
	gate := make(chan struct{})
	var seen []uint64
	g := core.NewGraph(1)
	f := NewFollower(g, nil, ObserverFunc(func(_ *core.Analysis, e uint64) {
		if e == 1 {
			<-gate
		}
		seen = append(seen, e)
	}))
	var cut atomic.Uint64
	d := NewDriver(g, Options{}, countSink{&cut}, f)
	n := 3 * followQueue
	cutting := make(chan struct{})
	go func() {
		defer close(cutting)
		for i := 0; i < n; i++ {
			d.Cut()
		}
	}()

	// Epoch 1 sits in the gated observer, followQueue more fill the
	// queue, and the next one's Emit blocks.
	stalled := uint64(followQueue + 2)
	deadline := time.Now().Add(30 * time.Second)
	for cut.Load() < stalled {
		if time.Now().After(deadline) {
			t.Fatalf("only %d epochs cut before the queue filled", cut.Load())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if got, q := cut.Load(), len(f.q); got != stalled || q != followQueue {
		t.Fatalf("gated observer: %d epochs cut, %d queued; want %d cut, %d queued", got, q, stalled, followQueue)
	}
	select {
	case <-cutting:
		t.Fatal("cutting finished past a full queue")
	default:
	}

	close(gate)
	select {
	case <-cutting:
	case <-time.After(60 * time.Second):
		t.Fatal("cutting never resumed after the observer was released")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n+1 {
		t.Fatalf("observed %d epochs, cut %d", len(seen), n+1)
	}
	for i, e := range seen {
		if e != uint64(i+1) {
			t.Fatalf("epoch %d observed at position %d", e, i)
		}
	}
}
