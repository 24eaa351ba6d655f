package epoch

import (
	"fmt"
	"sync"

	"github.com/repro/inspector/internal/core"
)

// followQueue bounds how many cut deltas a Follower holds before Emit
// blocks the sealing thread. A per-seal journaled canneal run falls up
// to ~2 200 epochs behind on two cores; smaller bounds (64–1024) cost
// that run 7–30 % of its wall time in blocked seals.
const followQueue = 4096

// Follower is a sink that builds every epoch's analysis off the sealing
// thread. Emit only enqueues the epoch's delta; one goroutine appends
// each delta, in epoch order, to its own Replayer — the apply path
// journal recovery and the aggregator run, byte-identical to the
// driver's fold — folds it, and hands the epoch's Analysis and delta to
// the observer. The driver's analyzer never folds for a follower, so
// while one thread's epoch is folded the other threads keep sealing.
//
// A fold or observer that panics (or exits its goroutine) stops the
// follower: the failure is latched, later Emits return it without
// blocking, and Finish returns it.
type Follower struct {
	rp      *Replayer
	observe func(*core.Analysis, *core.EpochDelta)

	q      chan *core.EpochDelta
	failed chan struct{} // closed once err is set
	done   chan struct{} // closed when the goroutine has exited
	err    error
	once   sync.Once
}

// NewFollower starts a follower over a threads-wide recording. hook,
// when set, is the replay analyzer's SetWorkerHook (fault injection);
// observe runs on the follower's goroutine, once per epoch, in order.
// Finish must be called to stop the goroutine.
func NewFollower(threads int, hook func(worker int), observe func(*core.Analysis, *core.EpochDelta)) *Follower {
	f := &Follower{
		rp:      NewReplayer(threads),
		observe: observe,
		q:       make(chan *core.EpochDelta, followQueue),
		failed:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	f.rp.inc.SetWorkerHook(hook)
	go f.run()
	return f
}

// Emit enqueues the epoch's delta, blocking while followQueue deltas
// are pending (epoch.Sink). It blocks under the driver's lock, which
// stalls every sealing thread until the follower catches up; the
// follower's goroutine never takes that lock, so it cannot deadlock.
// After a failure Emit returns the latched error at once.
func (f *Follower) Emit(e Epoch) error {
	select {
	case <-f.failed:
		return f.err
	default:
	}
	select {
	case f.q <- e.Delta:
		return nil
	case <-f.failed:
		return f.err
	}
}

// Finish returns once every enqueued epoch has been folded and observed
// (epoch.Sink), with the latched failure if there was one.
func (f *Follower) Finish(uint64) error {
	f.once.Do(func() { close(f.q) })
	<-f.done
	return f.err
}

// run folds and observes each delta in order until the queue closes.
func (f *Follower) run() {
	var at uint64
	clean := false
	defer func() {
		if !clean {
			r := recover()
			if r == nil {
				r = "observer exited its goroutine"
			}
			f.err = fmt.Errorf("epoch: follower stopped at epoch %d: %v", at, r)
			close(f.failed)
		}
		close(f.done)
	}()
	for d := range f.q {
		at = d.Epoch
		if err := f.rp.Append(d); err != nil {
			panic(err)
		}
		f.observe(f.rp.Fold(), d)
	}
	clean = true
}
