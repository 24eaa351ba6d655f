package epoch

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/repro/inspector/internal/core"
)

// followQueue bounds how many cuts a Follower holds before Emit
// blocks the sealing thread. A per-seal journaled canneal run falls up
// to ~2 200 epochs behind on two cores; smaller bounds (64–1024) cost
// that run 7–30 % of its wall time in blocked seals.
const followQueue = 4096

// Observer consumes a Follower's folds on its goroutine.
type Observer interface {
	// Wants reports whether epoch e must be folded on its own rather
	// than together with the epochs queued behind it.
	Wants(e uint64) bool
	// Observe receives each fold in epoch order: its analysis, nil if
	// the fold panicked (the next fold covers its cuts too), and the
	// epoch of the last cut it covers.
	Observe(a *core.Analysis, epoch uint64)
	// Stop runs once, after the last Observe.
	Stop()
}

// ObserverFunc is an Observer that wants every epoch on its own and
// ignores Stop.
type ObserverFunc func(a *core.Analysis, epoch uint64)

func (ObserverFunc) Wants(uint64) bool                        { return true }
func (f ObserverFunc) Observe(a *core.Analysis, epoch uint64) { f(a, epoch) }
func (ObserverFunc) Stop()                                    {}

// Follower is the sink that builds a recording's analyses off the
// sealing thread. Emit only enqueues the cut; one goroutine adopts
// the driver's cuts in order on its own analyzer of the recorder's
// graph and folds once the queue has drained or at an epoch an observer
// wants on its own, handing each fold to the observers in order. A fold
// reads the graph only up to its cut, so any batching is byte-identical.
//
// A fold that panics costs only itself: Finish reports the first such
// panic with its epoch, the observers see that fold without an
// analysis, and the next fold covers its cuts. An observer that
// panics (or exits the goroutine) stops the follower: later Emits
// return the latched failure at once, every observer's Stop runs, and
// Finish returns it.
type Follower struct {
	inc *core.IncrementalAnalyzer
	obs []Observer
	// span is how many epochs the fold in flight covers.
	span uint64

	q       chan core.Cut
	failed  chan struct{} // closed once err is set
	done    chan struct{} // closed when the goroutine has exited
	err     error         // what stopped the follower
	foldErr error         // the first fold panic
	once    sync.Once
}

// NewFollower starts a follower over the recording g. hook, when set,
// runs at the start of every derivation worker of every fold (the
// analyzer's SetWorkerHook, for fault injection), once per epoch the
// fold covers: how often it fires does not depend on how the follower
// batches. Finish must be called to stop the goroutine.
func NewFollower(g *core.Graph, hook func(worker int), observers ...Observer) *Follower {
	f := &Follower{
		inc:    core.NewIncrementalAnalyzer(g),
		obs:    observers,
		q:      make(chan core.Cut, followQueue),
		failed: make(chan struct{}),
		done:   make(chan struct{}),
	}
	if hook != nil {
		f.inc.SetWorkerHook(func(worker int) {
			for range f.span {
				hook(worker)
			}
		})
	}
	go f.run()
	return f
}

// Emit enqueues the epoch's cut, never its frame, blocking while
// followQueue cuts are pending (epoch.Sink). It blocks under the
// driver's lock, which stalls every sealing thread until the follower
// catches up; the follower's goroutine never takes that lock, so it
// cannot deadlock. After a failure Emit returns the latched error at
// once.
func (f *Follower) Emit(c core.Cut, _ Frame) error {
	select {
	case <-f.failed:
		return f.err
	default:
	}
	select {
	case f.q <- c:
		return nil
	case <-f.failed:
		return f.err
	}
}

// Finish returns once every enqueued epoch has been folded and observed
// and the observers have stopped (epoch.Sink), with the first fold
// panic and the latched failure.
func (f *Follower) Finish(uint64) error {
	f.once.Do(func() { close(f.q) })
	<-f.done
	return errors.Join(f.foldErr, f.err)
}

// run adopts each cut until the queue closes (one out of order stops
// it), folding when the queue is empty or an observer wants it.
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
		for _, o := range f.obs {
			o.Stop()
		}
		close(f.done)
	}()
	for c := range f.q {
		at = c.Epoch
		if err := f.inc.Adopt(c); err != nil {
			panic(err)
		}
		if len(f.q) > 0 && !slices.ContainsFunc(f.obs, func(o Observer) bool { return o.Wants(at) }) {
			continue
		}
		a := f.fold(at)
		for _, o := range f.obs {
			o.Observe(a, at)
		}
	}
	clean = true
}

// fold folds everything adopted since the last fold; after a panic it
// records the first one and returns nil.
func (f *Follower) fold(at uint64) (a *core.Analysis) {
	f.span = at - f.inc.Epoch()
	defer func() {
		if r := recover(); r != nil && f.foldErr == nil {
			f.foldErr = fmt.Errorf("epoch: fold panicked at epoch %d: %v", at, r)
		}
	}()
	return f.inc.FoldAs(at)
}
