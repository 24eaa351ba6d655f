package provenance

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/epoch"
)

// ErrLiveClosed reports that a source has published its final epoch: no
// epoch a WaitEpoch caller is still waiting for will ever arrive.
var ErrLiveClosed = errors.New("provenance: live analysis closed")

// Feed is the publish/watch primitive behind every source whose graph
// still grows: it holds the newest published epoch's Engine, wakes
// WaitEpoch callers on every publish, and closes once no further epoch
// can arrive. LiveEngine and IngestSource embed one (which makes them
// Sources); a recording lists Observer() among its epoch.Follower's
// observers. The published number is the engine's analysis
// epoch: Epoch, WaitEpoch, every result's epoch field and the
// exported .cpg's header read the same pointer, so they cannot disagree. Engine never
// returns nil — before the first publish it serves an empty epoch 0.
type Feed struct {
	opts EngineOptions
	cur  atomic.Pointer[Engine]

	// watch is replaced (and the old one closed) on every publish;
	// closed is closed once, by shut.
	mu       sync.Mutex
	watch    chan struct{}
	closed   chan struct{}
	shutOnce sync.Once

	// publishes counts publish calls: what a batching producer is held to.
	publishes atomic.Uint64
}

// NewFeed builds a feed for a threads-wide graph; its engines take opts.
func NewFeed(threads int, opts EngineOptions) *Feed {
	f := &Feed{opts: opts, watch: make(chan struct{}), closed: make(chan struct{})}
	f.cur.Store(NewEngine(core.NewGraph(threads).Analyze(), opts))
	return f
}

// publish installs the engine for a freshly folded epoch and wakes
// waiters.
func (f *Feed) publish(a *core.Analysis) {
	f.publishes.Add(1)
	f.cur.Store(NewEngine(a, f.opts))
	f.mu.Lock()
	close(f.watch)
	f.watch = make(chan struct{})
	f.mu.Unlock()
}

// shut marks the newest epoch final. Idempotent.
func (f *Feed) shut() { f.shutOnce.Do(func() { close(f.closed) }) }

// Observer adapts the feed to an epoch.Follower: it publishes every
// fold but a panicked one, wants no epoch on its own, and closes when
// the follower stops.
func (f *Feed) Observer() epoch.Observer { return feedObserver{f} }

type feedObserver struct{ f *Feed }

func (feedObserver) Wants(uint64) bool { return false }
func (o feedObserver) Stop()           { o.f.shut() }

func (o feedObserver) Observe(a *core.Analysis, _ uint64) {
	if a != nil {
		o.f.publish(a)
	}
}

// Engine returns the newest published epoch's engine, an ordinary
// read-only Engine any number of goroutines may share.
func (f *Feed) Engine() *Engine { return f.cur.Load() }

// Epoch returns the newest published epoch.
func (f *Feed) Epoch() uint64 { return f.Engine().Epoch() }

// Query executes q against the newest published epoch.
func (f *Feed) Query(ctx context.Context, q Query) (*Result, error) {
	return f.Engine().Execute(ctx, q)
}

// Info describes the newest published epoch.
func (f *Feed) Info() CPGInfo { return f.Engine().info() }

// WaitEpoch blocks until the published epoch reaches min (returning the
// epoch that satisfied it), ctx is done (returning the newest epoch
// alongside ctx's error; an already-done ctx never parks), or the feed
// has closed short of min (ErrLiveClosed). It is the subscription
// primitive behind Runtime.WaitEpoch and GET /v1/cpgs/{id}/epochs.
func (f *Feed) WaitEpoch(ctx context.Context, min uint64) (uint64, error) {
	for {
		f.mu.Lock()
		w := f.watch
		f.mu.Unlock()
		if e := f.Epoch(); e >= min {
			return e, nil
		}
		if err := ctx.Err(); err != nil {
			return f.Epoch(), err
		}
		select {
		case <-w:
		case <-ctx.Done():
			return f.Epoch(), ctx.Err()
		case <-f.closed:
			// No further epochs are coming; re-check once and give up.
			if e := f.Epoch(); e >= min {
				return e, nil
			}
			return f.Epoch(), ErrLiveClosed
		}
	}
}

// LiveEngine is a Feed over a recording its caller paces: Notify —
// wired to the threading runtime's commit hook — cuts an epoch on a
// driver whose only sink is a follower publishing into the Feed.
// Construction cuts epoch 1 and returns once it is folded; Close cuts
// the final epoch and returns once it is published.
type LiveEngine struct {
	*Feed
	drv *epoch.Driver
}

// NewLiveEngine starts the analysis pipeline over g. The optional
// foldHooks run at the start of every fold's derivation workers.
func NewLiveEngine(g *core.Graph, opts EngineOptions, foldHooks ...func(worker int)) *LiveEngine {
	feed := NewFeed(g.Threads(), opts)
	obs := &firstFold{Observer: feed.Observer(), done: make(chan struct{})}
	hook := func(worker int) {
		for _, h := range foldHooks {
			h(worker)
		}
	}
	l := &LiveEngine{Feed: feed, drv: epoch.NewDriver(g, epoch.Options{}, epoch.NewFollower(g, hook, obs))}
	l.drv.Cut()
	<-obs.done
	return l
}

// firstFold is the feed's observer, closing done after the first fold,
// published or not: a panicking one leaves epoch 0 served.
type firstFold struct {
	epoch.Observer
	done chan struct{}
	once sync.Once
}

func (o *firstFold) Observe(a *core.Analysis, e uint64) {
	o.Observer.Observe(a, e)
	o.once.Do(func() { close(o.done) })
}

// Notify cuts an epoch covering everything sealed since the last.
func (l *LiveEngine) Notify() { l.drv.Cut() }

// Close cuts the final epoch once recording has quiesced and returns
// once it is published. It is idempotent and surfaces the first fold
// panic: the last good epoch stayed servable, but the analysis did not
// complete.
func (l *LiveEngine) Close() error { return l.drv.Close() }
