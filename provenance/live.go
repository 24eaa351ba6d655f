package provenance

import (
	"context"
	"errors"
	"fmt"
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
// Sources); a run that folds on the sealing thread lists Sink() among
// its driver's sinks. The published number is the engine's analysis
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

// Sink adapts the feed to an epoch.Driver: every epoch's analysis is
// asked for and published, and the feed closes with the pipeline.
func (f *Feed) Sink() epoch.Sink { return feedSink{f} }

type feedSink struct{ f *Feed }

func (s feedSink) Emit(e epoch.Epoch) error { s.f.publish(e.Analysis()); return nil }
func (s feedSink) Finish(uint64) error      { s.f.shut(); return nil }

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

// LiveEngine serves provenance queries against a CPG that is still
// being recorded, off the recording path: an epoch.Driver with the
// embedded Feed as its only sink, cut by an analysis goroutine instead
// of the commit hook (the feed asks for every epoch's analysis, so each
// cut is folded there too). Notify — wired to the threading runtime's
// commit hook — wakes the goroutine whenever new sub-computations seal;
// however fast the workload commits, at most one fold is in flight, and
// each fold sweeps everything sealed since the last.
//
// Construction folds epoch 1 immediately, even over an empty graph.
// Close performs the final fold after recording quiesces, so post-run
// queries see the complete graph.
type LiveEngine struct {
	*Feed
	drv *epoch.Driver
	// hooks run before every fold, in order. Fault injection and tests
	// use them to delay or crash a fold deliberately.
	hooks []func()

	notify    chan struct{}
	done      chan struct{} // closed by Close: fold once more and stop
	stopped   chan struct{} // closed when the analysis goroutine has exited
	closeOnce sync.Once

	// foldErr records the first fold panic.
	errMu   sync.Mutex
	foldErr error
}

// NewLiveEngine starts the analysis pipeline over g. The first epoch is
// folded synchronously, so the returned LiveEngine is immediately
// queryable. The optional foldHooks run before every fold (fault
// injection; tests).
func NewLiveEngine(g *core.Graph, opts EngineOptions, foldHooks ...func()) *LiveEngine {
	l := &LiveEngine{
		Feed:    NewFeed(g.Threads(), opts),
		hooks:   foldHooks,
		notify:  make(chan struct{}, 1),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	l.drv = epoch.NewDriver(g, epoch.Options{WorkerHook: opts.FoldWorkerHook}, l.Sink())
	// A panicking first fold (only reachable through an injected hook)
	// leaves the feed's empty epoch 0 served until a later fold succeeds.
	l.fold(l.drv.Cut)
	go l.loop()
	return l
}

// loop is the analysis goroutine: fold on demand until Close.
func (l *LiveEngine) loop() {
	defer close(l.stopped)
	// The feed closes even when the final fold panics, so no WaitEpoch
	// caller is left parked.
	defer l.shut()
	for {
		select {
		case <-l.notify:
			l.fold(l.drv.Cut)
		case <-l.done:
			// Recording has quiesced: the driver's final fold covers the
			// complete graph (anything a pending notify announced too).
			l.fold(func() { l.drv.Close() })
			return
		}
	}
}

// fold runs the hooks and one fold, recording a panic as the first fold
// error instead of letting it kill the analysis goroutine. The
// panicking fold published nothing, so the last good epoch stays
// servable.
func (l *LiveEngine) fold(fold func()) {
	defer func() {
		if r := recover(); r != nil {
			l.errMu.Lock()
			if l.foldErr == nil {
				l.foldErr = fmt.Errorf("provenance: live analysis fold panicked: %v", r)
			}
			l.errMu.Unlock()
		}
	}()
	for _, h := range l.hooks {
		h()
	}
	fold()
}

// Notify announces that new sub-computations have sealed. It never
// blocks; signals coalesce into at most one pending fold.
func (l *LiveEngine) Notify() {
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// Close performs the final fold and stops the analysis goroutine. Call
// it after recording has quiesced (the workload's Run returned); queries
// issued after Close see the complete graph. Close is idempotent,
// returns once the final epoch is published, and surfaces the first
// fold panic (if any) — the last good epoch remained servable
// throughout, but the caller learns the analysis did not complete.
func (l *LiveEngine) Close() error {
	l.closeOnce.Do(func() { close(l.done) })
	<-l.stopped
	l.errMu.Lock()
	defer l.errMu.Unlock()
	return l.foldErr
}
