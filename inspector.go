// Package inspector is a data-provenance library for shared-memory
// multithreaded programs, reproducing the system described in
//
//	Thalheim, Bhatotia, Fetzer.
//	"INSPECTOR: Data Provenance using Intel Processor Trace (PT)".
//	ICDCS 2016.
//
// INSPECTOR records the lineage of a multithreaded execution as a
// Concurrent Provenance Graph (CPG): a DAG of sub-computations (the
// instruction runs between synchronization calls) connected by control,
// synchronization, and data-dependence edges. The original system is a
// drop-in pthreads replacement that tracks data flow with MMU page
// protections over forked processes and control flow with Intel PT; this
// reproduction runs workloads on a faithful software substrate (see
// DESIGN.md for the substitution table) and exposes the same concepts:
//
//	rt, err := inspector.New(inspector.Options{AppName: "demo"})
//	if err != nil { ... }
//	m := rt.NewMutex("state")
//	report, err := rt.Run(func(main *inspector.Thread) {
//	    addr := main.Malloc(64)
//	    child := main.Spawn(func(w *inspector.Thread) {
//	        m.Lock(w)
//	        w.Store64(addr, 42)
//	        m.Unlock(w)
//	    })
//	    main.Join(child)
//	    m.Lock(main)
//	    _ = main.Load64(addr)
//	    m.Unlock(main)
//	})
//	cpg := rt.CPG()            // query the provenance graph
//	_ = cpg.Analyze().Verify() // it is a valid happens-before DAG
//
// After a run, provenance questions go through the versioned query API
// (the provenance package; also served remotely by inspector-serve):
//
//	res, err := rt.Query(ctx, inspector.Query{
//	    Kind:   inspector.QuerySlice, // everything that affected addr
//	    Target: "T0.1",
//	})
//	if err != nil { ... }
//	for _, id := range res.IDs { fmt.Println(id) }
//
// Threads spawned through the library are isolated like processes
// (release consistency: writes propagate at synchronization points), all
// branches announced through Thread.Branch are traced into per-thread
// Intel-PT-style packet streams, and the runtime's virtual-time cost
// model reports the time/work metrics the paper's evaluation uses.
package inspector

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"time"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/faultinject"
	"github.com/repro/inspector/internal/journal"
	"github.com/repro/inspector/internal/mem"
	"github.com/repro/inspector/internal/perf"
	"github.com/repro/inspector/internal/snapshot"
	"github.com/repro/inspector/internal/threading"
	"github.com/repro/inspector/provenance"
)

// Re-exported fundamental types. Aliases keep one implementation while
// giving users a single import.
type (
	// Thread is one application thread (a forked process under
	// INSPECTOR). All memory, branch, and sync operations hang off it.
	Thread = threading.Thread
	// Mutex is the pthread_mutex replacement.
	Mutex = threading.Mutex
	// Barrier is the pthread_barrier replacement.
	Barrier = threading.Barrier
	// Semaphore is the sem_t replacement.
	Semaphore = threading.Semaphore
	// Cond is the pthread_cond replacement.
	Cond = threading.Cond
	// Report carries the run's statistics (time, work, faults, trace
	// sizes, overhead breakdown).
	Report = threading.Report
	// Addr is a simulated virtual address in the tracked address space.
	Addr = mem.Addr
	// CPG is the Concurrent Provenance Graph.
	CPG = core.Graph
	// SubID identifies one sub-computation vertex.
	SubID = core.SubID
	// Edge is one CPG edge (control, sync, or data).
	Edge = core.Edge
	// Analysis is a queryable view over a completed CPG.
	Analysis = core.Analysis
	// Snapshot is one consistent-cut capture.
	Snapshot = snapshot.Snapshot
	// Query is one typed provenance question (the provenance package's
	// versioned query surface, usable in process via Runtime.Query,
	// from the cpg-query CLI, or against an inspector-serve daemon).
	Query = provenance.Query
	// QueryResult is a Query's answer in provenance/v1 wire form.
	QueryResult = provenance.Result
)

// Edge kinds, re-exported for query filters.
const (
	EdgeControl = core.EdgeControl
	EdgeSync    = core.EdgeSync
	EdgeData    = core.EdgeData
)

// Query kinds, re-exported from the provenance package.
const (
	QueryEdges   = provenance.KindEdges
	QuerySlice   = provenance.KindSlice
	QueryTaint   = provenance.KindTaint
	QueryLineage = provenance.KindLineage
	QueryPath    = provenance.KindPath
	QueryStats   = provenance.KindStats
	QueryVerify  = provenance.KindVerify
)

// Options configure a runtime.
type Options struct {
	// AppName names the application in reports and perf records.
	AppName string
	// Native disables all provenance machinery, running the workload as
	// a plain pthreads program — the evaluation baseline.
	Native bool
	// MaxThreads bounds concurrent thread slots (default 64). Vector
	// clocks are this wide, so workloads that spawn hundreds of threads
	// pay proportionally (kmeans in Figure 5).
	MaxThreads int
	// PageSize is the data-provenance tracking granularity (default
	// 4096, the paper's choice; the ablation benchmarks vary it).
	PageSize int
	// SnapshotMode bounds trace space with an overwriting AUX ring and
	// enables the live snapshot facility (§VI): a ring of retained
	// epochs, one more sink of the epoch pipeline. It folds on the
	// sealing thread — once per snapshot on its own, at
	// JournalEverySeals beside Journal, Stream or Live. Without it the
	// full trace is retained.
	SnapshotMode bool
	// SnapshotEverySyncs retains the first epoch whose cut covers each
	// further N sealed sub-computations (one per synchronization
	// boundary) when SnapshotMode is set (default 64).
	SnapshotEverySyncs uint64
	// SnapshotSlots is the snapshot ring capacity (default 4).
	SnapshotSlots int
	// Live folds the CPG incrementally while the workload executes, so
	// Query answers against the newest completed epoch *during* Run
	// instead of only after it returns — the paper's online-provenance
	// property. Epoch and WaitEpoch expose the fold progress. On its own
	// it folds on a background goroutine; with Journal, Stream or
	// SnapshotMode set it publishes their folds.
	// Incompatible with Native (there is no graph to fold).
	Live bool
	// Journal, when set, makes recording crash-durable: every sealed
	// epoch is appended to a write-ahead journal in this directory as a
	// length-prefixed, CRC-checksummed delta, synchronously at the
	// commit boundary. If the process dies mid-run, inspector-recover
	// (or journal.Recover) replays the journal up to the last durable
	// epoch and marks the result degraded with a truncated-tail gap.
	// The directory must not already contain a journal. Incompatible
	// with Native (there is nothing to journal).
	Journal string
	// JournalFsync selects the journal's fsync policy: "always" (fsync
	// every record — the strongest durability, one fsync per epoch),
	// "interval" or "interval:N" (fsync every N records, default 16),
	// or "none" (leave flushing to the OS; a machine crash may lose the
	// tail, a process crash does not). Empty means "interval".
	JournalFsync string
	// JournalEverySeals is the epoch cadence of a journaled or streamed
	// run: one epoch each N sealed sub-computations (default 1: every
	// commit boundary seals an epoch — the tightest recovery point at
	// the highest write rate). Journal, Stream and Live share it: record
	// k, frame k and live epoch k are the same cut.
	JournalEverySeals int
	// Stream, when set, is the base URL of a provenance aggregator
	// (inspector-serve -ingest): every sealed epoch's delta is queued on
	// the commit path and uploaded asynchronously, so the aggregator
	// serves the run's CPG remotely while it executes. A dead aggregator
	// costs queue memory, never workload progress; with Journal also
	// set, inspector-recover -stream re-feeds what it missed. Needs
	// RunID; incompatible with Native.
	Stream string
	// StreamID names the run's CPG on the aggregator (default RunID).
	StreamID string
	// RunID is the run's one identity: the journal header, the stream
	// hello and the .cpg header all carry it, which is what lets a
	// journal re-feed an aggregator after a crash. Empty means a random
	// id for a journal and none otherwise.
	RunID string
	// Faults, when set, executes the run under a deterministic
	// fault-injection schedule (internal/faultinject): lossy PT sinks,
	// slowed fold workers, and a panic or SIGKILL at a commit boundary
	// — after that commit's epoch has reached the journal.
	Faults *faultinject.Injector
}

// Runtime is one provenance-recording execution context.
type Runtime struct {
	rt    *threading.Runtime
	app   string
	runID string
	snaps *snapshot.Ring

	// feed publishes the epoch pipeline's folds (Options.Live); when
	// set, Query serves the newest epoch instead of the lazy post-Run
	// engine.
	feed *provenance.Feed
	// drv is the sealing-thread pipeline (Options.Journal, Stream,
	// SnapshotMode), up its stream sink.
	drv *epoch.Driver
	up  *provenance.Uploader

	// closeEpochs ends the epoch pipeline, whichever option built it,
	// after the workload: the final fold, each sink's finish.
	closeEpochs func() error

	engineOnce sync.Once
	engine     *provenance.Engine
}

// ErrBadOptions tags Options validation failures from New.
var ErrBadOptions = errors.New("inspector: bad options")

// validate rejects option values that New used to accept silently (and
// then misbehaved on deep in the substrate). Zero values mean "use the
// default" and always pass.
func (o Options) validate() error {
	if o.MaxThreads < 0 {
		return fmt.Errorf("%w: MaxThreads %d is negative (0 means the default of 64)",
			ErrBadOptions, o.MaxThreads)
	}
	if o.PageSize != 0 {
		if o.PageSize < 64 {
			return fmt.Errorf("%w: PageSize %d below the 64-byte minimum (0 means the default of 4096)",
				ErrBadOptions, o.PageSize)
		}
		if o.PageSize&(o.PageSize-1) != 0 {
			return fmt.Errorf("%w: PageSize %d is not a power of two", ErrBadOptions, o.PageSize)
		}
	}
	if o.SnapshotSlots < 0 {
		return fmt.Errorf("%w: SnapshotSlots %d is negative (0 means the default of 4)",
			ErrBadOptions, o.SnapshotSlots)
	}
	if o.Live && o.Native {
		return fmt.Errorf("%w: Live requires provenance tracking (drop Native)", ErrBadOptions)
	}
	if o.Journal != "" && o.Native {
		return fmt.Errorf("%w: Journal requires provenance tracking (drop Native)", ErrBadOptions)
	}
	if o.Stream != "" && o.Native {
		return fmt.Errorf("%w: Stream requires provenance tracking (drop Native)", ErrBadOptions)
	}
	if o.Stream != "" && o.RunID == "" {
		return fmt.Errorf("%w: Stream requires a RunID (the aggregator binds the source to it)", ErrBadOptions)
	}
	if name := cmp.Or(o.StreamID, o.RunID); o.Stream != "" && !provenance.ValidSourceName(name) {
		return fmt.Errorf("%w: stream source name %q (StreamID, else RunID) must be 1-128 chars of [A-Za-z0-9._-]",
			ErrBadOptions, name)
	}
	if o.JournalEverySeals < 0 {
		return fmt.Errorf("%w: JournalEverySeals %d is negative (0 means every seal)",
			ErrBadOptions, o.JournalEverySeals)
	}
	return nil
}

// New creates a runtime. Options are validated up front: a negative
// MaxThreads or SnapshotSlots, or a PageSize that is set but below 64
// or not a power of two, fail with an error wrapping ErrBadOptions.
//
// New is the one assembly of the recording pipeline: the sealing
// threads' epoch.Driver feeding journal, live feed, snapshot ring and
// stream in that order (an epoch is durable before it is observable,
// here or on the aggregator), or an off-thread LiveEngine when nothing
// needs the fold on the commit path. The CLIs bind their flags to
// Options and call it. A failing New leaves nothing behind: no journal
// segment, no sender goroutine.
func New(opts Options) (*Runtime, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	policy, syncEvery, err := journal.ParsePolicy(opts.JournalFsync)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadOptions, err)
	}
	topts := threading.Options{
		AppName:    opts.AppName,
		Mode:       threading.ModeInspector,
		MaxThreads: opts.MaxThreads,
		PageSize:   opts.PageSize,
		TraceMode:  perf.ModeFullTrace,
	}
	if opts.Native {
		topts.Mode = threading.ModeNative
	}
	if opts.SnapshotMode {
		topts.TraceMode = perf.ModeSnapshot
	}
	var eopts provenance.EngineOptions
	faults := opts.Faults
	if faults != nil {
		topts.WrapTraceSink = faults.WrapSink
		// The slow-fold point fires inside the fold's derivation workers
		// (one hit per worker per fold), so an injected delay stalls the
		// parallel path itself, not just the fold entry.
		eopts.FoldWorkerHook = func(int) {
			if faults.Fire(faultinject.SlowFold) {
				time.Sleep(time.Millisecond)
			}
		}
	}
	inner, err := threading.NewRuntime(topts)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{rt: inner, app: opts.AppName, runID: opts.RunID}
	g := inner.Graph()
	var sinks []epoch.Sink
	var jw *journal.Writer
	if opts.Journal != "" {
		jw, err = journal.Create(journal.Options{
			Dir:       opts.Journal,
			Threads:   g.Threads(),
			RunID:     opts.RunID,
			App:       opts.AppName,
			Fsync:     policy,
			SyncEvery: syncEvery,
		})
		if err != nil {
			return nil, err
		}
		rt.runID = jw.RunID()
		sinks = append(sinks, jw)
	}
	snapshots := opts.SnapshotMode && !opts.Native
	snapEvery := cmp.Or(opts.SnapshotEverySyncs, 64)
	if opts.Live && (opts.Journal != "" || opts.Stream != "" || snapshots) {
		rt.feed = provenance.NewFeed(g.Threads(), eopts)
		sinks = append(sinks, rt.feed.Sink())
	}
	if snapshots {
		rt.snaps = snapshot.New(inner.Session(), snapshot.Options{
			Slots:      opts.SnapshotSlots,
			EverySeals: snapEvery,
		})
		sinks = append(sinks, rt.snaps)
	}
	if opts.Stream != "" {
		rt.up, err = provenance.NewUploader(&provenance.Client{
			BaseURL:    opts.Stream,
			MaxRetries: 8,
		}, g.Threads(), provenance.StreamOptions{
			Source: cmp.Or(opts.StreamID, rt.runID),
			RunID:  rt.runID,
			App:    opts.AppName,
		})
		if err != nil {
			// Left behind, the journal would refuse the corrected retry.
			if jw != nil {
				err = errors.Join(err, jw.Discard())
			}
			return nil, err
		}
		sinks = append(sinks, rt.up)
	}
	switch {
	case len(sinks) > 0:
		// A journal, stream or snapshot ring keeps the fold on the sealing
		// thread (the durability contract: the epoch sealed by a crashing
		// commit is already appended and queued).
		every := uint64(opts.JournalEverySeals)
		if rt.snaps != nil && len(sinks) == 1 {
			// The ring is the fold's only consumer: fold once per snapshot.
			every = snapEvery
		}
		rt.drv = epoch.NewDriver(g, epoch.Options{
			Every:      every,
			WorkerHook: eopts.FoldWorkerHook,
		}, sinks...)
		// Registered before the fault hook on purpose: commit hooks run in
		// registration order, so by the time an injected crash kills the
		// process, the epoch sealed by this very commit is already on the
		// journal — the kill-recover sweep's determinism anchor.
		inner.RegisterCommitHook(rt.drv.CommitHook())
		rt.closeEpochs = rt.drv.Close
	case opts.Live:
		// Nothing needs the fold on the sealing thread: keep it off.
		live := provenance.NewLiveEngine(g, eopts)
		inner.RegisterCommitHook(func(core.SubID) { live.Notify() })
		rt.feed, rt.closeEpochs = live.Feed, live.Close
	}
	if faults != nil {
		inner.RegisterCommitHook(func(id core.SubID) {
			if faults.Fire(faultinject.Crash) {
				// A real crash, not a panic: no deferred handlers, no
				// exports, no journal seal. Only what the journal
				// already holds survives.
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
				select {} // unreachable: wait for the signal
			}
			if faults.Fire(faultinject.WorkloadPanic) {
				panic(fmt.Sprintf("injected workload panic after %v", id))
			}
		})
	}
	return rt, nil
}

// Run executes main as the program's first thread and returns the run
// report. Run may be called once per Runtime. The epoch pipeline is
// closed before Run returns (Close, then WaitStream bounded to 30 s),
// so queries issued afterwards always see the complete graph, the
// journal is sealed, and the aggregator holds every epoch.
func (r *Runtime) Run(main func(*Thread)) (*Report, error) {
	rep, err := r.rt.Run(main)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if cerr := errors.Join(r.Close(), r.WaitStream(ctx)); err == nil {
		err = cerr
	}
	return rep, err
}

// Close ends the epoch pipeline once recording has quiesced: the final
// fold, then each sink's finish (journal seal, closed feed, stream seal
// queued). Recovery reads a closed journal as complete rather than cut
// short. Run calls it; front ends that drive the workload through
// Unwrap call it themselves. Idempotent.
func (r *Runtime) Close() error {
	if r.closeEpochs == nil {
		return nil
	}
	return r.closeEpochs()
}

// WaitStream flushes the Options.Stream upload queue, seal included,
// and stops the sender; call it after Close. ctx bounds the flush. The
// error is the sender's first terminal one, or names how many epochs
// stayed unshipped — the journal, when there is one, still holds them.
// Without Options.Stream it returns nil.
func (r *Runtime) WaitStream(ctx context.Context) error {
	if r.up == nil {
		return nil
	}
	return r.up.Wait(ctx)
}

// MapInput maps input data into the tracked address space (the mmap'd
// input file of the paper's input shim) and returns its base address.
func (r *Runtime) MapInput(name string, data []byte) (Addr, error) {
	return r.rt.MapInput(name, data)
}

// NewMutex creates a named mutex.
func (r *Runtime) NewMutex(name string) *Mutex { return r.rt.NewMutex(name) }

// NewBarrier creates a named barrier for n participants.
func (r *Runtime) NewBarrier(name string, n int) *Barrier { return r.rt.NewBarrier(name, n) }

// NewSemaphore creates a named counting semaphore.
func (r *Runtime) NewSemaphore(name string, initial int) *Semaphore {
	return r.rt.NewSemaphore(name, initial)
}

// NewCond creates a condition variable tied to m.
func (r *Runtime) NewCond(name string, m *Mutex) *Cond { return r.rt.NewCond(name, m) }

// GlobalsBase returns the base address of the shared globals region.
func (r *Runtime) GlobalsBase() Addr { return r.rt.GlobalsBase() }

// CPG returns the recorded Concurrent Provenance Graph.
func (r *Runtime) CPG() *CPG { return r.rt.Graph() }

// Query executes one typed provenance question against the recorded
// CPG — the same API cpg-query and inspector-serve expose, run in
// process. Cancellation is honored mid-traversal: a canceled ctx stops
// the closure walk and returns the context's error.
//
// Without Options.Live, call it after Run returns: the first Query
// analyzes the graph once and caches the engine, so repeated queries
// (and concurrent queries from several goroutines) share one immutable
// analysis.
//
// With Options.Live, Query may be called at any time — including from
// other goroutines while Run is still executing. Each call pins the
// newest completed epoch's immutable analysis: results cover every
// sub-computation sealed up to that epoch's causally consistent cut and
// carry the epoch id (QueryResult.Epoch). Cursors are valid against the
// epoch that issued them; WaitEpoch subscribes to fold progress.
func (r *Runtime) Query(ctx context.Context, q Query) (*QueryResult, error) {
	return r.Source().Query(ctx, q)
}

// Source is the runtime's CPG as inspector-serve serves it: under
// Options.Live the feed of folded epochs, usable while Run executes;
// otherwise the completed graph, analyzed on first use — call it after
// Run returns.
func (r *Runtime) Source() provenance.Source {
	if r.feed != nil {
		return r.feed
	}
	return provenance.StaticSource(r.postRunEngine())
}

// postRunEngine analyzes the recorded graph once, in batch.
func (r *Runtime) postRunEngine() *provenance.Engine {
	r.engineOnce.Do(func() {
		r.engine = provenance.NewEngine(r.rt.Graph().Analyze(), provenance.EngineOptions{})
	})
	return r.engine
}

// Analysis returns the batch analysis of the recorded CPG, computed once
// and shared with Query (without Options.Live) and WriteCPG. Call it
// after Run returns.
func (r *Runtime) Analysis() *Analysis { return r.postRunEngine().Analysis() }

// ErrNotLive tags live-only calls on a runtime built without
// Options.Live.
var ErrNotLive = errors.New("inspector: runtime not in live mode (set Options.Live)")

// Epoch returns the newest completed epoch. Under Options.Live alone it
// is ≥ 1 once the runtime exists (the pipeline folds epoch 1 eagerly);
// with Options.Journal, Stream or SnapshotMode epoch k is journal
// record k, wire frame k and Snapshot.Cut.Epoch k, 0 until the first
// fold. An aggregator publishes a subset of these numbers (one per
// ingest batch, named by its last delta), each the same cut as here. It
// returns 0 with none of the four.
func (r *Runtime) Epoch() uint64 {
	switch {
	case r.feed != nil:
		return r.feed.Epoch()
	case r.drv != nil:
		return r.drv.Epoch()
	}
	return 0
}

// WaitEpoch blocks until the live analysis has folded epoch min (or
// further) and returns the epoch that satisfied the wait — the
// Subscribe primitive for monitors that follow a run's provenance as it
// grows. It fails with ErrNotLive without Options.Live, with ctx's
// error if the context ends first, and with provenance.ErrLiveClosed if
// the final epoch has been folded and still falls short of min.
func (r *Runtime) WaitEpoch(ctx context.Context, min uint64) (uint64, error) {
	if r.feed == nil {
		return 0, ErrNotLive
	}
	return r.feed.WaitEpoch(ctx, min)
}

// WriteDOT renders the CPG in Graphviz form.
func (r *Runtime) WriteDOT(w io.Writer) error { return r.rt.Graph().WriteDOT(w) }

// WriteCPG analyzes the recorded CPG and serializes it in the columnar
// .cpg format (internal/cpgfile) — the file cpg-query -cpg and
// inspector-serve -cpg/-cpgdir read. The header names the run
// (Options.RunID, or the journal's generated id). Call it after Run
// returns.
func (r *Runtime) WriteCPG(w io.Writer) error {
	return cpgfile.Encode(w, r.Analysis(), cpgfile.Meta{RunID: r.runID, App: r.app})
}

// DecodeTraces decodes every thread's PT trace against the program image,
// returning per-PID reconstructed branch-event counts. It fails if any
// trace does not reconstruct — the end-to-end check that the compressed
// packet streams carry the full control flow.
func (r *Runtime) DecodeTraces() (map[int32]int, error) { return r.rt.DecodeTraces() }

// Snapshots returns the retained consistent-cut snapshots, oldest first.
// Each is a retained epoch of the fold journal, stream and live feed
// share: Cut.Epoch names it, Cut.Frontier is its per-thread prefix, and
// Analysis covers exactly that prefix — provenance.NewEngine answers
// every query kind against it, cpgfile.Encode takes it out of the
// process.
//
// The snapshot facility only exists when the runtime was created with
// Options.SnapshotMode set (and not Native): without it, Snapshots
// always returns nil — indistinguishable from "snapshot mode is on but
// nothing has been captured yet". TakeSnapshot's ok result tells the
// two apart.
func (r *Runtime) Snapshots() []*Snapshot {
	if r.snaps == nil {
		return nil
	}
	return r.snaps.Snapshots()
}

// TakeSnapshot forces an immediate consistent cut (the SIGUSR2 trigger
// of the paper's perf integration) and stores it in the snapshot ring:
// it folds one epoch now — the other sinks see it too — and the ring
// retains it whatever its cadence. After Close it returns the final
// epoch.
//
// The ok result reports whether the snapshot facility exists: it is
// false — with a nil snapshot — when the runtime was created without
// Options.SnapshotMode (or with Native set), and true otherwise. This
// is the contract that distinguishes "snapshot mode is off" from "an
// empty capture": with ok true the returned snapshot is never nil, even
// when the cut it captures contains no sub-computations yet.
func (r *Runtime) TakeSnapshot() (*Snapshot, bool) {
	if r.snaps == nil {
		return nil, false
	}
	return r.snaps.Take(r.drv.Fold), true
}

// Unwrap exposes the underlying threading runtime for advanced use
// (harnesses, benchmarks).
func (r *Runtime) Unwrap() *threading.Runtime { return r.rt }
