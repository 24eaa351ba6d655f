// Package threading implements the INSPECTOR threading library (§V-A):
// the pthreads-replacement runtime that executes a multithreaded workload
// while transparently building its Concurrent Provenance Graph.
//
// A Runtime owns the shared substrates of one execution:
//
//   - shared memory backings for globals, heap and mapped input, with each
//     "thread" running as a simulated process holding a private
//     copy-on-write view (threads-as-processes, clone());
//   - one perf session every forked process attaches to at creation (all
//     the paper's dedicated cgroup buys: its forked PIDs are not known in
//     advance, these are), with a per-process AUX ring receiving each
//     process's Intel-PT-style branch trace;
//   - the CPG under construction (internal/core) and the program image
//     the PT decoder will need (internal/image);
//   - the deterministic virtual-time cost model standing in for the
//     paper's Xeon D-1540 wall clock, whose per-thread clocks also sum to
//     the "work" metric the paper reads from cpuacct.
//
// A thread has one identity, its slot: the dense index its vector-clock
// component, CPG shard and exit site are named by. The PID perf records
// carry is a rendering of it (firstPID + slot), so every per-thread
// artefact — .perf record order, snapshot PT windows, DecodeTraces —
// comes out in slot order.
//
// The same Runtime also runs workloads in native mode — the pthreads
// baseline of the evaluation — where all tracking is disabled, threads
// share memory directly (paying false-sharing penalties INSPECTOR's
// isolation avoids), and only the base costs are charged.
package threading

import (
	"errors"
	"fmt"
	"sync"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/image"
	"github.com/repro/inspector/internal/mem"
	"github.com/repro/inspector/internal/perf"
	"github.com/repro/inspector/internal/pt"
	"github.com/repro/inspector/internal/vtime"
)

// Mode selects the execution mode.
type Mode int

// Execution modes.
const (
	// ModeNative is the pthreads baseline: no provenance, no isolation.
	ModeNative Mode = iota + 1
	// ModeInspector runs under the full INSPECTOR stack.
	ModeInspector
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModeInspector:
		return "inspector"
	default:
		return "unknown"
	}
}

// Options configure a Runtime.
type Options struct {
	// AppName names the application (perf COMM records, reports).
	AppName string
	// Mode selects native or INSPECTOR execution. Default ModeInspector.
	Mode Mode
	// MaxThreads bounds the number of thread slots (vector clock width).
	// Default 64; kmeans-style workloads that spawn hundreds of threads
	// must raise it, and pay proportionally larger clock merges — the
	// effect behind kmeans's Figure 5 overhead.
	MaxThreads int
	// PageSize is the tracking granularity. Default 4096.
	PageSize int
	// Model is the virtual-time cost model. Zero value selects defaults.
	Model vtime.CostModel
	// AuxSize is the per-process AUX ring size. Default 4 MiB.
	AuxSize int
	// TraceMode selects full-trace or snapshot AUX rings.
	TraceMode perf.Mode
	// WrapTraceSink, when set, wraps each thread's PT byte sink before
	// the encoder attaches. Fault injection uses it to interpose a lossy
	// sink (internal/faultinject); loss shows up exactly as a real AUX
	// ring overrun would — a partial WriteTrace accept — so every layer
	// above sees injected and genuine loss identically.
	WrapTraceSink func(pt.ByteSink) pt.ByteSink
}

// Runtime is one execution of one workload.
type Runtime struct {
	opts   Options
	model  vtime.CostModel
	layout mem.Layout

	globals  *mem.Backing
	heap     *mem.Backing
	input    *mem.Backing
	backings []*mem.Backing

	img   *image.Image
	graph *core.Graph
	sess  *perf.Session
	acct  vtime.Accounting

	allocMu  sync.Mutex
	heapNext mem.Addr
	inputMu  sync.Mutex
	inputOff mem.Addr

	// threads is indexed by slot: allocSlot reserves the next entry and
	// newThread fills it, so an entry is nil only while (or because) its
	// spawn has not got as far as creating the thread.
	threadsMu sync.Mutex
	threads   []*Thread
	wg        sync.WaitGroup

	finished   bool
	ptStats    pt.Stats
	lastReport *Report

	hookMu      sync.Mutex
	commitHooks []func(core.SubID)

	errMu   sync.Mutex
	runErrs []error
}

// Errors returned by the runtime.
var (
	ErrTooManyThreads = errors.New("threading: thread slots exhausted (raise Options.MaxThreads)")
	ErrFinished       = errors.New("threading: runtime already finished")
	ErrInputTooLarge  = errors.New("threading: input region exhausted")
	// ErrWorkloadPanic tags Run errors caused by a panicking workload
	// body: the run still completes with a partial, gap-marked CPG
	// instead of crashing the host process.
	ErrWorkloadPanic = errors.New("threading: workload panicked")
)

// NewRuntime builds a runtime for the given options.
func NewRuntime(opts Options) (*Runtime, error) {
	if opts.Mode == 0 {
		opts.Mode = ModeInspector
	}
	if opts.MaxThreads <= 0 {
		opts.MaxThreads = 64
	}
	if opts.PageSize <= 0 {
		opts.PageSize = mem.DefaultPageSize
	}
	if opts.AppName == "" {
		opts.AppName = "app"
	}
	model := opts.Model
	if model == (vtime.CostModel{}) {
		model = vtime.Default()
	}
	layout := mem.DefaultLayout()
	globals, err := mem.NewBacking("globals", layout.GlobalsBase, layout.GlobalsSize, opts.PageSize)
	if err != nil {
		return nil, fmt.Errorf("threading: globals region: %w", err)
	}
	heap, err := mem.NewBacking("heap", layout.HeapBase, layout.HeapSize, opts.PageSize)
	if err != nil {
		return nil, fmt.Errorf("threading: heap region: %w", err)
	}
	input, err := mem.NewBacking("input", layout.InputBase, layout.InputSize, opts.PageSize)
	if err != nil {
		return nil, fmt.Errorf("threading: input region: %w", err)
	}
	rt := &Runtime{
		opts:     opts,
		model:    model,
		layout:   layout,
		globals:  globals,
		heap:     heap,
		input:    input,
		backings: []*mem.Backing{globals, heap, input},
		img:      image.New(),
		graph:    core.NewGraph(opts.MaxThreads),
		heapNext: layout.HeapBase,
		inputOff: layout.InputBase,
	}
	rt.sess = perf.NewSession(perf.SessionOptions{
		Mode:      opts.TraceMode,
		AuxSize:   opts.AuxSize,
		AutoDrain: true,
		Clock:     func() uint64 { return uint64(rt.acct.MaxNow()) },
	})
	return rt, nil
}

// Mode returns the runtime's execution mode.
func (rt *Runtime) Mode() Mode { return rt.opts.Mode }

// Model returns the cost model in effect.
func (rt *Runtime) Model() vtime.CostModel { return rt.model }

// Graph returns the CPG under construction.
func (rt *Runtime) Graph() *core.Graph { return rt.graph }

// Image returns the synthetic program image.
func (rt *Runtime) Image() *image.Image { return rt.img }

// Session returns the perf trace session.
func (rt *Runtime) Session() *perf.Session { return rt.sess }

// PageSize returns the tracking granularity.
func (rt *Runtime) PageSize() int { return rt.opts.PageSize }

// GlobalsBase returns the first address of the globals region, a
// convenient place for workloads to lay out shared variables.
func (rt *Runtime) GlobalsBase() mem.Addr { return rt.layout.GlobalsBase }

// MapInput copies data into the input-mapping region (the simulated
// mmap() of an input file) and returns its base address. The mapping is
// announced to the perf session as an MMAP record, as INSPECTOR's input
// shim does (§V-A "Input support"), so the input pages are attributable
// in the provenance graph.
func (rt *Runtime) MapInput(name string, data []byte) (mem.Addr, error) {
	rt.inputMu.Lock()
	defer rt.inputMu.Unlock()
	base := rt.inputOff
	ps := mem.Addr(rt.opts.PageSize)
	need := (mem.Addr(len(data)) + ps - 1) / ps * ps
	if need == 0 {
		need = ps
	}
	end := uint64(base) + uint64(need)
	if end > uint64(rt.layout.InputBase)+uint64(rt.layout.InputSize) {
		return 0, fmt.Errorf("%w: mapping %s (%d bytes)", ErrInputTooLarge, name, len(data))
	}
	rt.inputOff = base + need
	if _, err := rt.input.WriteAt(base, data, 0); err != nil {
		return 0, fmt.Errorf("threading: map input %s: %w", name, err)
	}
	rt.sess.RecordMMAP(0, uint64(base), uint64(len(data)), name)
	return base, nil
}

// InputBytes returns the total bytes mapped into the input region
// (page-rounded), the x-axis of the Figure 8 input-scaling experiment.
func (rt *Runtime) InputBytes() uint64 {
	rt.inputMu.Lock()
	defer rt.inputMu.Unlock()
	return uint64(rt.inputOff - rt.layout.InputBase)
}

// allocSlot reserves the next thread slot.
func (rt *Runtime) allocSlot() (int, error) {
	rt.threadsMu.Lock()
	defer rt.threadsMu.Unlock()
	if len(rt.threads) >= rt.opts.MaxThreads {
		return 0, ErrTooManyThreads
	}
	rt.threads = append(rt.threads, nil)
	return len(rt.threads) - 1, nil
}

// Run executes main as thread slot 0 and waits for every spawned thread
// to finish, then assembles the report. Run may be called once.
//
// A panicking workload body does not crash the host process: the panic
// is recovered, the interrupted sub-computation is marked as a trace gap,
// and Run returns an error wrapping ErrWorkloadPanic alongside the
// partial report — the graph remains queryable, flagged degraded.
func (rt *Runtime) Run(main func(*Thread)) (*Report, error) {
	if rt.finished {
		return nil, ErrFinished
	}
	slot, err := rt.allocSlot()
	if err != nil {
		return nil, err
	}
	t, err := rt.newThread(nil, slot, rt.opts.AppName)
	if err != nil {
		return nil, err
	}
	rt.runBody(t, main)
	rt.finishThread(t)
	// Wait for any threads the workload spawned but never joined (the
	// process would reap them at exit).
	rt.wg.Wait()
	rt.finished = true
	rep, rerr := rt.buildReport(t)
	rt.lastReport = rep
	return rep, errors.Join(rt.runErr(), rerr)
}

// runBody executes one thread's workload function, converting a panic
// into a recorded error plus a gap on the interrupted sub-computation.
func (rt *Runtime) runBody(t *Thread, fn func(*Thread)) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if t.rec != nil {
			cur := t.rec.Alpha()
			t.rec.MarkGap(core.Gap{FromAlpha: cur, ToAlpha: cur, Kind: core.GapPanic})
		}
		rt.noteErr(fmt.Errorf("%w: thread %d: %v", ErrWorkloadPanic, t.slot, r))
	}()
	fn(t)
}

// finishThread closes a thread, absorbing a teardown panic: either the
// workload body already failed and left the recorder unable to seal
// cleanly, or third-party code on the teardown path (a commit hook on
// the final seal) panicked. Both count as workload panics and mark a
// gap; the join channel always ends up closed, so parents blocked in
// Join are released either way.
func (rt *Runtime) finishThread(t *Thread) {
	defer func() {
		if r := recover(); r != nil {
			if t.rec != nil {
				// The recorder may itself be the broken party here; a
				// failed gap mark must not mask the original panic.
				func() {
					defer func() { _ = recover() }()
					cur := t.rec.Alpha()
					t.rec.MarkGap(core.Gap{FromAlpha: cur, ToAlpha: cur, Kind: core.GapPanic})
				}()
			}
			rt.noteErr(fmt.Errorf("%w: thread %d teardown: %v", ErrWorkloadPanic, t.slot, r))
			select {
			case <-t.joinCh:
			default:
				close(t.joinCh)
			}
		}
	}()
	t.finish()
}

// noteErr records one thread's failure; Run joins them all.
func (rt *Runtime) noteErr(err error) {
	rt.errMu.Lock()
	rt.runErrs = append(rt.runErrs, err)
	rt.errMu.Unlock()
}

// runErr joins the recorded thread failures (nil when none).
func (rt *Runtime) runErr() error {
	rt.errMu.Lock()
	defer rt.errMu.Unlock()
	return errors.Join(rt.runErrs...)
}

// LastReport returns the report of the completed Run (nil before Run
// finishes). Harnesses use it when the workload owns the Run call.
func (rt *Runtime) LastReport() *Report { return rt.lastReport }

// RegisterCommitHook adds a callback invoked after every sub-computation
// is sealed and published to the graph — the commit boundary of §V-A,
// which is also the publication point of the live analysis pipeline: by
// the time the hook fires, the vertex is visible to Graph readers, so a
// fold triggered by it will observe the vertex. Hooks run on the
// recording thread's goroutine, in registration order, and the workload
// pays for them at every seal (the epoch driver folds right here; an
// off-thread consumer pokes a buffered channel). Register hooks before Run.
func (rt *Runtime) RegisterCommitHook(fn func(id core.SubID)) {
	rt.hookMu.Lock()
	rt.commitHooks = append(rt.commitHooks, fn)
	rt.hookMu.Unlock()
}

// notifyCommit runs commit hooks for one sealed sub-computation.
func (rt *Runtime) notifyCommit(id core.SubID) {
	rt.hookMu.Lock()
	hooks := rt.commitHooks
	rt.hookMu.Unlock()
	for _, fn := range hooks {
		fn(id)
	}
}
