package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/image"
	"github.com/repro/inspector/internal/journal"
	"github.com/repro/inspector/internal/mem"
	"github.com/repro/inspector/internal/pt"
	"github.com/repro/inspector/internal/threading"
	"github.com/repro/inspector/internal/wire"
	"github.com/repro/inspector/provenance"
)

// The staged run assembles the pipeline from the layers' exported pieces,
// one stage per function below, with a span around every call into a layer
// and counts taken at the same boundaries. Its numbers say where time
// goes; they are not end-to-end numbers (staged.trace_overhead_x says by
// how much they differ).

// stagedReps is how often the short native and traced runs repeat.
const stagedReps = 3

// stagedQueries is how many queries of each kind the serving stage issues
// on each of its three paths (engine, store, HTTP), per pass.
const stagedQueries = 20

// staged is one workload's staged run.
type staged struct {
	b  *bench
	tr *tracer
	m  map[string]metric
	// info are numbers printed for the reader beside the per-layer metrics.
	info map[string]metric

	rt  *threading.Runtime // the last plain traced run
	rep *threading.Report
}

func (s *staged) set(name, unit string, v float64) { s.m[name] = single(unit, v, 1) }

// pct reports the q-quantile of pooled samples.
func (s *staged) pct(name, unit string, q float64, xs []float64) {
	s.m[name] = single(unit, quantile(xs, q), len(xs))
}

// runStaged runs every stage once and returns the per-layer metrics.
func (b *bench) runStaged() (*result, *tracer, error) {
	s := &staged{b: b, tr: newTracer(), m: map[string]metric{}, info: map[string]metric{}}
	srv, err := b.setup()
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer srv.close()
	c0 := readCPU()
	s.record()
	if s.rt == nil {
		return nil, nil, errors.New("no traced run succeeded")
	}
	s.replays()
	s.journal()
	s.stream(srv.subs)
	s.live()
	s.analyzeToQuery()
	s.serve(srv)
	// Staged times are raw wall-clock; this says how far to trust them.
	s.info["steal_share"] = single("ratio", 1-readCPU().since(c0).got(), 1)
	return &result{
		Workload: b.sc.Name, Attempted: b.attempted, Failed: b.failed,
		Reps:    map[string]int{"native": stagedReps, "record": stagedReps, "queries_per_kind_and_path": stagedQueries},
		Metrics: s.m, Info: s.info,
	}, s.tr, nil
}

// timedSink times every write of one thread's PT bytes into its AUX ring.
// Each thread owns its sink, so the counters need no lock.
type timedSink struct {
	next   pt.ByteSink
	writes int
	spent  time.Duration
}

func (t *timedSink) WriteTrace(p []byte) int {
	t0 := time.Now()
	n := t.next.WriteTrace(p)
	t.spent += time.Since(t0)
	t.writes++
	return n
}

// clockCost measures what one timedSink measurement costs by itself: the
// time a pair of clock reads reports for doing nothing.
func clockCost() time.Duration {
	const n = 100000
	var spent time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		spent += time.Since(t0)
	}
	return spent / n
}

// record runs the program natively and traced, and reads the recording
// layers' counters off the traced run's report.
func (s *staged) record() {
	b := s.b
	var native, traced []float64
	for i := 0; i < stagedReps; i++ {
		id := s.tr.begin(-1, "native", "staged.native", "")
		d, err := b.runNative()
		s.tr.end(id)
		b.op("native run", err)
		native = append(native, ms(d))
	}
	for i := 0; i < stagedReps; i++ {
		rt, err := b.newRuntime(b.cfg, threading.ModeInspector, nil)
		if err == nil {
			runtime.GC()
			id := s.tr.begin(-1, "record", "staged.record", "")
			_, err = b.timedRun(rt, b.cfg, nil)
			traced = append(traced, ms(s.tr.end(id)))
		}
		b.op("traced run", err)
		if err == nil {
			s.rt, s.rep = rt, rt.LastReport()
		}
	}
	if s.rt == nil {
		return
	}
	// One more traced run with the timing wrapper on every thread's sink.
	// Its wall is not used: two clock reads per write are not free.
	var mu sync.Mutex
	var sinks []*timedSink
	rt, err := b.newRuntime(b.cfg, threading.ModeInspector, func(next pt.ByteSink) pt.ByteSink {
		ts := &timedSink{next: next}
		mu.Lock()
		sinks = append(sinks, ts)
		mu.Unlock()
		return ts
	})
	if err == nil {
		_, err = b.timedRun(rt, b.cfg, nil)
	}
	b.op("traced run, timed sinks", err)
	rep := s.rep
	s.m["staged.native_ms"] = summarize("ms", native)
	s.m["staged.record_ms"] = summarize("ms", traced)
	s.set("threading.subs", "count", float64(rep.SubComputations))
	s.set("threading.sync_edges", "count", float64(len(s.rt.Graph().SyncEdges())))
	s.set("mem.page_faults", "count", float64(rep.Faults()))
	s.set("mem.commit_pages", "count", float64(rep.CommittedPages))
	s.set("mem.commit_bytes", "B", float64(rep.CommittedBytes))
	s.set("mem.twin_copies", "count", float64(rep.TwinCopies))
	s.set("pt.branches", "count", float64(rep.Branches))
	s.set("pt.trace_bytes", "B", float64(rep.TraceBytes))
	s.set("pt.bytes_per_branch", "B", float64(rep.TraceBytes)/float64(rep.Branches))
	s.set("pt.lost_bytes", "B", float64(rep.LostTraceBytes))
	var writes int
	var spent time.Duration
	for _, ts := range sinks {
		writes += ts.writes
		spent += ts.spent
	}
	s.set("pt.sink_writes", "count", float64(writes))
	s.set("pt.sink_write_ms", "ms", max(ms(spent-time.Duration(writes)*clockCost()), 0))

	var decodeErr error
	d := s.tr.do(-1, "record", "pt.decode", func() { _, decodeErr = s.rt.DecodeTraces() })
	b.op("decode and verify", errors.Join(decodeErr, checkRecording(s.rt)))
	s.set("pt.decode_ms", "ms", ms(d))
	s.set("pt.decode_mb_per_s", "MB/s", float64(rep.TraceBytes)/1e6/d.Seconds())
}

// share splits total evenly over n parts and returns part i's size.
func share(total uint64, n, i int) int {
	return int(total*uint64(i+1)/uint64(n) - total*uint64(i)/uint64(n))
}

// perThread runs f once per recorded thread, concurrently as the threads
// ran.
func perThread(threads int, f func(t int)) {
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(t)
		}()
	}
	wg.Wait()
}

// firstErr keeps the first error the goroutines of a replay report.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
}

// replays re-issues the traced run's recorded work against a fresh
// instance of each recording layer, one goroutine per recorded thread, to
// estimate that layer's share of record_ms. What is left over is
// threading.residual_ms: printed, never hidden.
func (s *staged) replays() {
	replay := func(what, name string, f func() error) float64 {
		var err error
		d := s.tr.do(-1, "replay", name, func() { err = f() })
		s.b.op(what, err)
		s.set(name+"_ms", "ms", ms(d))
		return ms(d)
	}
	memMs := replay("mem replay", "mem.replay", s.replayMem)
	events, exits, err := s.decodeEvents()
	if err != nil {
		s.b.op("pt replay", err)
		return
	}
	ptMs := replay("pt replay", "pt.replay_encode", func() error { return s.replayPT(events, exits) })
	g2, remap := s.replayGraph()
	coreMs := replay("core replay", "core.replay_endsub", func() error { return s.replayCore(g2, remap) })
	s.set("threading.residual_ms", "ms",
		s.m["staged.record_ms"].Value-s.m["staged.native_ms"].Value-
			memMs-ptMs-s.m["pt.sink_write_ms"].Value-coreMs)
}

// replayMem re-issues the run's faults, first writes and commits, spread
// evenly over its sub-computations, with its mean dirty bytes per
// committed page, against one fresh mem.Space per thread.
func (s *staged) replayMem() error {
	rep, threads := s.rep, s.rep.Threads
	const pages = 1 << 14
	backing, err := mem.NewBacking("replay", 1<<20, pages*mem.DefaultPageSize, mem.DefaultPageSize)
	if err != nil {
		return err
	}
	subs := max(rep.SubComputations/threads, 1)
	dirty := mem.DefaultPageSize
	if rep.CommittedPages > 0 {
		dirty = max(min(int(rep.CommittedBytes/rep.CommittedPages), mem.DefaultPageSize), 1)
	}
	var failed firstErr
	perThread(threads, func(t int) {
		space := mem.NewSpace(int32(t), []*mem.Backing{backing}, mem.FaultHandlerFunc(func(mem.Fault) {}), true)
		base := backing.Base() + mem.Addr(t*(pages/threads)*mem.DefaultPageSize)
		page := func(i int) mem.Addr { return base + mem.Addr(i*mem.DefaultPageSize) }
		buf := make([]byte, max(dirty, 8))
		for i := 0; i < subs; i++ {
			reads := share(rep.ReadFaults/uint64(threads), subs, i)
			writes := share(rep.WriteFaults/uint64(threads), subs, i)
			commits := share(rep.CommittedPages/uint64(threads), subs, i)
			for p := 0; p < reads; p++ {
				if err := space.Read(page(p), buf[:8]); err != nil {
					failed.set(err)
					return
				}
			}
			// The first `commits` written pages change content and are
			// committed; the rest are written with the zeroes they
			// already hold (twin copy and diff, nothing to publish).
			for j := range buf {
				buf[j] = byte(i%251 + 1)
			}
			for p := 0; p < writes; p++ {
				if p == commits {
					clear(buf)
				}
				if _, err := space.Write(page(reads+p), buf[:dirty]); err != nil {
					failed.set(err)
					return
				}
			}
			space.Commit()
		}
	})
	return failed.err
}

// decodeEvents decodes every thread's PT trace back to its branch events
// and names each thread's exit site, what replayPT needs and does not time.
func (s *staged) decodeEvents() (events [][]pt.Event, exits []string, err error) {
	for i, pid := range s.rt.Session().PIDs() {
		st, ok := s.rt.Session().Stream(pid)
		if !ok {
			continue
		}
		evs, err := pt.DecodeAll(s.rt.Image(), st.Trace())
		if err != nil {
			return nil, nil, err
		}
		events = append(events, evs)
		exits = append(exits, fmt.Sprintf("__exit_t%d__", i))
	}
	return events, exits, nil
}

// replayPT re-encodes the decoded branch events into counting sinks. The
// bytes must come out as many as the run wrote.
func (s *staged) replayPT(events [][]pt.Event, exits []string) error {
	counts := make([]countingSink, len(events))
	var failed firstErr
	perThread(len(events), func(t int) {
		enc := pt.NewEncoder(&counts[t], pt.EncoderOptions{TSC: func() uint64 { return 0 }})
		tracer, err := pt.NewTracer(enc, s.rt.Image(), exits[t])
		if err != nil {
			failed.set(err)
			return
		}
		for _, ev := range events[t] {
			if ev.Site.Kind == image.Conditional {
				tracer.OnCond(ev.Site, ev.Taken)
			} else {
				tracer.OnIndirect(ev.Site)
			}
		}
		tracer.Close()
	})
	var reencoded uint64
	for _, c := range counts {
		reencoded += uint64(c)
	}
	if failed.err == nil && reencoded != s.rep.TraceBytes {
		return fmt.Errorf("re-encoded %d trace bytes, the run wrote %d", reencoded, s.rep.TraceBytes)
	}
	return failed.err
}

// replayGraph makes the fresh graph replayCore records into, with the
// run's symbols interned and the map from the run's refs to the new ones.
func (s *staged) replayGraph() (*core.Graph, []core.SiteRef) {
	g := s.rt.Graph()
	g2 := core.NewGraph(g.Threads())
	syms := g.Symbols()
	remap := make([]core.SiteRef, len(syms))
	for i, name := range syms {
		remap[i] = g2.InternSite(name)
	}
	return g2, remap
}

// replayCore re-records the run's read and write sets and thunks through
// core.Recorder.
func (s *staged) replayCore(g2 *core.Graph, remap []core.SiteRef) error {
	g := s.rt.Graph()
	var failed firstErr
	perThread(s.rep.Threads, func(t int) {
		rec, err := core.NewRecorder(g2, t, 0)
		if err != nil {
			failed.set(err)
			return
		}
		for _, sc := range g.ThreadSeq(t) {
			for _, p := range sc.ReadSet.Sorted() {
				rec.OnRead(p)
			}
			for _, p := range sc.WriteSet.Sorted() {
				rec.OnWrite(p)
			}
			for _, th := range sc.Thunks {
				rec.OnInstructions(th.Instructions)
				if th.Indirect {
					rec.OnIndirect(remap[th.Site], remap[th.Target])
				} else {
					rec.OnBranch(remap[th.Site], th.Taken)
				}
			}
			if _, err := rec.EndSub(core.SyncEvent{Kind: sc.End.Kind}, sc.Finish); err != nil {
				failed.set(err)
				return
			}
		}
	})
	if failed.err == nil && g2.NumSubs() != g.NumSubs() {
		return fmt.Errorf("re-recorded %d sub-computations, the run sealed %d", g2.NumSubs(), g.NumSubs())
	}
	return failed.err
}

// countingSink accepts every trace byte and counts it.
type countingSink uint64

func (c *countingSink) WriteTrace(p []byte) int {
	*c += countingSink(len(p))
	return len(p)
}

// tracedFile is a journal segment whose writes are spans, children of the
// append that caused them.
type tracedFile struct {
	f      *os.File
	tr     *tracer
	parent *int
}

func (t *tracedFile) Write(p []byte) (n int, err error) {
	t.tr.do(*t.parent, "journal", "journal.write", func() { n, err = t.f.Write(p) })
	return n, err
}
func (t *tracedFile) Sync() error  { return t.f.Sync() }
func (t *tracedFile) Close() error { return t.f.Close() }

// journal is the journaled run, with the benchmark's own commit hook in
// journal.Recorder's place: fold, then append, on the sealing thread under
// one mutex, exactly the discipline the product has.
func (s *staged) journal() {
	b, tr := s.b, s.tr
	rt, err := b.newRuntime(b.cfg, threading.ModeInspector, nil)
	if err != nil {
		b.op("staged journal", err)
		return
	}
	dir := b.scratch("staged-journal")
	defer os.RemoveAll(dir)
	runtime.GC()
	root := tr.begin(-1, "journal", "staged.journal", "")
	parent := root
	w, err := journal.Create(journal.Options{
		Dir: dir, Threads: rt.Graph().Threads(), App: b.sc.App, Fsync: journal.PolicyNone,
		OpenFile: func(name string) (journal.File, error) {
			f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
			return &tracedFile{f, tr, &parent}, err
		},
	})
	if err != nil {
		tr.end(root)
		b.op("staged journal", err)
		return
	}
	inc := core.NewIncrementalAnalyzer(rt.Graph())
	var mu sync.Mutex
	var last *core.Analysis
	var appendErr error
	foldAndAppend := func() {
		var d *core.EpochDelta
		tr.do(root, "journal", "core.fold_delta", func() { last, d = inc.FoldDelta() })
		parent = tr.begin(root, "journal", "journal.append", "")
		if err := w.Append(d); err != nil && appendErr == nil {
			appendErr = err
		}
		tr.end(parent)
		parent = root
	}
	rt.RegisterCommitHook(func(core.SubID) {
		mu.Lock()
		defer mu.Unlock()
		foldAndAppend()
	})
	_, err = b.timedRun(rt, b.cfg, func() error {
		mu.Lock()
		defer mu.Unlock()
		foldAndAppend()
		return errors.Join(appendErr, w.Seal(inc.Epoch()))
	})
	wall := tr.end(root)
	if err != nil {
		b.op("staged journal", err)
		return
	}
	size, segments, err := dirBytes(dir)
	if err == nil {
		tr.do(-1, "journal", "journal.recover", func() { err = checkJournal(dir, inc.Epoch(), last) })
	}
	b.op("staged journal", err)

	// The same variant with tracing off, for the overhead ratio.
	plain, _, err := b.runJournal(false)
	b.op("journaled run", err)

	folds := tr.durs("journal", "core.fold_delta", "", us)
	appends := tr.durs("journal", "journal.append", "", us)
	s.set("staged.journal_ms", "ms", ms(wall))
	s.set("staged.journal_residual_ms", "ms", ms(tr.self(root)))
	s.set("staged.trace_overhead_x", "ratio", ms(wall)/ms(plain))
	s.set("core.epochs", "count", float64(inc.Epoch()))
	s.set("core.fold_delta_ms_total", "ms", sum(folds)/1e3)
	s.pct("core.fold_delta_us_p50", "us", 0.5, folds)
	s.pct("core.fold_delta_us_p99", "us", 0.99, folds)
	s.set("journal.append_ms_total", "ms", sum(appends)/1e3)
	s.pct("journal.append_us_p50", "us", 0.5, appends)
	s.pct("journal.append_us_p99", "us", 0.99, appends)
	s.set("journal.write_ms_total", "ms", sum(tr.durs("journal", "journal.write", "", ms)))
	s.set("journal.bytes", "B", float64(size))
	s.set("journal.segments", "count", float64(segments))
	s.set("journal.recover_ms", "ms", sum(tr.durs("journal", "journal.recover", "", ms)))
}

// streamer is the benchmark's own StreamRecorder: fold on the sealing
// thread, frame and POST from a sender goroutine, batches of at most
// streamBatch, a seal at the end. It keeps every request body, so the
// aggregator's side can be replayed against them.
type streamer struct {
	tr     *tracer
	root   int
	c      *provenance.Client
	hello  wire.Hello
	source string

	mu         sync.Mutex
	inc        *core.IncrementalAnalyzer
	pending    []*core.EpochDelta
	pendingMax int
	last       *core.Analysis
	err        error

	notify chan struct{}
	done   chan struct{}
	sent   chan struct{}

	bodies     [][]byte
	batches    []float64 // deltas per POST
	frameBytes int
}

func (st *streamer) fold() {
	var d *core.EpochDelta
	st.tr.do(st.root, "stream", "core.fold_delta", func() { st.last, d = st.inc.FoldDelta() })
	st.pending = append(st.pending, d)
	st.pendingMax = max(st.pendingMax, len(st.pending))
	select {
	case st.notify <- struct{}{}:
	default:
	}
}

func (st *streamer) hook(core.SubID) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.fold()
}

func (st *streamer) frame(buf []byte, kind byte, detail string, payload any) []byte {
	id := st.tr.begin(st.root, "stream", "wire.encode", detail)
	buf, err := wire.AppendFrame(buf, kind, payload)
	st.tr.end(id)
	if err != nil && st.err == nil {
		st.err = err
	}
	return buf
}

// ship frames and posts one batch (and the seal, when given).
func (st *streamer) ship(ctx context.Context, batch []*core.EpochDelta, seal *wire.Seal) uint64 {
	hello := st.hello
	if len(batch) > 0 {
		hello.BaseEpoch = batch[0].Epoch
	}
	body := st.frame(nil, wire.KindHeader, "hello", &hello)
	for _, d := range batch {
		n := len(body)
		body = st.frame(body, wire.KindDelta, "", d)
		st.frameBytes += len(body) - n
	}
	if seal != nil {
		body = st.frame(body, wire.KindSeal, "seal", seal)
	}
	var status *provenance.IngestStatus
	var err error
	st.tr.do(st.root, "stream", "provenance.ingest_post", func() { status, err = st.c.Ingest(ctx, st.source, body) })
	st.bodies = append(st.bodies, body)
	if len(batch) > 0 {
		st.batches = append(st.batches, float64(len(batch)))
	}
	if err != nil {
		if st.err == nil {
			st.err = err
		}
		return 0
	}
	return status.NextEpoch
}

func (st *streamer) drain(ctx context.Context, final bool) {
	for st.err == nil {
		st.mu.Lock()
		batch := append([]*core.EpochDelta(nil), st.pending[:min(len(st.pending), streamBatch)]...)
		epoch := st.inc.Epoch()
		st.mu.Unlock()
		if len(batch) == 0 {
			if final {
				st.ship(ctx, nil, &wire.Seal{FinalEpoch: epoch})
			}
			return
		}
		next := st.ship(ctx, batch, nil)
		st.mu.Lock()
		for len(st.pending) > 0 && st.pending[0].Epoch < next {
			st.pending = st.pending[1:]
		}
		st.mu.Unlock()
	}
}

func (st *streamer) sender(ctx context.Context) {
	defer close(st.sent)
	for {
		select {
		case <-st.notify:
			st.drain(ctx, false)
		case <-st.done:
			st.drain(ctx, true)
			return
		}
	}
}

// close folds the final epoch, flushes the queue and the seal, and waits
// for the sender.
func (st *streamer) close() error {
	st.tr.do(st.root, "stream", "provenance.stream_close", func() {
		st.mu.Lock()
		st.fold()
		st.mu.Unlock()
		close(st.done)
		<-st.sent
	})
	return st.err
}

// stream is the streamed run with the benchmark's streamer in
// StreamRecorder's place, one watching client, and then two replays of
// the aggregator's side against the bodies the run posted.
func (s *staged) stream(maxSeals int) {
	b, tr := s.b, s.tr
	agg := newAggregator()
	defer agg.ts.Close()
	rt, err := b.newRuntime(b.cfg, threading.ModeInspector, nil)
	if err != nil {
		b.op("staged stream", err)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const source = "bench"
	rc, closeRC := agg.client()
	defer closeRC()
	wc, closeWC := agg.client()
	defer closeWC()
	threads := rt.Graph().Threads()
	if err := bindSource(ctx, rc, source, threads); err != nil {
		b.op("staged stream", err)
		return
	}
	root := tr.begin(-1, "stream", "staged.stream", "")
	st := &streamer{
		tr: tr, root: root, c: rc, source: source,
		hello:  wire.Hello{RunID: source, App: b.sc.App, Threads: threads},
		inc:    core.NewIncrementalAnalyzer(rt.Graph()),
		notify: make(chan struct{}, 1), done: make(chan struct{}), sent: make(chan struct{}),
	}
	go st.sender(ctx)
	clock := newSealClock(b.sc.PaceHz, maxSeals)
	rt.RegisterCommitHook(clock.hook(st.hook))

	var waits, stats, sealLat []float64
	var watchErr error
	watched := make(chan struct{})
	runtime.GC()
	clock.t0 = time.Now()
	go func() {
		defer close(watched)
		sealLat, watchErr = clock.watch(ctx, wc, source, &waits, &stats)
	}()
	err = b.w.Run(rt, b.cfg)
	err = errors.Join(err, st.close())
	wall := tr.end(root)
	<-watched
	err = errors.Join(err, watchErr)
	if err == nil {
		err = agg.checkSource(source, st.inc.Epoch(), st.last, true)
	}
	if err == nil && len(sealLat) != clock.seals {
		err = fmt.Errorf("client saw %d of %d sealed epochs", len(sealLat), clock.seals)
	}
	b.ops(1 + maxSeals)
	if err != nil {
		b.fail(1+maxSeals, "staged stream", err)
		return
	}

	// Replay 1: the same bodies, handed to Server.ServeHTTP directly: the
	// aggregator's handling time without the loopback transport.
	replay := newAggregator()
	defer replay.ts.Close()
	for _, body := range st.bodies {
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest/"+source, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		tr.do(-1, "stream", "provenance.ingest_handle", func() { replay.srv.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK && err == nil {
			err = fmt.Errorf("replayed ingest answered HTTP %d", rec.Code)
		}
	}
	if err == nil {
		err = replay.checkSource(source, st.inc.Epoch(), st.last, true)
	}
	b.op("ingest replay", err)

	// Replay 2: what the handler does, from the exported pieces: parse
	// and decode each frame, apply the delta, fold.
	g := core.NewGraph(threads)
	inc := core.NewIncrementalAnalyzer(g)
	var folded *core.Analysis
	err = nil
	for _, body := range st.bodies {
		for len(body) > 0 && err == nil {
			var kind byte
			var payload []byte
			var n int64
			d := new(core.EpochDelta)
			tr.do(-1, "stream", "wire.decode", func() {
				if kind, payload, n, err = wire.ParseFrame(body, wire.DefaultMaxFrameBytes); err == nil && kind == wire.KindDelta {
					err = wire.Decode(payload, d)
				}
			})
			body = body[min(n, int64(len(body))):]
			if err != nil || kind != wire.KindDelta {
				continue
			}
			tr.do(-1, "stream", "core.apply_delta", func() { err = core.ApplyDelta(g, d) })
			if err == nil {
				tr.do(-1, "stream", "core.apply_fold", func() { folded = inc.Fold() })
			}
		}
	}
	if err == nil {
		err = sameExport("frame replay", folded, st.last)
	}
	b.op("frame replay", err)

	posts := tr.durs("stream", "provenance.ingest_post", "", us)
	encodes := tr.durs("stream", "wire.encode", "", us)
	epochs := float64(st.inc.Epoch())
	s.set("staged.stream_ms", "ms", ms(wall))
	s.set("staged.stream_residual_ms", "ms", ms(tr.self(root)))
	s.set("wire.encode_ms_total", "ms", sum(tr.durs("stream", "wire.encode", "*", ms)))
	s.pct("wire.encode_us_p50", "us", 0.5, encodes)
	s.set("wire.decode_ms_total", "ms", sum(tr.durs("stream", "wire.decode", "", ms)))
	s.set("wire.bytes_per_epoch", "B", float64(st.frameBytes)/epochs)
	s.set("wire.bytes_per_sub", "B", float64(st.frameBytes)/float64(rt.Graph().NumSubs()))
	s.pct("core.apply_delta_us_p50", "us", 0.5, tr.durs("stream", "core.apply_delta", "", us))
	s.pct("core.apply_fold_us_p50", "us", 0.5, tr.durs("stream", "core.apply_fold", "", us))
	s.pct("provenance.ingest_post_us_p50", "us", 0.5, posts)
	s.pct("provenance.ingest_post_us_p99", "us", 0.99, posts)
	s.pct("provenance.ingest_handle_us_p50", "us", 0.5, tr.durs("stream", "provenance.ingest_handle", "", us))
	s.set("provenance.ingest_batch_epochs_mean", "count", sum(st.batches)/float64(max(len(st.batches), 1)))
	s.set("provenance.stream_pending_max", "count", float64(st.pendingMax))
	s.set("provenance.stream_close_ms", "ms", sum(tr.durs("stream", "provenance.stream_close", "", ms)))
	s.pct("provenance.wait_epoch_us_p50", "us", 0.5, waits)
	s.pct("provenance.stats_query_us_p50", "us", 0.5, stats)
	s.pct("provenance.seal_to_query_p50_ms", "ms", 0.5, sealLat)
	s.pct("provenance.seal_to_query_p90_ms", "ms", 0.9, sealLat)
	s.pct("provenance.seal_to_query_p99_ms", "ms", 0.99, sealLat)
	// Only a paced run has a schedule to run late on; a metric that is 0 by
	// definition everywhere else is no metric, so this is an info line.
	if len(clock.late) > 0 {
		s.info["generator_late_p99_ms"] = single("ms", quantile(clock.late, 0.99), len(clock.late))
	}
}

// live is the traced run with a LiveEngine folding behind it, through
// Close.
func (s *staged) live() {
	b := s.b
	rt, err := b.newRuntime(b.cfg, threading.ModeInspector, nil)
	if err != nil {
		b.op("live run", err)
		return
	}
	live := provenance.NewLiveEngine(rt.Graph(), provenance.EngineOptions{})
	rt.RegisterCommitHook(func(core.SubID) { live.Notify() })
	runtime.GC()
	id := s.tr.begin(-1, "live", "provenance.live", "")
	_, err = b.timedRun(rt, b.cfg, live.Close)
	d := s.tr.end(id)
	if err == nil {
		if got, want := live.Engine().Analysis().NumVertices(), rt.Graph().NumSubs(); got != want {
			err = fmt.Errorf("final live epoch covers %d of %d sub-computations", got, want)
		}
	}
	b.op("live run", err)
	s.set("provenance.live_ms", "ms", ms(d))
}

// analyzeToQuery takes analyze-to-query apart, then the read side: open
// and verify, materialise, load, and the index rebuild inside both.
func (s *staged) analyzeToQuery() {
	b, tr := s.b, s.tr
	path := b.scratch("staged-a2q") + ".cpg"
	defer os.Remove(path)
	runtime.GC()
	var a, mapped, loaded *core.Analysis
	var m *cpgfile.Mapped
	var err error
	analyze := tr.do(-1, "a2q", "core.analyze", func() { a = s.rt.Graph().Analyze() })
	encode := tr.do(-1, "a2q", "cpgfile.encode", func() {
		err = writeCPG(path, a, cpgfile.Meta{RunID: b.sc.Name, App: b.sc.App})
	})
	if err != nil {
		b.op("cpgfile write", err)
		return
	}
	info, err := os.Stat(path)
	if err != nil {
		b.op("cpgfile write", err)
		return
	}
	open := tr.do(-1, "a2q", "cpgfile.open_verify", func() {
		if m, err = cpgfile.Open(path); err == nil {
			err = m.VerifyChecksums()
		}
	})
	if err != nil {
		b.op("cpgfile open", err)
		return
	}
	defer m.Close()
	materialize := tr.do(-1, "a2q", "cpgfile.materialize", func() { mapped, _, err = m.Analysis() })
	if err == nil {
		err = sameExport("Mapped.Analysis", mapped, a)
	}
	b.op("cpgfile materialize", err)
	load := tr.do(-1, "a2q", "cpgfile.load", func() { loaded, _, err = cpgfile.Load(path) })
	if err == nil {
		err = sameExport("cpgfile.Load", loaded, a)
	}
	b.op("cpgfile load", err)
	if err != nil {
		return
	}
	syncEdges, dataEdges := loaded.EdgeSections()
	sections := tr.do(-1, "a2q", "core.from_sections", func() {
		_, err = core.NewAnalysisFromSections(loaded.Graph(), loaded.ThreadLens(), loaded.Epoch(), syncEdges, dataEdges)
	})
	b.op("analysis from sections", err)
	s.set("core.analyze_ms", "ms", ms(analyze))
	s.set("cpgfile.encode_ms", "ms", ms(encode))
	s.set("cpgfile.bytes", "B", float64(info.Size()))
	s.set("cpgfile.open_verify_ms", "ms", ms(open))
	s.set("cpgfile.materialize_ms", "ms", ms(materialize))
	s.set("cpgfile.load_ms", "ms", ms(load))
	s.set("core.from_sections_ms", "ms", ms(sections))
}

// serve issues the same requests on three paths, one at a time: straight
// into Engine.Execute, through Store.Query, and over HTTP. The difference
// between the last two is the HTTP and JSON share.
func (s *staged) serve(srv *serving) {
	b, tr := s.b, s.tr
	ctx := context.Background()
	rng := rand.New(rand.NewSource(b.seed))
	perKind := stagedQueries
	if b.quick {
		perKind = 2
	}
	var reqs []request
	for _, kind := range queryKinds {
		for i := 0; i < perKind; i++ {
			reqs = append(reqs, srv.requestOf(rng, kind))
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	tr0 := &http.Transport{}
	defer tr0.CloseIdleConnections()
	client := &provenance.Client{BaseURL: srv.ts.URL, HTTPClient: &http.Client{Transport: tr0}}
	// Two passes where there is a result cache, so that the second meets
	// it.
	passes := 2
	if b.sc.NoCache {
		passes = 1
	}
	for pass := 0; pass < passes; pass++ {
		for _, req := range reqs {
			g := srv.graphs[req.graph]
			var want, got *provenance.Result
			var err error
			id := tr.begin(-1, "serve", "provenance.engine", string(req.q.Kind))
			want, err = g.ref.Execute(ctx, req.q)
			tr.end(id)
			if err == nil {
				tr.do(-1, "serve", "provenance.store_query", func() { got, err = srv.store.Query(ctx, g.id, req.q) })
			}
			if err == nil && !sameResult(got, want) {
				err = fmt.Errorf("%s query on %s through the store differs from Engine.Execute", req.q.Kind, g.id)
			}
			b.op("store query", err)
			tr.do(-1, "serve", "provenance.http_query", func() { got, err = client.Query(ctx, g.id, req.q) })
			if err == nil && !sameResult(got, want) {
				err = fmt.Errorf("%s query on %s over HTTP differs from Engine.Execute", req.q.Kind, g.id)
			}
			b.op("http query", err)
		}
	}
	for _, kind := range queryKinds {
		s.pct("provenance.engine_us_p50."+string(kind), "us", 0.5, tr.durs("serve", "provenance.engine", string(kind), us))
	}
	s.pct("provenance.store_query_us_p50", "us", 0.5, tr.durs("serve", "provenance.store_query", "", us))
	httpLat := tr.durs("serve", "provenance.http_query", "", us)
	s.pct("provenance.http_query_us_p50", "us", 0.5, httpLat)
	s.set("provenance.query_p90_ms", "ms", quantile(httpLat, 0.9)/1e3)
	s.set("provenance.query_p99_ms", "ms", quantile(httpLat, 0.99)/1e3)
	st := srv.store.Stats()
	hits, misses := float64(st.ResultCache.Hits), float64(st.ResultCache.Misses)
	s.set("provenance.result_cache_hit_ratio", "ratio", hits/max(hits+misses, 1))
	s.set("provenance.store_queries", "count", float64(2*passes*len(reqs)))
	s.set("provenance.store_decodes", "count", float64(st.Decodes))
	s.set("provenance.store_evictions", "count", float64(st.EngineEvictions))
	s.set("provenance.store_resident_bytes", "B", float64(st.ResidentBytes))
}
