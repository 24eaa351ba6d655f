package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/journal"
	"github.com/repro/inspector/internal/pt"
	"github.com/repro/inspector/internal/threading"
	"github.com/repro/inspector/internal/wire"
	"github.com/repro/inspector/internal/workloads"
	"github.com/repro/inspector/provenance"
)

// streamBatch is StreamRecorder's default deltas-per-POST; a paced run
// that ends with more than this pending has a growing backlog.
const streamBatch = 64

// bench is one workload's run: the scenario, its generated input, a
// scratch directory, and the count of operations attempted and failed.
type bench struct {
	sc    scenario
	seed  int64
	quick bool
	tmp   string
	w     workloads.Workload
	cfg   workloads.Config

	mu        sync.Mutex
	attempted int
	failed    int
	scratchN  int

	// breakRef, set only by the package's own test, corrupts the reference
	// a served result is compared against, to prove that a mismatch is
	// counted as a failure.
	breakRef bool
}

func newBench(sc scenario, seed int64, quick bool, tmp string) (*bench, error) {
	if quick {
		sc.Size = workloads.Small
		if sc.Files > 2 {
			sc.Files = 2
		}
		if sc.PaceHz > 0 {
			sc.PaceHz = 3000 // a shorter run
		}
	}
	w, err := workloads.Get(sc.App)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	return &bench{
		sc: sc, seed: seed, quick: quick, tmp: tmp, w: w,
		cfg: workloads.Config{Size: sc.Size, Threads: 2, Seed: seed},
	}, nil
}

// ops counts n attempted operations.
func (b *bench) ops(n int) {
	b.mu.Lock()
	b.attempted += n
	b.mu.Unlock()
}

// fail counts n of the attempted operations as failed. The failure is
// printed; it is never skipped.
func (b *bench) fail(n int, what string, err error) {
	b.mu.Lock()
	b.failed += n
	b.mu.Unlock()
	fmt.Fprintf(os.Stderr, "bench: %s: FAILED %s: %v\n", b.sc.Name, what, err)
}

// op counts one operation and its outcome.
func (b *bench) op(what string, err error) {
	b.ops(1)
	if err != nil {
		b.fail(1, what, err)
	}
}

// scratch returns a fresh path under the run's scratch directory.
func (b *bench) scratch(name string) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.scratchN++
	return filepath.Join(b.tmp, fmt.Sprintf("%s-%d", name, b.scratchN))
}

func (b *bench) newRuntime(cfg workloads.Config, mode threading.Mode, wrap func(pt.ByteSink) pt.ByteSink) (*threading.Runtime, error) {
	return threading.NewRuntime(threading.Options{
		AppName:       b.sc.App,
		Mode:          mode,
		MaxThreads:    b.w.MaxThreads(cfg),
		WrapTraceSink: wrap,
	})
}

// timedRun runs the program on rt. finish, when set, is the variant's own
// close step (journal seal, stream flush) and is inside the timing.
func (b *bench) timedRun(rt *threading.Runtime, cfg workloads.Config, finish func() error) (time.Duration, error) {
	t0 := time.Now()
	err := b.w.Run(rt, cfg)
	if err == nil && finish != nil {
		err = finish()
	}
	return time.Since(t0), err
}

// runNative times the pthreads baseline. Unlike every traced variant it
// is not preceded by a collection: it leaves almost no garbage, and a
// collection of the benchmark's own heap (the reference analyses) costs
// several native runs.
func (b *bench) runNative() (time.Duration, error) {
	rt, err := b.newRuntime(b.cfg, threading.ModeNative, nil)
	if err != nil {
		return 0, err
	}
	return b.timedRun(rt, b.cfg, nil)
}

// runRecord times a traced run with default options. The program's own
// self-check is part of every run; a full run also replays the recording
// (checkRecording).
func (b *bench) runRecord(cfg workloads.Config, full bool) (*threading.Runtime, time.Duration, error) {
	rt, err := b.newRuntime(cfg, threading.ModeInspector, nil)
	if err != nil {
		return nil, 0, err
	}
	// A collection first, here and before every other traced variant, so
	// that one rep's garbage is not charged to the next.
	runtime.GC()
	d, err := b.timedRun(rt, cfg, nil)
	if err == nil && full {
		err = checkRecording(rt)
	}
	return rt, d, err
}

// checkRecording decodes the PT traces back to every branch the report
// counted and verifies the CPG.
func checkRecording(rt *threading.Runtime) error {
	counts, err := rt.DecodeTraces()
	if err != nil {
		return err
	}
	var decoded uint64
	for _, n := range counts {
		decoded += uint64(n)
	}
	if want := rt.LastReport().Branches; decoded != want {
		return fmt.Errorf("decoded %d branches, report counted %d", decoded, want)
	}
	if err := rt.Graph().Analyze().Verify(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	return nil
}

// exportHash digests an analysis's deterministic export, the
// byte-identity surface recovery and the aggregator are held to.
func exportHash(a *core.Analysis) ([sha256.Size]byte, error) {
	h := sha256.New()
	err := a.ExportJSON(h)
	return [sha256.Size]byte(h.Sum(nil)), err
}

func sameExport(what string, got, want *core.Analysis) error {
	if got == nil || want == nil {
		return fmt.Errorf("%s: no analysis to compare", what)
	}
	g, err := exportHash(got)
	if err != nil {
		return err
	}
	w, err := exportHash(want)
	if err != nil {
		return err
	}
	if g != w {
		return fmt.Errorf("%s: export differs from the recorder's own fold", what)
	}
	return nil
}

func dirBytes(dir string) (int64, int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		total += info.Size()
	}
	return total, len(entries), nil
}

// runJournal times a traced run journaled the way inspector-run -journal
// does it (flush policy none: fsync cost is the disk's, not ours), through
// the sealed journal. A full run then recovers the journal and holds the
// result to the recorder's own last fold.
func (b *bench) runJournal(full bool) (time.Duration, int64, error) {
	rt, err := b.newRuntime(b.cfg, threading.ModeInspector, nil)
	if err != nil {
		return 0, 0, err
	}
	dir := b.scratch("journal")
	defer os.RemoveAll(dir)
	w, err := journal.Create(journal.Options{
		Dir: dir, Threads: rt.Graph().Threads(), App: b.sc.App, Fsync: journal.PolicyNone,
	})
	if err != nil {
		return 0, 0, err
	}
	jrec := journal.NewRecorder(rt.Graph(), w, 1)
	var last *core.Analysis
	jrec.OnEpoch = func(a *core.Analysis, _ *core.EpochDelta) { last = a }
	rt.RegisterCommitHook(jrec.CommitHook())
	runtime.GC()
	d, err := b.timedRun(rt, b.cfg, jrec.Close)
	if err != nil {
		return 0, 0, err
	}
	size, _, err := dirBytes(dir)
	if err != nil || !full {
		return d, size, err
	}
	return d, size, checkJournal(dir, jrec.Epoch(), last)
}

// checkJournal recovers the journal in dir and holds it to the recorder:
// sealed, untorn, at the recorder's final epoch, byte-identical in export.
func checkJournal(dir string, epoch uint64, own *core.Analysis) error {
	rec, err := journal.Recover(dir, journal.RecoverOptions{})
	if err != nil {
		return err
	}
	if !rec.Sealed || rec.Torn != nil || rec.Epoch != epoch {
		return fmt.Errorf("recovered epoch %d sealed=%v torn=%v, recorder sealed epoch %d",
			rec.Epoch, rec.Sealed, rec.Torn, epoch)
	}
	return sameExport("journal.Recover", rec.Analysis, own)
}

// aggregator is a loopback -ingest server.
type aggregator struct {
	hub *provenance.IngestHub
	srv *provenance.Server
	ts  *httptest.Server
}

func newAggregator() *aggregator {
	hub := provenance.NewIngestHub(provenance.IngestOptions{})
	srv := provenance.NewServer(nil, provenance.ServerOptions{Ingest: hub})
	return &aggregator{hub: hub, srv: srv, ts: httptest.NewServer(srv)}
}

// client returns a client with its own connection pool, so a watcher's
// long-poll never queues behind the recorder's uploads.
func (a *aggregator) client() (*provenance.Client, func()) {
	tr := &http.Transport{MaxIdleConnsPerHost: 2}
	return &provenance.Client{
		BaseURL:    a.ts.URL,
		HTTPClient: &http.Client{Transport: tr},
		MaxRetries: 8,
	}, tr.CloseIdleConnections
}

// bindSource creates the source on the aggregator with an empty hello, so
// the watcher's first long-poll finds it.
func bindSource(ctx context.Context, c *provenance.Client, source string, threads int) error {
	frames, err := provenance.EncodeFrames(wire.Hello{RunID: source, Threads: threads}, nil, nil)
	if err != nil {
		return err
	}
	_, err = c.Ingest(ctx, source, frames)
	return err
}

// checkSource holds the aggregator's copy of a finished stream to the
// recorder: sealed at the recorder's final epoch (no epoch dropped) and,
// on a full check, byte-identical in export to the recorder's own fold.
func (a *aggregator) checkSource(source string, epoch uint64, own *core.Analysis, full bool) error {
	src, ok := a.hub.Source(source)
	if !ok {
		return fmt.Errorf("aggregator has no source %s", source)
	}
	st := src.Status()
	if !st.Sealed || st.Degraded || st.NextEpoch != epoch+1 {
		return fmt.Errorf("aggregator at next epoch %d sealed=%v degraded=%v, recorder folded %d epochs",
			st.NextEpoch, st.Sealed, st.Degraded, epoch)
	}
	if !full {
		return nil
	}
	return sameExport("aggregator", src.Engine().Analysis(), own)
}

// sealClock is the open-loop schedule of a streamed run and the record of
// when each epoch was due. Seal i (1-based) becomes epoch i because the
// clock's hook serialises the recorder's hook behind it.
type sealClock struct {
	period time.Duration // 0: unpaced, an epoch is due the moment it seals
	t0     time.Time

	mu    sync.Mutex
	seals int
	late  []float64 // ms the generator ran behind schedule, per seal

	// due[i] is epoch i's due time in ns since t0 (0: not sealed yet). The
	// watcher reads it while the recording threads write it.
	due []atomic.Int64
}

func newSealClock(paceHz, maxSeals int) *sealClock {
	c := &sealClock{due: make([]atomic.Int64, maxSeals+1)}
	if paceHz > 0 {
		c.period = time.Second / time.Duration(paceHz)
	}
	return c
}

// hook wraps the recorder's commit hook with the schedule.
func (c *sealClock) hook(next func(core.SubID)) func(core.SubID) {
	return func(id core.SubID) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.seals++
		now := time.Since(c.t0)
		due := now
		if c.period > 0 {
			due = time.Duration(c.seals) * c.period
			if now < due {
				time.Sleep(due - now)
				now = time.Since(c.t0)
			}
			c.late = append(c.late, ms(now-due))
		}
		if c.seals < len(c.due) {
			c.due[c.seals].Store(int64(due) + 1) // +1 keeps a due time of exactly t0 distinct from "unset"
		}
		next(id)
	}
}

// watch is the aggregator's one client: it long-polls for the next epoch,
// asks for stats, and charges every epoch the answer covers with the time
// since that epoch was due. It returns when the source closes.
func (c *sealClock) watch(ctx context.Context, wc *provenance.Client, source string, waits, stats *[]float64) ([]float64, error) {
	var lat []float64
	next := uint64(1)
	for {
		t0 := time.Now()
		st, err := wc.WaitEpoch(ctx, source, next, time.Second)
		if err != nil {
			return lat, err
		}
		if st.Epoch < next {
			if st.Closed {
				return lat, nil
			}
			continue
		}
		t1 := time.Now()
		res, err := wc.Stats(ctx, source)
		if err != nil {
			return lat, err
		}
		done := time.Now()
		if waits != nil {
			*waits = append(*waits, us(t1.Sub(t0)))
			*stats = append(*stats, us(done.Sub(t1)))
		}
		for e := next; e <= res.Epoch && e < uint64(len(c.due)); e++ {
			if due := c.due[e].Load(); due != 0 {
				lat = append(lat, ms(done.Sub(c.t0)-time.Duration(due-1)))
			}
		}
		next = res.Epoch + 1
	}
}

// streamResult is one streamed run.
type streamResult struct {
	wall    time.Duration
	sealLat []float64 // ms from due to first answered Stats, per epoch
	late    []float64 // ms of generator lateness, per seal (paced only)
}

// runStream times a traced run streamed by provenance.StreamRecorder to a
// loopback aggregator, through Close (seal acknowledged), while one client
// follows the epochs. It then checks the aggregator against the recorder
// (checkSource) and that the client saw every sealed epoch.
func (b *bench) runStream(paceHz, maxSeals int, full bool) (streamResult, error) {
	var res streamResult
	agg := newAggregator()
	defer agg.ts.Close()
	rt, err := b.newRuntime(b.cfg, threading.ModeInspector, nil)
	if err != nil {
		return res, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const source = "bench"
	rc, closeRC := agg.client()
	defer closeRC()
	wc, closeWC := agg.client()
	defer closeWC()
	if err := bindSource(ctx, rc, source, rt.Graph().Threads()); err != nil {
		return res, err
	}
	srec, err := provenance.NewStreamRecorder(rt.Graph(), rc, provenance.StreamOptions{
		Source: source, RunID: source, App: b.sc.App,
	})
	if err != nil {
		return res, err
	}
	clock := newSealClock(paceHz, maxSeals)
	rt.RegisterCommitHook(clock.hook(srec.CommitHook()))

	var watchErr error
	watched := make(chan struct{})
	runtime.GC()
	clock.t0 = time.Now()
	go func() {
		defer close(watched)
		res.sealLat, watchErr = clock.watch(ctx, wc, source, nil, nil)
	}()
	err = b.w.Run(rt, b.cfg)
	pending := srec.Pending() // deltas still queued when the program returned
	if cerr := srec.Close(ctx); err == nil {
		err = cerr
	}
	res.wall = time.Since(clock.t0)
	<-watched
	res.late = clock.late
	if err = errors.Join(err, watchErr); err != nil {
		return res, err
	}
	if err := agg.checkSource(source, srec.Epoch(), srec.Analysis(), full); err != nil {
		return res, err
	}
	if len(res.sealLat) != clock.seals {
		return res, fmt.Errorf("client saw %d of %d sealed epochs", len(res.sealLat), clock.seals)
	}
	// The quick path (the package's test) exercises the pacing, not the
	// box's speed: under the race detector any rate is above the knee.
	if paceHz > 0 && !b.quick && pending > streamBatch {
		return res, fmt.Errorf("backlog growing: %d epochs pending at end of a %d/s paced run", pending, paceHz)
	}
	return res, nil
}

// writeCPG writes an analysis as a .cpg file with cpgfile.Encode and no
// fsync: cpgfile.Write's temp+fsync+rename would put the disk's latency
// into setup_s.
func writeCPG(path string, a *core.Analysis, meta cpgfile.Meta) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := cpgfile.Encode(f, a, meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// lastSub names the final sub-computation of thread 0, the slice target
// analyze-to-query asks about: its ancestors span the run.
func lastSub(a *core.Analysis) string {
	return core.SubID{Thread: 0, Alpha: uint64(a.ThreadLens()[0] - 1)}.String()
}

// analyzeToQuery times what a finished recording costs before its first
// answer: Graph.Analyze, the .cpg encoding, and one slice by
// Engine.Execute. The encoding goes to memory: writing 8 MB to this box's
// disk took anywhere from 5 to 150 ms with or without cpgfile.Write's
// fsync, which is the disk's latency, not the pipeline's (the journal runs
// under flush policy none for the same reason). A full run then writes the
// bytes out, loads the file back and holds the same slice to that answer.
func (b *bench) analyzeToQuery(rt *threading.Runtime, full bool) (time.Duration, int64, error) {
	ctx := context.Background()
	var file bytes.Buffer
	runtime.GC()
	t0 := time.Now()
	a := rt.Graph().Analyze()
	if err := cpgfile.Encode(&file, a, cpgfile.Meta{RunID: b.sc.Name, App: b.sc.App}); err != nil {
		return 0, 0, err
	}
	q := provenance.Query{Kind: provenance.KindSlice, Target: lastSub(a)}
	got, err := provenance.NewEngine(a, provenance.EngineOptions{}).Execute(ctx, q)
	d := time.Since(t0)
	size := int64(file.Len())
	if err != nil || !full {
		return d, size, err
	}
	path := b.scratch("a2q") + ".cpg"
	defer os.Remove(path)
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		return 0, 0, err
	}
	loaded, _, err := cpgfile.Load(path)
	if err != nil {
		return 0, 0, err
	}
	want, err := provenance.NewEngine(loaded, provenance.EngineOptions{}).Execute(ctx, q)
	if err != nil {
		return 0, 0, err
	}
	if !sameResult(got, want) {
		return 0, 0, fmt.Errorf("slice of %s differs between the analysis and its .cpg file", q.Target)
	}
	return d, size, nil
}
