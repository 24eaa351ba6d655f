// Command inspector-run executes one of the twelve benchmark workloads
// under INSPECTOR (or natively) and reports the run: timing, work, fault
// and trace statistics, and optionally the recorded Concurrent Provenance
// Graph as a columnar .cpg file (what cpg-query and inspector-serve
// read), or rendered as JSON or Graphviz DOT.
//
// It is the equivalent of the paper's LD_PRELOAD deployment: the same
// program runs unmodified in either mode, and in INSPECTOR mode the CPG
// and the per-process PT traces fall out as artifacts.
//
// Usage:
//
//	inspector-run -app histogram [-native] [-threads 4] [-size medium]
//	              [-cpg out.cpg] [-dot out.dot] [-json out.json]
//	              [-decode] [-verify] [-live-stats]
//	              [-journal DIR] [-stream URL] [-epoch-every 1] [-seed 1]
//
// -live-stats turns on the live analysis pipeline for the run: the CPG
// is folded into queryable epochs while the workload executes, progress
// lines ("live: epoch N ...") stream during execution, and the final
// line summarizes what the online analysis saw — the same machinery
// inspector-serve -live serves over HTTP.
//
// -faults executes the run under a deterministic fault-injection
// schedule (internal/faultinject): "aux-loss" truncates PT sink writes
// like an overrunning AUX ring, "panic" crashes the workload at a commit
// boundary, "slow-fold" delays the epoch folds from inside the fold
// workers (-fold-workers sets the fan-out). The run completes
// (artifacts are still exported), the report names the faults that
// fired, and the recorded CPG carries its trace gaps and completeness —
// the same schedule reproduces the same faults run after run. The
// "crash" point SIGKILLs the process outright at a commit boundary —
// nothing is exported; pair it with -journal and inspector-recover.
//
// -journal DIR makes the recording crash-durable: every sealed epoch is
// appended to a write-ahead journal, synchronously at the commit
// boundary, under the fsync policy of -journal-fsync. After a crash,
// inspector-recover replays the journal up to the last durable epoch.
//
// -stream URL attaches the run to a provenance aggregator
// (inspector-serve -ingest): sealed epochs fold into deltas on the
// commit path and upload asynchronously, so the aggregator serves the
// run's live CPG remotely while it executes. The run id is
// deterministic (app-tN-sSEED) and shared with -journal, so after a
// recorder crash `inspector-recover -stream URL` re-feeds the journal
// and the aggregator converges on the identical graph.
//
// However many of -journal, -stream and -live-stats are on, the run
// folds each epoch once, every -epoch-every sealed sub-computations:
// journal record k, wire frame k and live epoch k are the same cut.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"syscall"
	"time"

	"github.com/repro/inspector/internal/atomicio"
	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/faultinject"
	"github.com/repro/inspector/internal/journal"
	"github.com/repro/inspector/internal/threading"
	"github.com/repro/inspector/internal/workloads"
	"github.com/repro/inspector/provenance"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "inspector-run:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("inspector-run", flag.ContinueOnError)
	app := fs.String("app", "", "workload to run (see -list)")
	list := fs.Bool("list", false, "list available workloads")
	native := fs.Bool("native", false, "run the pthreads baseline instead of INSPECTOR")
	threads := fs.Int("threads", 4, "worker thread count")
	sizeFlag := fs.String("size", "medium", "input size: small|medium|large")
	seed := fs.Int64("seed", 1, "input generation seed")
	cpgOut := fs.String("cpg", "", "write the analyzed CPG in the columnar .cpg format (for cpg-query and inspector-serve) to this file")
	dotOut := fs.String("dot", "", "write the CPG (Graphviz DOT) to this file")
	jsonOut := fs.String("json", "", "write the CPG (JSON) to this file")
	perfOut := fs.String("perfdata", "", "write the perf session (for pt-dump) to this file")
	imageOut := fs.String("imageout", "", "write the image sidecar (for pt-dump -events) to this file")
	decode := fs.Bool("decode", false, "decode all PT traces and report event counts")
	verify := fs.Bool("verify", false, "check the recorded CPG's structural invariants before exporting")
	liveStats := fs.Bool("live-stats", false, "fold the CPG incrementally during the run and stream per-epoch stats")
	foldWorkers := fs.Int("fold-workers", 0, "worker cap for epoch fold derivation (0 = GOMAXPROCS, 1 = serial)")
	faults := fs.String("faults", "", `deterministic fault-injection schedule, e.g. "aux-loss:after=20,every=7;panic:count=1"`)
	journalDir := fs.String("journal", "", "write-ahead journal directory: every sealed epoch is appended crash-durably; recover with inspector-recover")
	journalFsync := fs.String("journal-fsync", "always", `journal fsync policy: always|interval[:N]|none`)
	streamURL := fs.String("stream", "", "stream sealed epochs to a provenance aggregator (inspector-serve -ingest) at this base URL")
	streamID := fs.String("stream-id", "", "aggregator source name (default: the run id, app-tN-sSEED)")
	epochEvery := fs.Uint64("epoch-every", 1, "with -journal or -stream: fold one epoch each N sealed sub-computations (journal, stream and live stats share it)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, name := range workloads.Names() {
			fmt.Println(name)
		}
		return nil
	}
	if *app == "" {
		return fmt.Errorf("missing -app (use -list to see workloads)")
	}
	if *foldWorkers < 0 {
		return fmt.Errorf("-fold-workers %d is negative (0 means GOMAXPROCS)", *foldWorkers)
	}
	w, err := workloads.Get(*app)
	if err != nil {
		return err
	}
	var size workloads.Size
	switch *sizeFlag {
	case "small":
		size = workloads.Small
	case "medium":
		size = workloads.Medium
	case "large":
		size = workloads.Large
	default:
		return fmt.Errorf("unknown size %q", *sizeFlag)
	}
	mode := threading.ModeInspector
	if *native {
		mode = threading.ModeNative
	}
	cfg := workloads.Config{Size: size, Threads: *threads, Seed: *seed}
	topts := threading.Options{
		AppName:    *app,
		Mode:       mode,
		MaxThreads: w.MaxThreads(cfg),
	}
	var injector *faultinject.Injector
	if *faults != "" {
		if mode != threading.ModeInspector {
			return fmt.Errorf("-faults injects into the recording pipeline; it needs INSPECTOR mode (drop -native)")
		}
		sched, err := faultinject.Parse(*faults)
		if err != nil {
			return err
		}
		injector = faultinject.New(sched)
		topts.WrapTraceSink = injector.WrapSink
	}
	rt, err := threading.NewRuntime(topts)
	if err != nil {
		return err
	}
	// The run identity is deterministic so a SIGKILLed streaming run can
	// be resumed: the journal header and the aggregator's source binding
	// name the same run, and inspector-recover -stream re-feeds under it.
	runID := fmt.Sprintf("%s-t%d-s%d", *app, *threads, *seed)
	eopts := provenance.EngineOptions{FoldWorkers: *foldWorkers}
	if injector != nil {
		// The slow-fold point fires inside the fold's derivation workers
		// (one hit per worker per fold), so an injected delay stalls the
		// parallel path itself, not just the fold entry.
		eopts.FoldWorkerHook = func(int) {
			if injector.Fire(faultinject.SlowFold) {
				time.Sleep(time.Millisecond)
			}
		}
	}
	if mode != threading.ModeInspector && (*journalDir != "" || *streamURL != "") {
		return fmt.Errorf("-journal and -stream record the provenance pipeline; they need INSPECTOR mode (drop -native)")
	}
	if mode != threading.ModeInspector && (*cpgOut != "" || *jsonOut != "" || *dotOut != "") {
		return fmt.Errorf("-cpg, -json and -dot export the recorded CPG; they need INSPECTOR mode (drop -native)")
	}
	// One fold per epoch feeds every consumer the flags ask for, listed
	// journal, live feed, stream: an epoch is durable before it is
	// observable, here or on the aggregator.
	var sinks []epoch.Sink
	if *journalDir != "" {
		policy, syncEvery, err := journal.ParsePolicy(*journalFsync)
		if err != nil {
			return err
		}
		jopts := journal.Options{
			Dir:       *journalDir,
			Threads:   rt.Graph().Threads(),
			App:       *app,
			Fsync:     policy,
			SyncEvery: syncEvery,
		}
		if *streamURL != "" {
			jopts.RunID = runID
		}
		jw, err := journal.Create(jopts)
		if err != nil {
			return err
		}
		sinks = append(sinks, jw)
	}
	var feed *provenance.Feed
	if *liveStats && (*journalDir != "" || *streamURL != "") {
		feed = provenance.NewFeed(rt.Graph().Threads(), eopts)
		sinks = append(sinks, feed.Sink())
	}
	var up *provenance.Uploader
	streamSource := *streamID
	if *streamURL != "" {
		if streamSource == "" {
			streamSource = runID
		}
		var err error
		up, err = provenance.NewUploader(&provenance.Client{
			BaseURL:    *streamURL,
			MaxRetries: 8,
		}, rt.Graph().Threads(), provenance.StreamOptions{
			Source: streamSource,
			RunID:  runID,
			App:    *app,
		})
		if err != nil {
			return err
		}
		sinks = append(sinks, up)
	}
	// A journal or stream keeps the fold on the sealing thread (the
	// durability contract: the epoch sealed by a crashing commit is
	// already appended and queued). Live stats alone fold off it.
	var drv *epoch.Driver
	closeEpochs := func() error { return nil }
	switch {
	case len(sinks) > 0:
		drv = epoch.NewDriver(rt.Graph(), epoch.Options{
			Every:       *epochEvery,
			FoldWorkers: *foldWorkers,
			WorkerHook:  eopts.FoldWorkerHook,
		}, sinks...)
		// Registered before the fault hooks on purpose: commit hooks run
		// in registration order, so by the time an injected crash kills
		// the process, the epoch sealed by this very commit is already
		// on the journal — the kill-recover sweep's determinism anchor.
		rt.RegisterCommitHook(drv.CommitHook())
		closeEpochs = drv.Close
	case *liveStats && mode == threading.ModeInspector:
		live := provenance.NewLiveEngine(rt.Graph(), eopts)
		rt.RegisterCommitHook(func(core.SubID) { live.Notify() })
		feed, closeEpochs = live.Feed, live.Close
	}
	if injector != nil {
		rt.RegisterCommitHook(func(id core.SubID) {
			if injector.Fire(faultinject.Crash) {
				// A real crash, not a panic: no deferred handlers, no
				// exports, no journal seal. Only what the journal
				// already holds survives.
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
				select {} // unreachable: wait for the signal
			}
			if injector.Fire(faultinject.WorkloadPanic) {
				panic(fmt.Sprintf("injected workload panic after %v", id))
			}
		})
	}
	stopWatch := func() {}
	if feed != nil {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		watcherDone := make(chan struct{})
		stopWatch = func() { cancel(); <-watcherDone }
		go func() {
			defer close(watcherDone)
			watchEpochs(ctx, feed)
		}()
	}
	// Under -faults an erroring run (an injected panic) still reports and
	// exports: the partial CPG with its gap marks is precisely the
	// artifact a degraded run exists to produce. The error surfaces at
	// the end, so the exit code still says the run did not complete.
	runErr := w.Run(rt, cfg)
	if runErr != nil {
		if injector == nil {
			return runErr
		}
		fmt.Printf("workload error:   %v (continuing under -faults)\n", runErr)
	}
	// The final fold, then each sink's finish (journal seal, stream seal).
	cerr := closeEpochs()
	// Stop the sampler before the summary so progress lines cannot
	// interleave with the report.
	stopWatch()
	if cerr != nil {
		return cerr
	}
	if feed != nil {
		info := feed.Info()
		fmt.Printf("live analysis:    %d epochs folded; final epoch saw %d sub-computations, %d edges\n",
			info.Epoch, info.SubComputations, info.Edges)
	}
	if *journalDir != "" {
		fmt.Printf("journal:          %d epochs sealed in %s\n", drv.Epoch(), *journalDir)
	}
	if up != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		serr := up.Wait(ctx)
		cancel()
		switch {
		case serr == nil:
			fmt.Printf("stream:           %d epochs shipped to %s (source %s)\n",
				drv.Epoch(), *streamURL, streamSource)
		case *journalDir != "":
			// The journal holds every epoch; the aggregator catches up via
			// inspector-recover -stream. A dead sink degrades the stream,
			// not the run.
			fmt.Printf("stream:           %v (journal %s holds every epoch; re-feed with inspector-recover -stream)\n",
				serr, *journalDir)
		default:
			return fmt.Errorf("stream: %w", serr)
		}
	}
	rep := rt.LastReport()

	fmt.Printf("app:              %s (%v, %d threads, %v input)\n", rep.App, rep.Mode, *threads, size)
	fmt.Printf("time:             %v (%.3f ms simulated)\n", rep.Time, rep.Time.Seconds()*1e3)
	fmt.Printf("work:             %v\n", rep.Work)
	fmt.Printf("instructions:     %d loads, %d stores, %d branches, %d alu\n",
		rep.Loads, rep.Stores, rep.Branches, rep.ALU)
	if mode == threading.ModeInspector {
		fmt.Printf("page faults:      %d (%d read, %d write; %.3g/sec)\n",
			rep.Faults(), rep.ReadFaults, rep.WriteFaults, rep.FaultsPerSec())
		fmt.Printf("commits:          %d pages, %d bytes published, %d twins\n",
			rep.CommittedPages, rep.CommittedBytes, rep.TwinCopies)
		fmt.Printf("pt trace:         %d bytes (%d lost), %.2f MB/s, %d TNT bits, %d TIPs, %d FUPs\n",
			rep.TraceBytes, rep.LostTraceBytes, rep.TraceBandwidthMBps(),
			rep.PT.TNTBits, rep.PT.TIPs, rep.PT.FUPs)
		fmt.Printf("processes:        %d spawned\n", rep.ProcessesSpawned)
		fmt.Printf("CPG:              %d sub-computations, %d sync edges\n",
			rep.SubComputations, len(rt.Graph().SyncEdges()))
		fmt.Printf("breakdown:        app=%v threading=%v pt=%v\n",
			rep.AppCycles, rep.ThreadingCycles, rep.PTCycles)
		if comp := rt.Graph().Completeness(); !comp.Complete {
			fmt.Printf("trace gaps:       %d intervals on %d threads, %d bytes lost (CPG marked degraded)\n",
				comp.GapIntervals, comp.GapThreads, comp.LostBytes)
		}
	}
	if injector != nil {
		if s := injector.Summary(); s != "" {
			fmt.Printf("faults fired:     %s\n", s)
		} else {
			fmt.Println("faults fired:     none (schedule never triggered)")
		}
	}

	// One batch analysis serves both the check and the file.
	var analysis *core.Analysis
	if mode == threading.ModeInspector && (*verify || *cpgOut != "") {
		analysis = rt.Graph().Analyze()
	}
	if *verify && analysis != nil {
		switch err := analysis.Verify(); {
		case err == nil:
			fmt.Println("CPG verified:    happens-before DAG, edge pages contained in recorded sets")
		case errors.Is(err, core.ErrUnverifiable):
			// Not a violation: the invariant's witnesses fall inside a
			// trace gap, so the graph is degraded, not wrong.
			fmt.Printf("CPG unverifiable: %v\n", err)
		default:
			return fmt.Errorf("CPG verification failed: %w", err)
		}
	}

	if *decode && mode == threading.ModeInspector {
		counts, err := rt.DecodeTraces()
		if err != nil {
			return fmt.Errorf("decode traces: %w", err)
		}
		total := 0
		for _, n := range counts {
			total += n
		}
		fmt.Printf("decoded branches: %d events across %d traces\n", total, len(counts))
	}

	if *cpgOut != "" {
		meta := cpgfile.Meta{RunID: runID, App: *app}
		err := writeFile(*cpgOut, func(w io.Writer) error {
			return cpgfile.Encode(w, analysis, meta)
		})
		if err != nil {
			return err
		}
		fmt.Printf("wrote CPG:        %s\n", *cpgOut)
	}
	if *dotOut != "" {
		if err := writeFile(*dotOut, rt.Graph().WriteDOT); err != nil {
			return err
		}
		fmt.Printf("wrote DOT:        %s\n", *dotOut)
	}
	if *jsonOut != "" {
		if err := writeFile(*jsonOut, rt.Graph().EncodeJSON); err != nil {
			return err
		}
		fmt.Printf("wrote JSON:       %s\n", *jsonOut)
	}
	if *perfOut != "" && mode == threading.ModeInspector {
		if err := writeFile(*perfOut, rt.Session().Serialize); err != nil {
			return err
		}
		fmt.Printf("wrote perf data:  %s\n", *perfOut)
	}
	if *imageOut != "" && mode == threading.ModeInspector {
		err := writeFile(*imageOut, func(w io.Writer) error {
			_, err := rt.Image().WriteTo(w)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("wrote image:      %s\n", *imageOut)
	}
	return runErr
}

// watchEpochs streams live-analysis progress while the workload runs.
// It samples rather than subscribing per epoch: folds can seal hundreds
// of epochs per second, and one line per sample keeps the output
// readable for any workload size.
func watchEpochs(ctx context.Context, live *provenance.Feed) {
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	var last uint64
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		info := live.Info()
		if info.Epoch == last {
			continue
		}
		last = info.Epoch
		fmt.Printf("live: epoch %d: %d sub-computations, %d edges (queryable mid-run)\n",
			info.Epoch, info.SubComputations, info.Edges)
	}
}

// writeFile exports one artifact crash-atomically: a run killed or
// powered off mid-export leaves the previous file (or none), never a
// torn one.
func writeFile(path string, enc func(w io.Writer) error) error {
	return atomicio.WriteFile(path, enc)
}
