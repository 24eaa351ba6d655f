// Command inspector-run executes one of the twelve benchmark workloads
// under INSPECTOR (or natively) and reports the run: timing, work, fault
// and trace statistics, and optionally the recorded Concurrent Provenance
// Graph as a columnar .cpg file (what cpg-query and inspector-serve
// read), or rendered as JSON or Graphviz DOT.
//
// It is the equivalent of the paper's LD_PRELOAD deployment: the same
// program runs unmodified in either mode, and in INSPECTOR mode the CPG
// and the per-process PT traces fall out as artifacts. Like that
// launcher it is a thin front end to the library: the recording flags
// are bound to inspector.Options fields, inspector.New assembles the
// pipeline, and the workload runs on the runtime it returns.
//
// Usage:
//
//	inspector-run -app histogram [-native] [-threads 4] [-size medium]
//	              [-cpg out.cpg] [-dot out.dot] [-json out.json]
//	              [-perfdata out.perf] [-imageout out.img]
//	              [-decode] [-verify] [-live-stats] [-faults SCHEDULE]
//	              [-journal DIR] [-journal-fsync always] [-epoch-every 1]
//	              [-stream URL] [-stream-id NAME] [-seed 1]
//
// -live-stats turns on the live analysis pipeline for the run: a
// follower folds the cut epochs into queryable analyses off the
// recording threads while the workload executes, progress lines
// ("live: epoch N ...") stream during execution, and the final line
// summarizes what the online analysis saw. To query the run over
// HTTP while it records, -stream it to an inspector-serve -ingest.
//
// -faults executes the run under a deterministic fault-injection
// schedule (internal/faultinject): "aux-loss" truncates PT sink writes
// like an overrunning AUX ring, "panic" crashes the workload at a commit
// boundary, "slow-fold" delays the follower's folds from inside the fold
// workers, once per epoch each fold covers (only -live-stats folds while
// the run records, so without it there is nothing to slow; once the
// follower's queue is full the slowed folds pace the run), "slow-seal"
// sleeps 1 ms at a commit boundary ("slow-seal:every=1" stretches
// canneal medium at 2 threads to ~3 s, long enough to query its stream
// mid-run). The run completes
// (artifacts are still exported), the report names the faults that
// fired, and the recorded CPG carries its trace gaps and completeness —
// the same schedule reproduces the same faults run after run. The
// "crash" point SIGKILLs the process outright at a commit boundary —
// nothing is exported; pair it with -journal and inspector-recover.
// These five are the points a recording fires; a schedule naming any
// other internal/faultinject point (the journal, network and .cpg
// writer points, which only wrappers in the chaos tests fire)
// is refused before the run.
//
// -journal DIR makes the recording crash-durable: every sealed epoch is
// appended to a write-ahead journal, synchronously at the commit
// boundary, under the fsync policy of -journal-fsync: always by
// default, where the library's zero value (an empty
// inspector.Options.JournalFsync) is interval. After a crash,
// inspector-recover replays the journal up to the last durable epoch.
//
// -stream URL attaches the run to a provenance aggregator
// (inspector-serve -ingest): sealed epochs are cut into deltas on the
// commit path and upload asynchronously, so the aggregator serves the
// run's live CPG remotely while it executes. The run id is
// deterministic (app-tN-sSEED) and shared with -journal, so after a
// recorder crash `inspector-recover -stream URL` re-feeds the journal
// and the aggregator converges on the identical graph.
//
// However many of -journal, -stream and -live-stats are on, the run
// cuts each epoch once, every -epoch-every sealed sub-computations, and
// folds only for -live-stats, off the recording threads: journal record
// k, wire frame k and live epoch k are the same cut. The follower and
// the aggregator fold once per batch of deltas and publish the epoch
// of its last delta, so a watcher sees a subset of these epochs.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"github.com/repro/inspector"
	"github.com/repro/inspector/internal/atomicio"
	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/faultinject"
	"github.com/repro/inspector/internal/workloads"
	"github.com/repro/inspector/provenance"
)

// runFaults are the fault points inspector.New fires in a recording; a
// schedule naming any other would run fault-free.
var runFaults = []faultinject.Point{
	faultinject.AuxLoss, faultinject.WorkloadPanic, faultinject.SlowFold,
	faultinject.SlowSeal, faultinject.Crash,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "inspector-run:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	// The recording flags fill the library's Options directly:
	// inspector.New is the one assembly of the pipeline, and this command
	// is a front end to it.
	var opts inspector.Options
	var cfg workloads.Config
	fs := flag.NewFlagSet("inspector-run", flag.ContinueOnError)
	fs.StringVar(&opts.AppName, "app", "", "workload to run (see -list)")
	list := fs.Bool("list", false, "list available workloads")
	fs.BoolVar(&opts.Native, "native", false, "run the pthreads baseline instead of INSPECTOR")
	fs.IntVar(&cfg.Threads, "threads", 4, "worker thread count")
	sizeFlag := fs.String("size", "medium", "input size: small|medium|large")
	fs.Int64Var(&cfg.Seed, "seed", 1, "input generation seed")
	cpgOut := fs.String("cpg", "", "write the analyzed CPG in the columnar .cpg format (for cpg-query and inspector-serve) to this file")
	dotOut := fs.String("dot", "", "write the CPG (Graphviz DOT) to this file")
	jsonOut := fs.String("json", "", "write the CPG (JSON) to this file")
	perfOut := fs.String("perfdata", "", "write the perf session (for pt-dump) to this file")
	imageOut := fs.String("imageout", "", "write the image sidecar (for pt-dump -events) to this file")
	decode := fs.Bool("decode", false, "decode all PT traces and report event counts")
	verify := fs.Bool("verify", false, "check the recorded CPG's structural invariants before exporting")
	fs.BoolVar(&opts.Live, "live-stats", false, "fold the CPG incrementally during the run and stream per-epoch stats")
	faults := fs.String("faults", "", `deterministic fault-injection schedule over the points aux-loss, panic, slow-fold, slow-seal and crash, e.g. "aux-loss:after=20,every=7;panic:count=1"`)
	fs.StringVar(&opts.Journal, "journal", "", "write-ahead journal directory: every sealed epoch is appended crash-durably; recover with inspector-recover")
	fs.StringVar(&opts.JournalFsync, "journal-fsync", "always", `journal fsync policy: always|interval[:N]|none (the library's default is interval)`)
	fs.StringVar(&opts.Stream, "stream", "", "stream sealed epochs to a provenance aggregator (inspector-serve -ingest) at this base URL")
	fs.StringVar(&opts.StreamID, "stream-id", "", "aggregator source name (default: the run id, app-tN-sSEED)")
	fs.IntVar(&opts.JournalEverySeals, "epoch-every", 1, "cut one epoch each N sealed sub-computations (journal, stream and live stats share it)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, name := range workloads.Names() {
			fmt.Println(name)
		}
		return nil
	}
	if opts.AppName == "" {
		return fmt.Errorf("missing -app (use -list to see workloads)")
	}
	w, err := workloads.Get(opts.AppName)
	if err != nil {
		return err
	}
	if cfg.Size, err = workloads.ParseSize(*sizeFlag); err != nil {
		return err
	}
	if *faults != "" {
		if opts.Native {
			return fmt.Errorf("-faults injects into the recording pipeline; it needs INSPECTOR mode (drop -native)")
		}
		sched, err := faultinject.Parse(*faults)
		if err != nil {
			return err
		}
		for _, r := range sched.Rules {
			if !slices.Contains(runFaults, r.Point) {
				return fmt.Errorf("-faults: point %q never fires in a recording; inspector-run injects %v", r.Point, runFaults)
			}
		}
		opts.Faults = faultinject.New(sched)
	}
	if opts.Native && (opts.Journal != "" || opts.Stream != "") {
		return fmt.Errorf("-journal and -stream record the provenance pipeline; they need INSPECTOR mode (drop -native)")
	}
	if opts.Native && (*cpgOut != "" || *jsonOut != "" || *dotOut != "" ||
		*perfOut != "" || *imageOut != "" || *decode || *verify) {
		return fmt.Errorf("-cpg, -json, -dot, -perfdata, -imageout, -decode and -verify read the recorded CPG and PT traces; they need INSPECTOR mode (drop -native)")
	}
	// -live-stats is meaningless on the baseline, not an error.
	opts.Live = opts.Live && !opts.Native
	opts.MaxThreads = w.MaxThreads(cfg)
	// The run identity is deterministic so a SIGKILLed streaming run can
	// be resumed: the journal header and the aggregator's source binding
	// name the same run, and inspector-recover -stream re-feeds under it.
	opts.RunID = fmt.Sprintf("%s-t%d-s%d", opts.AppName, cfg.Threads, cfg.Seed)
	opts.StreamID = cmp.Or(opts.StreamID, opts.RunID)
	rec, err := inspector.New(opts)
	if err != nil {
		return err
	}
	rt := rec.Unwrap()
	stopWatch := func() {}
	if opts.Live {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		watcherDone := make(chan struct{})
		stopWatch = func() { cancel(); <-watcherDone }
		go func() {
			defer close(watcherDone)
			watchEpochs(ctx, rec.Source())
		}()
	}
	// Under -faults an erroring run (an injected panic) still reports and
	// exports: the partial CPG with its gap marks is precisely the
	// artifact a degraded run exists to produce. The error surfaces at
	// the end, so the exit code still says the run did not complete.
	runErr := w.Run(rt, cfg)
	if runErr != nil {
		if opts.Faults == nil {
			return runErr
		}
		fmt.Printf("workload error:   %v (continuing under -faults)\n", runErr)
	}
	// The final fold, then each sink's finish (journal seal, stream seal).
	cerr := rec.Close()
	// Stop the sampler before the summary so progress lines cannot
	// interleave with the report.
	stopWatch()
	if cerr != nil {
		return cerr
	}
	if opts.Live {
		info := rec.Source().Info()
		fmt.Printf("live analysis:    %d epochs folded; final epoch saw %d sub-computations, %d edges\n",
			info.Epoch, info.SubComputations, info.Edges)
	}
	if opts.Journal != "" {
		fmt.Printf("journal:          %d epochs sealed in %s\n", rec.Epoch(), opts.Journal)
	}
	if opts.Stream != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		serr := rec.WaitStream(ctx)
		cancel()
		switch {
		case serr == nil:
			fmt.Printf("stream:           %d epochs shipped to %s (source %s)\n",
				rec.Epoch(), opts.Stream, opts.StreamID)
		case opts.Journal != "":
			// The journal holds every epoch; the aggregator catches up via
			// inspector-recover -stream. A dead sink degrades the stream,
			// not the run.
			fmt.Printf("stream:           %v (journal %s holds every epoch; re-feed with inspector-recover -stream)\n",
				serr, opts.Journal)
		default:
			return fmt.Errorf("stream: %w", serr)
		}
	}
	rep := rt.LastReport()

	fmt.Printf("app:              %s (%v, %d threads, %v input)\n", rep.App, rep.Mode, cfg.Threads, cfg.Size)
	fmt.Printf("time:             %v (%.3f ms simulated)\n", rep.Time, rep.Time.Seconds()*1e3)
	fmt.Printf("work:             %v\n", rep.Work)
	fmt.Printf("instructions:     %d loads, %d stores, %d branches, %d alu\n",
		rep.Loads, rep.Stores, rep.Branches, rep.ALU)
	if !opts.Native {
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
	if opts.Faults != nil {
		if s := opts.Faults.Summary(); s != "" {
			fmt.Printf("faults fired:     %s\n", s)
		} else {
			fmt.Println("faults fired:     none (schedule never triggered)")
		}
	}

	// One batch analysis (rec.Analysis) serves both the check and the file.
	if *verify {
		switch err := rec.Analysis().Verify(); {
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

	if *decode {
		counts, err := rec.DecodeTraces()
		if err != nil {
			return fmt.Errorf("decode traces: %w", err)
		}
		total := 0
		for _, n := range counts {
			total += n
		}
		fmt.Printf("decoded branches: %d events across %d traces\n", total, len(counts))
	}

	// Each artifact is exported crash-atomically: a run killed or powered
	// off mid-export leaves the previous file (or none), never a torn one.
	if *cpgOut != "" {
		if err := atomicio.WriteFile(*cpgOut, rec.WriteCPG); err != nil {
			return err
		}
		fmt.Printf("wrote CPG:        %s\n", *cpgOut)
	}
	if *dotOut != "" {
		if err := atomicio.WriteFile(*dotOut, rec.WriteDOT); err != nil {
			return err
		}
		fmt.Printf("wrote DOT:        %s\n", *dotOut)
	}
	if *jsonOut != "" {
		if err := atomicio.WriteFile(*jsonOut, rt.Graph().EncodeJSON); err != nil {
			return err
		}
		fmt.Printf("wrote JSON:       %s\n", *jsonOut)
	}
	if *perfOut != "" {
		if err := atomicio.WriteFile(*perfOut, rt.Session().Serialize); err != nil {
			return err
		}
		fmt.Printf("wrote perf data:  %s\n", *perfOut)
	}
	if *imageOut != "" {
		err := atomicio.WriteFile(*imageOut, func(w io.Writer) error {
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
func watchEpochs(ctx context.Context, live provenance.Source) {
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
