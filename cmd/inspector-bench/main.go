// Command inspector-bench regenerates the paper's evaluation artifacts
// (Figures 5, 6, 8 and Tables 7, 9 of ICDCS'16) on the simulated
// substrate.
//
// Usage:
//
//	inspector-bench [flags]
//
//	-experiment all|fig5|fig6|table7|fig8|table9|mem|pt|cpg|fabric
//	-size small|medium|large     input scale for fig5/fig6/tables
//	-threads 2,4,8,16            thread sweep for fig5
//	-breakdown 16                thread count for fig6/tables
//	-apps a,b,c                  restrict to a subset of the 12 apps
//	-seed 1                      input-generation seed
//	-out path                    mem/pt/cpg/fabric output path ("-" = stdout)
//	-baseline path               prior BENCH_{mem,pt,cpg,fabric}.json whose baseline carries forward
//	-cpuprofile path             write a CPU profile of the whole run
//	-memprofile path             write a post-GC heap profile at exit
//
// The mem experiment benchmarks the tracked-memory substrate hot path
// (diff, commit, read/write fast path) and writes the BENCH_mem.json
// snapshot that records the repo's perf trajectory; the pt experiment
// does the same for the branch-trace pipeline (encode, decode, round
// trip) into BENCH_pt.json, the cpg experiment for the provenance
// graph core (vertex append, data-edge derivation, analysis, queries)
// into BENCH_cpg.json, and the fabric experiment soaks the distributed
// ingest wire (M streaming recorders × N query/watch clients) into
// BENCH_fabric.json with ingest frames/s and query latency quantiles.
//
// Absolute numbers come from the deterministic virtual-time model, not
// the authors' Xeon D-1540; the claims to compare are relative (who is
// slower, by what factor, where the outliers are).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"github.com/repro/inspector/internal/harness"
	"github.com/repro/inspector/internal/workloads"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "inspector-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("inspector-bench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "experiment to run: all|fig5|work|fig6|table7|fig8|table9|mem|pt|cpg|fabric")
	sizeFlag := fs.String("size", "medium", "input size: small|medium|large")
	threadsFlag := fs.String("threads", "2,4,8,16", "comma-separated thread sweep for fig5")
	breakdown := fs.Int("breakdown", 16, "thread count for fig6/table7/fig8/table9")
	appsFlag := fs.String("apps", "", "comma-separated subset of applications (default all)")
	seed := fs.Int64("seed", 1, "input generation seed")
	outPath := fs.String("out", "", `mem/pt/cpg/fabric experiment output path ("-" = stdout; default BENCH_<experiment>.json)`)
	baseline := fs.String("baseline", "", "prior BENCH_{mem,pt,cpg,fabric}.json whose baseline section carries forward")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file (inspect with `go tool pprof`)")
	memProfile := fs.String("memprofile", "", "write a heap profile (post-GC, at exit) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("cpuprofile: %w", cerr)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			if werr := writeHeapProfile(*memProfile); werr != nil && err == nil {
				err = werr
			}
		}()
	}

	if *experiment == "mem" || *experiment == "pt" || *experiment == "cpg" || *experiment == "fabric" {
		out := *outPath
		if out == "" {
			out = "BENCH_" + *experiment + ".json"
		}
		// With the JSON on stdout, progress lines move to stderr so the
		// output stays pipeable.
		progress := io.Writer(os.Stdout)
		if out == "-" {
			progress = os.Stderr
		}
		switch *experiment {
		case "pt":
			return runPTBench(progress, out, *baseline)
		case "cpg":
			return runCPGBench(progress, out, *baseline)
		case "fabric":
			return runFabricBench(progress, out, *baseline)
		default:
			return runMemBench(progress, out, *baseline)
		}
	}

	size, err := workloads.ParseSize(*sizeFlag)
	if err != nil {
		return err
	}
	threads, err := parseThreads(*threadsFlag)
	if err != nil {
		return err
	}
	var apps []string
	if *appsFlag != "" {
		apps = strings.Split(*appsFlag, ",")
	}

	h := harness.New(harness.Options{
		Size:             size,
		Threads:          threads,
		BreakdownThreads: *breakdown,
		Seed:             *seed,
		Apps:             apps,
	})

	out := os.Stdout
	switch *experiment {
	case "all":
		res, err := h.All()
		if err != nil {
			return err
		}
		return h.WriteAll(out, res)
	case "fig5":
		rows, err := h.Figure5()
		if err != nil {
			return err
		}
		return h.WriteFigure5(out, rows)
	case "work":
		rows, err := h.Figure5()
		if err != nil {
			return err
		}
		return h.WriteWork(out, rows)
	case "fig6":
		rows, err := h.Figure6()
		if err != nil {
			return err
		}
		return h.WriteFigure6(out, rows)
	case "table7":
		rows, err := h.Table7()
		if err != nil {
			return err
		}
		return h.WriteTable7(out, rows)
	case "fig8":
		rows, err := h.Figure8()
		if err != nil {
			return err
		}
		return h.WriteFigure8(out, rows)
	case "table9":
		rows, err := h.Table9()
		if err != nil {
			return err
		}
		return h.WriteTable9(out, rows)
	default:
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
}

// writeHeapProfile snapshots the live heap after a forced GC so the
// profile reflects retained allocations, not transient garbage.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

func parseThreads(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}
