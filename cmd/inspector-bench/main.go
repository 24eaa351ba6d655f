// Command inspector-bench regenerates the paper's evaluation artifacts
// (Figures 5, 6, 8 and Tables 7, 9 of ICDCS'16) on the simulated
// substrate.
//
// Usage:
//
//	inspector-bench [flags]
//
//	-experiment all|fig5|work|fig6|table7|fig8|table9
//	-size small|medium|large     input scale for fig5/fig6/tables
//	-threads 2,4,8,16            thread sweep for fig5
//	-breakdown 16                thread count for fig6/tables
//	-apps a,b,c                  restrict to a subset of the 12 apps
//	-seed 1                      input-generation seed
//
// Absolute numbers come from the deterministic virtual-time model, not
// the authors' Xeon D-1540; the claims to compare are relative (who is
// slower, by what factor, where the outliers are). Host wall-clock
// performance is measured elsewhere: `bash bench/run.sh` end to end,
// `go test -bench` per layer (DESIGN.md, "Profiling workflow").
package main

import (
	"flag"
	"fmt"
	"os"
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

func run(args []string) error {
	fs := flag.NewFlagSet("inspector-bench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "experiment to run: all|fig5|work|fig6|table7|fig8|table9")
	sizeFlag := fs.String("size", "medium", "input size: small|medium|large")
	threadsFlag := fs.String("threads", "2,4,8,16", "comma-separated thread sweep for fig5")
	breakdown := fs.Int("breakdown", 16, "thread count for fig6/table7/fig8/table9")
	appsFlag := fs.String("apps", "", "comma-separated subset of applications (default all)")
	seed := fs.Int64("seed", 1, "input generation seed")
	if err := fs.Parse(args); err != nil {
		return err
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
