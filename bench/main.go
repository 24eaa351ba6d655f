// Command bench is the pipeline benchmark: five workloads pushed through
// the whole recording and serving pipeline, end-to-end metrics measured
// with tracing off, and a separate staged run that attributes time to
// layers. See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// outDir holds everything a run writes: result files, traces, scratch.
var outDir = filepath.Join("bench", "out")

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// resultFile is what -out writes: the box, the settings, and one result
// per workload.
type resultFile struct {
	Machine   machine            `json:"machine"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     int                `json:"trace"`
	Workloads map[string]*result `json:"workloads"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (default: every workload, each in its own process)")
	seed := fs.Int64("seed", 1, "input and query generation seed")
	seconds := fs.Float64("seconds", 20, "seconds to measure for, after set-up (the staged run is one fixed pass)")
	trace := fs.Int("trace", 0, "1: the staged run that yields the per-layer metrics; 0: the end-to-end metrics, tracing off")
	out := fs.String("out", "", "result file (default bench/out/result[-<workload>].json)")
	compare := fs.Bool("compare", false, "compare two result files (or two comma-separated lists of them) given as arguments; exit non-zero if a metric regressed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare wants two arguments: a result file, or a comma-separated list of them, per side")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	file := &resultFile{Machine: machineBlock(), Seed: *seed, Seconds: *seconds, Trace: *trace, Workloads: map[string]*result{}}
	if *workload == "" {
		if *out == "" {
			*out = filepath.Join(outDir, "result.json")
		}
		return runAll(file, *out)
	}
	sc, err := findScenario(*workload)
	if err != nil {
		return err
	}
	if *out == "" {
		*out = filepath.Join(outDir, "result-"+sc.Name+".json")
	}
	res, err := runOne(sc, *seed, *seconds, *trace == 1, false)
	if err != nil {
		return err
	}
	file.Workloads[sc.Name] = res
	if err := writeJSON(*out, file); err != nil {
		return err
	}
	return report(res)
}

// runOne runs one workload in this process.
func runOne(sc scenario, seed int64, seconds float64, traced, quick bool) (*result, error) {
	tmp := filepath.Join(outDir, fmt.Sprintf("tmp-%s-%d", sc.Name, os.Getpid()))
	defer os.RemoveAll(tmp)
	b, err := newBench(sc, seed, quick, tmp)
	if err != nil {
		return nil, err
	}
	if !traced {
		return b.runEndToEnd(seconds)
	}
	res, tr, err := b.runStaged()
	if err != nil {
		return nil, err
	}
	return res, tr.write(filepath.Join(outDir, "trace-"+sc.Name+".json"))
}

// runAll re-executes this binary once per workload, so that peak_rss_mb
// and the collector's state are each workload's own, and merges the
// results into one file.
func runAll(file *resultFile, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, sc := range scenarios {
		part := filepath.Join(outDir, "result-"+sc.Name+".json")
		cmd := exec.Command(self,
			"-workload", sc.Name, "-seed", fmt.Sprint(file.Seed),
			"-seconds", fmt.Sprint(file.Seconds), "-trace", fmt.Sprint(file.Trace), "-out", part)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", sc.Name, err)
		}
		var one resultFile
		if err := readJSON(part, &one); err != nil {
			return err
		}
		file.Workloads[sc.Name] = one.Workloads[sc.Name]
	}
	return writeJSON(out, file)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// report prints one line per metric, the operation counts, and then, as
// the last line, the result object the driver reads.
func report(res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	line := func(name string, m metric) {
		fmt.Printf("%s %s %.6g %s n=%d q1=%.6g q3=%.6g\n", res.Workload, name, m.Value, m.Unit, m.N, m.Q1, m.Q3)
	}
	for _, name := range names {
		line(name, res.Metrics[name])
		last.Metrics[name] = value{res.Metrics[name].Value, res.Metrics[name].Unit}
	}
	info := make([]string, 0, len(res.Info))
	for name := range res.Info {
		info = append(info, name)
	}
	sort.Strings(info)
	for _, name := range info {
		line("info."+name, res.Info[name])
	}
	fmt.Printf("%s ops_total=%d ops_failed=%d fail_ratio=%g reps=%v\n",
		res.Workload, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Reps)
	data, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
