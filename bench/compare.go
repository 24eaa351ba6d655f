package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// declared is BENCHMARK.json: the contract every run and every
// comparison is held to.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readDeclared(path string) (*declared, error) {
	var d declared
	if err := readJSON(path, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// verdict compares one metric of two runs. worse is how much worse b is
// than a, as a share of a; a metric without a bound is only reported.
func verdict(m declaredMetric, a, b metric) (worse float64, status string) {
	if a.Value == 0 {
		return 0, "-"
	}
	worse = (b.Value - a.Value) / a.Value
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case m.Bound == 0:
		return worse, "-"
	case worse <= m.Bound:
		return worse, "ok"
	case a.Q1 <= b.Q3 && b.Q1 <= a.Q3:
		// Worse by more than the bound, but the two runs' quartile
		// ranges overlap: the spread cannot tell the runs apart.
		return worse, "unresolved"
	}
	return worse, "regressed"
}

// readSide reads one side of a comparison: a comma-separated list of result
// files. Several runs are merged into one: each metric becomes the median
// of the runs' values, with the quartiles of those values, and the failed
// operations add up.
func readSide(paths string) (*resultFile, error) {
	var runs []resultFile
	for _, path := range strings.Split(paths, ",") {
		var f resultFile
		if err := readJSON(path, &f); err != nil {
			return nil, err
		}
		runs = append(runs, f)
	}
	if len(runs) == 1 {
		return &runs[0], nil
	}
	merged := runs[0]
	merged.Workloads = map[string]*result{}
	for name, first := range runs[0].Workloads {
		m := &result{Workload: name, Metrics: map[string]metric{}}
		for metricName, fm := range first.Metrics {
			var values []float64
			for _, run := range runs {
				if r := run.Workloads[name]; r != nil {
					values = append(values, r.Metrics[metricName].Value)
				}
			}
			m.Metrics[metricName] = summarize(fm.Unit, values)
		}
		for _, run := range runs {
			if r := run.Workloads[name]; r != nil {
				m.Attempted += r.Attempted
				m.Failed += r.Failed
			}
		}
		merged.Workloads[name] = m
	}
	return &merged, nil
}

// compareFiles prints, per workload and metric, both medians, the change,
// the metric's bound, and ok / regressed / unresolved. Each side is one
// result file or a comma-separated list of them (see readSide). It fails
// if any metric regressed.
func compareFiles(pathsA, pathsB string) error {
	d, err := readDeclared("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("%w (run from the repository root)", err)
	}
	a, errA := readSide(pathsA)
	b, errB := readSide(pathsB)
	if err := errors.Join(errA, errB); err != nil {
		return err
	}
	fmt.Printf("a: %s  %+v seed=%d\nb: %s  %+v seed=%d\n", pathsA, a.Machine, a.Seed, pathsB, b.Machine, b.Seed)
	byName := map[string]declaredMetric{}
	for _, m := range append(d.EndToEnd, d.PerLayer...) {
		byName[m.Name] = m
	}
	regressed := 0
	fmt.Printf("%-15s %-40s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "")
	for _, w := range d.Workloads {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ra == nil || rb == nil {
			continue
		}
		names := make([]string, 0, len(ra.Metrics))
		for name := range ra.Metrics {
			if _, ok := rb.Metrics[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			m := byName[name]
			ma, mb := ra.Metrics[name], rb.Metrics[name]
			worse, status := verdict(m, ma, mb)
			if status == "regressed" {
				regressed++
			}
			fmt.Printf("%-15s %-40s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n",
				w.Name, name+" ["+ma.Unit+"]", ma.Value, mb.Value, 100*worse, 100*m.Bound, status)
		}
		if rb.Failed > 0 {
			regressed++
			fmt.Printf("%-15s %d of %d operations failed in b: regressed\n", w.Name, rb.Failed, rb.Attempted)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}
