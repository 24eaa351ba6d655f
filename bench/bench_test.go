package main

import (
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// quick runs one workload on small inputs with one rep of everything.
func quick(t *testing.T, name string, traced bool) *result {
	t.Helper()
	sc, err := findScenario(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOne(sc, 1, 0, traced, true)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s (traced=%v): %d of %d operations failed", name, traced, res.Failed, res.Attempted)
	}
	return res
}

func metricNames(ms []declaredMetric) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func emitted(res *result) []string {
	var names []string
	for name, m := range res.Metrics {
		if m.Unit == "" {
			names = append(names, name+" (no unit)")
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestEmittedMatchesDeclared holds every workload's output, untraced and
// staged, to BENCHMARK.json: the same workloads, the same metric names
// with the same units, and a trace whose spans nest and all feed a
// declared per-layer metric.
func TestEmittedMatchesDeclared(t *testing.T) {
	outDir = t.TempDir()
	d, err := readDeclared(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, sc := range scenarios {
		want = append(want, sc.Name+": "+sc.Why)
	}
	for _, w := range d.Workloads {
		got = append(got, w.Name+": "+w.Why)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json declares workloads\n%q\nthe benchmark has\n%q", got, want)
	}
	units := map[string]string{}
	for _, m := range append(d.EndToEnd, d.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for _, sc := range scenarios {
		name := sc.Name
		for _, traced := range []bool{false, true} {
			res := quick(t, name, traced)
			declared := metricNames(d.EndToEnd)
			if traced {
				declared = metricNames(d.PerLayer)
			}
			if got := emitted(res); !slices.Equal(got, declared) {
				t.Errorf("%s (traced=%v) emits\n%v\nBENCHMARK.json declares\n%v", name, traced, got, declared)
			}
			for metric, m := range res.Metrics {
				if m.Unit != units[metric] {
					t.Errorf("%s %s: emitted in %q, declared in %q", name, metric, m.Unit, units[metric])
				}
			}
		}
		var spans []span
		if err := readJSON(filepath.Join(outDir, "trace-"+name+".json"), &spans); err != nil {
			t.Fatal(err)
		}
		if len(spans) == 0 {
			t.Errorf("%s: empty trace", name)
		}
		for _, s := range spans {
			if s.End < s.Start {
				t.Errorf("%s: span %d (%s) never ended", name, s.ID, s.Name)
			}
			if !slices.ContainsFunc(d.PerLayer, func(m declaredMetric) bool { return strings.HasPrefix(m.Name, s.Name+"_") }) {
				t.Errorf("%s: span %q feeds no declared per-layer metric", name, s.Name)
			}
			if s.Parent < 0 {
				continue
			}
			if p := spans[s.Parent]; s.Start < p.Start || s.End > p.End || s.Run != p.Run {
				t.Errorf("%s: span %d (%s) [%d,%d] lies outside its parent %d (%s) [%d,%d]",
					name, s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
			}
		}
	}
}

// TestMismatchCountsAsFailure corrupts the reference served results are
// compared against and expects every verified answer to be counted as a
// failed operation, not skipped.
func TestMismatchCountsAsFailure(t *testing.T) {
	outDir = t.TempDir()
	sc, err := findScenario("serve-cold")
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBench(sc, 1, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b.breakRef = true
	res, err := b.runEndToEnd(0)
	if err != nil {
		t.Fatal(err)
	}
	// serve-cold verifies every answer.
	if want := res.Reps["queries"]; res.Failed != want {
		t.Errorf("%d operations failed, want all %d served results", res.Failed, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := declaredMetric{Name: "x_ms", Better: "lower", Bound: 0.1}
	higher := declaredMetric{Name: "x_per_s", Better: "higher", Bound: 0.1}
	at := func(v, q1, q3 float64) metric { return metric{Value: v, Q1: q1, Q3: q3} }
	for _, c := range []struct {
		m    declaredMetric
		a, b metric
		want string
	}{
		{lower, at(100, 98, 102), at(105, 103, 107), "ok"},
		{lower, at(100, 98, 102), at(80, 78, 82), "ok"},
		{lower, at(100, 98, 102), at(120, 118, 122), "regressed"},
		{lower, at(100, 90, 119), at(120, 118, 122), "unresolved"},
		{higher, at(100, 98, 102), at(80, 78, 82), "regressed"},
		{higher, at(100, 98, 102), at(120, 118, 122), "ok"},
		{declaredMetric{Name: "layer"}, at(100, 98, 102), at(200, 198, 202), "-"},
	} {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s a=%v b=%v: %s, want %s", c.m.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}
