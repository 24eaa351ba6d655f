package main

import "testing"

func TestParseThreads(t *testing.T) {
	got, err := parseThreads("2, 4,8")
	if err != nil || len(got) != 3 || got[0] != 2 || got[1] != 4 || got[2] != 8 {
		t.Errorf("parseThreads = %v, %v", got, err)
	}
	for _, bad := range []string{"", "a", "0", "-1", "2,,4"} {
		if _, err := parseThreads(bad); err == nil {
			t.Errorf("parseThreads(%q) accepted", bad)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	// mem, pt, cpg and fabric were the BENCH_*.json snapshot drivers;
	// those suites are go-test benchmarks now and have no alias here.
	for _, exp := range []string{"fig99", "mem", "pt", "cpg", "fabric"} {
		if err := run([]string{"-experiment", exp}); err == nil {
			t.Errorf("experiment %q accepted", exp)
		}
	}
	for _, gone := range []string{"-out", "-baseline", "-cpuprofile", "-memprofile"} {
		if err := run([]string{gone, "x"}); err == nil {
			t.Errorf("flag %s accepted", gone)
		}
	}
	if err := run([]string{"-size", "zzz"}); err == nil {
		t.Error("bad size accepted")
	}
}

func TestRunSingleAppTable7(t *testing.T) {
	// Smallest possible end-to-end CLI run.
	err := run([]string{"-experiment", "table7", "-size", "small", "-apps", "histogram", "-breakdown", "2", "-threads", "2"})
	if err != nil {
		t.Fatal(err)
	}
}
