package workloads

import (
	"testing"

	"github.com/repro/inspector/internal/threading"
)

func TestRegistryComplete(t *testing.T) {
	// The twelve rows of Table 7.
	want := []string{
		"blackscholes", "canneal", "histogram", "kmeans",
		"linear_regression", "matrix_multiply", "pca", "reverse_index",
		"streamcluster", "string_match", "swaptions", "word_count",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registered %d workloads, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("workload %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestParseSize(t *testing.T) {
	for _, want := range []Size{Small, Medium, Large} {
		if got, err := ParseSize(want.String()); err != nil || got != want {
			t.Errorf("ParseSize(%q) = %v, %v", want, got, err)
		}
	}
	for _, bad := range []string{"", "huge", "unknown", "Small"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) accepted", bad)
		}
	}
}

func TestGet(t *testing.T) {
	w, err := Get("histogram")
	if err != nil || w.Name() != "histogram" {
		t.Errorf("Get(histogram) = %v, %v", w, err)
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown workload found")
	}
}

func TestSizeStringsAndScale(t *testing.T) {
	if Small.String() != "small" || Medium.String() != "medium" || Large.String() != "large" || Size(0).String() != "unknown" {
		t.Error("size strings")
	}
	if Small.scale() != 1 || Medium.scale() != 2 || Large.scale() != 4 {
		t.Error("size scales")
	}
}

func TestChunkCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 101} {
		for _, threads := range []int{1, 2, 3, 16} {
			covered := 0
			last := 0
			for i := 0; i < threads; i++ {
				lo, hi := chunk(n, threads, i)
				if lo < last {
					t.Errorf("n=%d t=%d: chunk %d overlaps", n, threads, i)
				}
				covered += hi - lo
				last = hi
			}
			if covered != n {
				t.Errorf("n=%d t=%d: covered %d", n, threads, covered)
			}
		}
	}
}

// runWorkload executes one workload in the given mode at small size.
func runWorkload(t *testing.T, w Workload, mode threading.Mode, threads int) *threading.Runtime {
	t.Helper()
	cfg := Config{Size: Small, Threads: threads, Seed: 42}
	rt, err := threading.NewRuntime(threading.Options{
		AppName:    w.Name(),
		Mode:       mode,
		MaxThreads: w.MaxThreads(cfg),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(rt, cfg); err != nil {
		t.Fatalf("%s [%v]: %v", w.Name(), mode, err)
	}
	return rt
}

// TestAllWorkloadsNative runs every benchmark natively: the self-checks
// validate the computation over the shared-memory substrate.
func TestAllWorkloadsNative(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			runWorkload(t, w, threading.ModeNative, 4)
		})
	}
}

// TestAllWorkloadsInspector runs every benchmark under the full stack and
// validates the recorded CPG.
func TestAllWorkloadsInspector(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			rt := runWorkload(t, w, threading.ModeInspector, 4)
			if rt.Graph().NumSubs() == 0 {
				t.Error("no sub-computations recorded")
			}
			if err := rt.Graph().Analyze().Verify(); err != nil {
				t.Errorf("CPG verify: %v", err)
			}
		})
	}
}

// TestAllWorkloadTracesDecode checks every app's PT stream reconstructs.
func TestAllWorkloadTracesDecode(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			rt := runWorkload(t, w, threading.ModeInspector, 2)
			counts, err := rt.DecodeTraces()
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			var total int
			for _, n := range counts {
				total += n
			}
			if total == 0 {
				t.Error("no branch events decoded")
			}
		})
	}
}

// TestWorkloadsDeterministicInput checks input generation is seed-stable:
// two native runs with the same seed must touch identical page counts.
func TestWorkloadsDeterministicInput(t *testing.T) {
	w, err := Get("histogram")
	if err != nil {
		t.Fatal(err)
	}
	r1 := runWorkload(t, w, threading.ModeInspector, 2)
	r2 := runWorkload(t, w, threading.ModeInspector, 2)
	if r1.Graph().NumSubs() != r2.Graph().NumSubs() {
		t.Errorf("sub counts differ across identical runs: %d vs %d",
			r1.Graph().NumSubs(), r2.Graph().NumSubs())
	}
}

// TestKmeansSpawnsManyProcesses verifies the per-iteration spawn pattern
// that the paper blames for kmeans's overhead.
func TestKmeansSpawnsManyProcesses(t *testing.T) {
	w, err := Get("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Size: Small, Threads: 4, Seed: 1}
	rt, err := threading.NewRuntime(threading.Options{
		AppName:    "kmeans",
		Mode:       threading.ModeInspector,
		MaxThreads: w.MaxThreads(cfg),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(rt, cfg); err != nil {
		t.Fatal(err)
	}
	// 26 iterations x 3 spawned workers (+ main) > 70 processes.
	g := rt.Graph()
	if g.NumSubs() < 70 {
		t.Errorf("kmeans recorded %d subs; expected per-iteration spawning", g.NumSubs())
	}
}
