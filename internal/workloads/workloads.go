// Package workloads re-implements the twelve benchmark applications the
// paper evaluates (§VII, Table 7) — the Phoenix 2.0 suite (histogram,
// kmeans, linear_regression, matrix_multiply, pca, reverse_index,
// string_match, word_count) and the PARSEC 3.0 applications
// (blackscholes, canneal, streamcluster, swaptions) — against the
// INSPECTOR threading API.
//
// Each workload preserves the characteristics that drive the paper's
// results rather than the exact numerics of the originals:
//
//   - parallel structure (data-parallel fork/join, locks, barriers,
//     per-iteration thread spawning for kmeans);
//   - page-touch patterns (canneal's scattered writes, reverse_index's
//     allocator churn, histogram's sequential input scans);
//   - branch profiles (streamcluster's branch-heavy inner loops,
//     string_match/swaptions' data-dependent outcomes that compress
//     poorly, regular loop branches that compress well);
//   - false sharing (linear_regression's adjacent per-thread
//     accumulators, which INSPECTOR's process isolation fixes).
//
// Inputs are synthetic and deterministic per (size, seed): the paper's
// datasets (500 MB key files, BMP images, .nets files) are not
// redistributable, and absolute input sizes are scaled to simulator
// scale. Sizes S/M/L keep the paper's relative proportions for the
// Figure 8 input-scaling experiment.
package workloads

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"github.com/repro/inspector/internal/threading"
)

// Size selects the input scale, mirroring the S/M/L datasets of §VII-C.
type Size int

// Input sizes.
const (
	Small Size = iota + 1
	Medium
	Large
)

// String names the size as the paper's figures do.
func (s Size) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	default:
		return "unknown"
	}
}

// ParseSize is String's inverse: the -size flag of every CLI.
func ParseSize(s string) (Size, error) {
	for _, size := range []Size{Small, Medium, Large} {
		if s == size.String() {
			return size, nil
		}
	}
	return 0, fmt.Errorf("unknown size %q", s)
}

// scale returns a multiplier for input sizes: S=1, M=2, L=4 (the paper's
// datasets roughly double per step; Figure 8's right axis).
func (s Size) scale() int {
	switch s {
	case Small:
		return 1
	case Large:
		return 4
	default:
		return 2
	}
}

// Config parameterizes one run.
type Config struct {
	Size    Size
	Threads int
	Seed    int64
}

// normalize fills defaults.
func (c Config) normalize() Config {
	if c.Size == 0 {
		c.Size = Medium
	}
	if c.Threads <= 0 {
		c.Threads = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Workload is one benchmark application.
type Workload interface {
	// Name returns the benchmark's canonical name (Table 7 spelling).
	Name() string
	// MaxThreads returns the thread-slot requirement for the given
	// config (kmeans spawns threads every iteration).
	MaxThreads(cfg Config) int
	// Run executes the workload on the runtime. It returns an error if
	// the computation produced an implausible result — a self-check
	// that the memory substrate delivered correct values.
	Run(rt *threading.Runtime, cfg Config) error
}

var (
	registryMu sync.Mutex
	registry   []Workload
)

// register adds a workload at package init.
func register(w Workload) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry = append(registry, w)
}

// All returns every registered workload sorted by name — the twelve rows
// of Table 7.
func All() []Workload {
	registryMu.Lock()
	out := make([]Workload, len(registry))
	copy(out, registry)
	registryMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Get returns the workload with the given name.
func Get(name string) (Workload, error) {
	for _, w := range All() {
		if w.Name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// Names returns the registered workload names.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, w := range all {
		out[i] = w.Name()
	}
	return out
}

// chunk splits n items across threads, returning [lo,hi) for thread i.
func chunk(n, threads, i int) (int, int) {
	per := (n + threads - 1) / threads
	lo := i * per
	hi := lo + per
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// rng builds the deterministic generator for input synthesis.
func rng(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// spawnJoin forks `threads` workers running body(worker, index) and joins
// them all — the fork/join skeleton shared by the data-parallel apps.
func spawnJoin(main *threading.Thread, threads int, body func(w *threading.Thread, idx int)) {
	workers := make([]*threading.Thread, 0, threads-1)
	for i := 1; i < threads; i++ {
		idx := i
		workers = append(workers, main.Spawn(func(w *threading.Thread) {
			body(w, idx)
		}))
	}
	body(main, 0)
	for _, w := range workers {
		main.Join(w)
	}
}
