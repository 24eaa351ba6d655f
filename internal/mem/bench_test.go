package mem

import (
	"testing"
)

// The substrate benchmark suite. Every tracked access in the system funnels
// through Space.Read/Write and every synchronization boundary through
// Space.Commit, so these microbenchmarks bound the reproduction's Figure 5/6
// overhead numbers. TestAllocsHotPaths pins the allocation-free paths.

const benchRegionBase = 0x4000_0000

func benchBacking(tb testing.TB) *Backing {
	tb.Helper()
	bk, err := NewBacking("heap", benchRegionBase, 64<<20, DefaultPageSize)
	if err != nil {
		tb.Fatal(err)
	}
	return bk
}

func benchSpace(tb testing.TB) *Space {
	tb.Helper()
	return NewSpace(1, []*Backing{benchBacking(tb)}, nil, true)
}

// diffPage builds a 4 KiB priv/twin pair with the given mutation pattern.
func diffPage(pattern string) (priv, twin []byte) {
	priv = make([]byte, DefaultPageSize)
	twin = make([]byte, DefaultPageSize)
	switch pattern {
	case "identical":
	case "sparse":
		priv[100] = 1
		priv[3000] = 2
	case "words":
		// One 8-byte word touched in every 64-byte line — pointer-update
		// style write patterns.
		for i := 0; i < len(priv); i += 64 {
			priv[i] = byte(i)
		}
	case "dense":
		for i := range priv {
			priv[i] = byte(i + 1)
		}
	default:
		panic("unknown diff pattern " + pattern)
	}
	return priv, twin
}

func BenchmarkDiff(b *testing.B) {
	for _, pattern := range []string{"identical", "sparse", "words", "dense"} {
		b.Run(pattern, func(b *testing.B) {
			priv, twin := diffPage(pattern)
			b.ReportAllocs()
			b.SetBytes(DefaultPageSize)
			for i := 0; i < b.N; i++ {
				Diff(priv, twin, 8)
			}
		})
	}
}

// BenchmarkCommit measures one full sub-computation write burst: fault and
// copy-on-write 16 pages, dirty a cache line in each, then diff and publish
// at the synchronization boundary. This is the paper's per-sync-point cost.
func BenchmarkCommit(b *testing.B) {
	const pages = 16
	s := benchSpace(b)
	var line [64]byte
	for i := range line {
		line[i] = byte(i + 1)
	}
	b.ReportAllocs()
	b.SetBytes(pages * DefaultPageSize)
	for i := 0; i < b.N; i++ {
		for p := 0; p < pages; p++ {
			a := Addr(benchRegionBase + p*DefaultPageSize + (i%32)*64)
			if _, err := s.Write(a, line[:]); err != nil {
				b.Fatal(err)
			}
		}
		s.Commit()
	}
}

// BenchmarkReadWrite measures the steady-state tracked access fast path:
// pages already faulted and private, no commits. "seq" walks words within a
// page (the overwhelmingly common access pattern); "strided" hops to a new
// page on every access, defeating any same-page caching.
func BenchmarkReadWrite(b *testing.B) {
	const pages = 16
	run := func(b *testing.B, stride Addr) {
		s := benchSpace(b)
		// Warm every page: fault, CoW, make readable+writable.
		for p := 0; p < pages; p++ {
			if _, err := s.StoreU64(Addr(benchRegionBase+p*DefaultPageSize), 1); err != nil {
				b.Fatal(err)
			}
		}
		span := Addr(pages * DefaultPageSize)
		b.ReportAllocs()
		b.ResetTimer()
		var a Addr
		for i := 0; i < b.N; i++ {
			addr := Addr(benchRegionBase) + a
			v, err := s.LoadU64(addr)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.StoreU64(addr, v+1); err != nil {
				b.Fatal(err)
			}
			a += stride
			if a >= span {
				a = (a + 8) % 4096 % span
			}
		}
	}
	b.Run("seq", func(b *testing.B) { run(b, 8) })
	b.Run("strided", func(b *testing.B) { run(b, DefaultPageSize) })
}

// BenchmarkReadClean measures tracked reads of pages that were never
// written in the current sub-computation (no private copy: reads go to the
// shared backing).
func BenchmarkReadClean(b *testing.B) {
	const pages = 16
	s := benchSpace(b)
	// Materialize backing pages and fault them readable.
	var buf [8]byte
	for p := 0; p < pages; p++ {
		if err := s.Read(Addr(benchRegionBase+p*DefaultPageSize), buf[:]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var a Addr
	for i := 0; i < b.N; i++ {
		if _, err := s.LoadU64(Addr(benchRegionBase) + a); err != nil {
			b.Fatal(err)
		}
		a = (a + 8) % (pages * DefaultPageSize)
	}
}

// TestAllocsHotPaths pins what the benchmarks above report as 0
// allocs/op: the tracked read/write fast path (same-page and
// page-hopping), clean reads, the diff of an unmodified page, and
// BenchmarkCommit's steady state — fault, twin and diff 16 pages out of
// the page pool; once its 32 line offsets are all written the rewrites
// change no byte, so the one allocation a publishing commit makes
// (Diff's range slice) is not in it. (Named Allocs*, not after the
// paths, so -race -run patterns never select it: the race detector
// allocates.)
func TestAllocsHotPaths(t *testing.T) {
	const pages = 16
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// warm faults every page in by reading it (clean) or storing to it
	// (private and writable), as the benchmarks' set-up does.
	warm := func(store bool) *Space {
		s := benchSpace(t)
		for p := 0; p < pages; p++ {
			a := Addr(benchRegionBase + p*DefaultPageSize)
			if store {
				_, err := s.StoreU64(a, 1)
				check(err)
			} else {
				_, err := s.LoadU64(a)
				check(err)
			}
		}
		return s
	}
	readWrite := func(stride Addr) func() {
		s := warm(true)
		var a Addr
		return func() {
			addr := Addr(benchRegionBase) + a
			v, err := s.LoadU64(addr)
			check(err)
			_, err = s.StoreU64(addr, v+1)
			check(err)
			a = (a + stride) % (pages * DefaultPageSize)
		}
	}
	clean := warm(false)
	var cleanAt Addr
	var line [64]byte
	for i := range line {
		line[i] = byte(i + 1)
	}
	commit := benchSpace(t)
	i := 0
	commitOnce := func() {
		for p := 0; p < pages; p++ {
			_, err := commit.Write(Addr(benchRegionBase+p*DefaultPageSize+(i%32)*64), line[:])
			check(err)
		}
		commit.Commit()
		i++
	}
	for i < 32 {
		commitOnce()
	}
	priv, twin := diffPage("identical")
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"ReadWrite/seq", readWrite(8)},
		{"ReadWrite/strided", readWrite(DefaultPageSize)},
		{"ReadClean", func() {
			_, err := clean.LoadU64(Addr(benchRegionBase) + cleanAt)
			check(err)
			cleanAt = (cleanAt + DefaultPageSize + 8) % (pages * DefaultPageSize)
		}},
		{"Diff/identical", func() { Diff(priv, twin, 8) }},
		{"Commit", commitOnce},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got != 0 {
			t.Errorf("%s: %v allocs per run, want 0", c.name, got)
		}
	}
}
