package mem

import (
	"testing"

	"github.com/repro/inspector/internal/allocpin"
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

// diffPage builds a 4 KiB private page, its twin and its written-word
// bitmap with the given store pattern: "identical" rewrites every word with
// the value it holds (a page of silent stores), "sparse" changes two bytes,
// "words" one byte in every 64-byte line, "dense" every byte.
func diffPage(pattern string) (priv, twin []byte, logged []uint64) {
	priv = make([]byte, DefaultPageSize)
	twin = make([]byte, DefaultPageSize)
	logged = make([]uint64, DefaultPageSize/512)
	store := func(i int, v byte) {
		priv[i] = v
		logged[i/512] |= 1 << (i / 8 % 64)
	}
	switch pattern {
	case "identical":
		for i := range priv {
			store(i, 0)
		}
	case "sparse":
		store(100, 1)
		store(3000, 2)
	case "words":
		// One 8-byte word touched in every 64-byte line — pointer-update
		// style write patterns.
		for i := 0; i < len(priv); i += 64 {
			store(i, byte(i))
		}
	case "dense":
		for i := range priv {
			store(i, byte(i+1))
		}
	default:
		panic("unknown diff pattern " + pattern)
	}
	return priv, twin, logged
}

// BenchmarkDiff measures the commit's diff of one private page: only its
// logged words compare against their twin values.
func BenchmarkDiff(b *testing.B) {
	for _, pattern := range []string{"identical", "sparse", "words", "dense"} {
		b.Run(pattern, func(b *testing.B) {
			priv, twin, logged := diffPage(pattern)
			ranges := make([]DiffRange, 0, DefaultPageSize/8)
			b.ReportAllocs()
			b.SetBytes(DefaultPageSize)
			for i := 0; i < b.N; i++ {
				ranges = loggedDiff(priv, twin, logged, ranges[:0])
			}
		})
	}
}

// BenchmarkCommit measures the synchronization-point commit. "burst" is
// one sub-computation's write burst: fault and copy-on-write 16 pages,
// dirty a cache line in each, then diff and publish — the paper's
// per-sync-point cost. "after-wide" commits a one-page sub-computation
// after one that wrote 4 096 pages: a commit that cost what the widest
// sub-computation so far left behind would show here.
func BenchmarkCommit(b *testing.B) {
	var line [64]byte
	for i := range line {
		line[i] = byte(i + 1)
	}
	write := func(b *testing.B, s *Space, pages, i int) {
		for p := 0; p < pages; p++ {
			a := Addr(benchRegionBase + p*DefaultPageSize + (i%32)*64)
			if _, err := s.Write(a, line[:]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("burst", func(b *testing.B) {
		const pages = 16
		s := benchSpace(b)
		b.ReportAllocs()
		b.SetBytes(pages * DefaultPageSize)
		for i := 0; i < b.N; i++ {
			write(b, s, pages, i)
			s.Commit()
		}
	})
	b.Run("after-wide", func(b *testing.B) {
		s := benchSpace(b)
		write(b, s, 4096, 0)
		s.Commit()
		b.ReportAllocs()
		b.SetBytes(DefaultPageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			write(b, s, 1, i)
			s.Commit()
		}
	})
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
// page-hopping), clean reads, the diff of a page of silent stores, and
// BenchmarkCommit/burst's steady state — fault, twin and diff 16 pages out
// of the page pool; once its 32 line offsets are all written the rewrites
// change no byte. (A publishing commit allocates nothing either once its
// reused range scratch has grown.) (Named Allocs*, not after the paths,
// so -race -run patterns never select it: the race detector allocates.)
// It measures in a process of its own (allocpin.MeasureAlone).
func TestAllocsHotPaths(t *testing.T) {
	if !allocpin.MeasureAlone(t) {
		return
	}
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
	priv, twin, logged := diffPage("identical")
	var ranges []DiffRange
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
		{"Diff/identical", func() { ranges = loggedDiff(priv, twin, logged, ranges[:0]) }},
		{"Commit", commitOnce},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got != 0 {
			t.Errorf("%s: %v allocs per run, want 0", c.name, got)
		}
	}
}
