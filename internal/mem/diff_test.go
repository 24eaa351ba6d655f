package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDiffIdentical(t *testing.T) {
	a := bytes.Repeat([]byte{7}, 256)
	b := bytes.Repeat([]byte{7}, 256)
	if got := Diff(a, b, 8); len(got) != 0 {
		t.Errorf("identical pages diff = %v", got)
	}
}

func TestDiffSingleByte(t *testing.T) {
	a := make([]byte, 128)
	b := make([]byte, 128)
	a[64] = 1
	got := Diff(a, b, 8)
	if len(got) != 1 || got[0].Off != 64 || got[0].Len != 1 {
		t.Errorf("diff = %v, want one range at 64 len 1", got)
	}
}

func TestDiffCoalescesNearbyRuns(t *testing.T) {
	a := make([]byte, 128)
	b := make([]byte, 128)
	a[10] = 1
	a[14] = 1 // gap of 3 < minGap 8: must coalesce
	got := Diff(a, b, 8)
	if len(got) != 1 {
		t.Fatalf("diff = %v, want single coalesced range", got)
	}
	if got[0].Off != 10 || got[0].Len != 5 {
		t.Errorf("coalesced range = %+v, want {10 5}", got[0])
	}
}

func TestDiffSplitsDistantRuns(t *testing.T) {
	a := make([]byte, 128)
	b := make([]byte, 128)
	a[0] = 1
	a[100] = 1
	got := Diff(a, b, 8)
	if len(got) != 2 {
		t.Fatalf("diff = %v, want two ranges", got)
	}
}

func TestDiffWholePage(t *testing.T) {
	a := bytes.Repeat([]byte{1}, 64)
	b := make([]byte, 64)
	got := Diff(a, b, 8)
	if len(got) != 1 || got[0].Off != 0 || got[0].Len != 64 {
		t.Errorf("diff = %v", got)
	}
	if DiffBytes(got) != 64 {
		t.Errorf("DiffBytes = %d, want 64", DiffBytes(got))
	}
}

func TestDiffMismatchedSizes(t *testing.T) {
	got := Diff(make([]byte, 10), make([]byte, 5), 8)
	if len(got) != 1 || got[0].Len != 5 {
		t.Errorf("mismatched sizes diff = %v", got)
	}
	if got := Diff(nil, nil, 8); got != nil {
		t.Errorf("nil diff = %v", got)
	}
	if got := Diff(make([]byte, 3), nil, 8); len(got) != 0 {
		t.Errorf("empty twin diff = %v", got)
	}
}

func TestDiffTrailingChange(t *testing.T) {
	a := make([]byte, 32)
	b := make([]byte, 32)
	a[31] = 9
	got := Diff(a, b, 4)
	if len(got) != 1 || got[0].Off != 31 || got[0].Len != 1 {
		t.Errorf("trailing diff = %v", got)
	}
}

// applyRanges replays diff ranges from priv onto base, as Backing.ApplyDiff
// does, so the property test can verify reconstruction.
func applyRanges(base, priv []byte, ranges []DiffRange) {
	for _, r := range ranges {
		copy(base[r.Off:r.Off+r.Len], priv[r.Off:r.Off+r.Len])
	}
}

func TestQuickDiffReconstructs(t *testing.T) {
	// For any twin and any set of mutations: applying Diff(priv, twin)
	// ranges onto a copy of twin must reproduce priv exactly, for any
	// coalescing gap.
	f := func(seed int64, gap8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		gap := int(gap8%16) + 1
		twin := make([]byte, 256)
		r.Read(twin)
		priv := make([]byte, 256)
		copy(priv, twin)
		for i := 0; i < r.Intn(40); i++ {
			priv[r.Intn(len(priv))] = byte(r.Intn(256))
		}
		ranges := Diff(priv, twin, gap)
		rebuilt := make([]byte, len(twin))
		copy(rebuilt, twin)
		applyRanges(rebuilt, priv, ranges)
		return bytes.Equal(rebuilt, priv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickDiffRangesSortedDisjoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		twin := make([]byte, 128)
		priv := make([]byte, 128)
		r.Read(priv)
		ranges := Diff(priv, twin, 8)
		last := -1
		for _, rg := range ranges {
			if rg.Off <= last || rg.Len <= 0 || rg.Off+rg.Len > len(priv) {
				return false
			}
			last = rg.Off + rg.Len - 1
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// mutate applies a random write pattern to priv: single bytes, short runs,
// word stores, and occasional long memset-style stretches — the store mix
// the tracked workloads generate.
func mutate(r *rand.Rand, priv []byte) {
	for i := 0; i < r.Intn(24); i++ {
		switch r.Intn(4) {
		case 0: // single byte
			priv[r.Intn(len(priv))] = byte(r.Intn(256))
		case 1: // 8-byte word
			off := r.Intn(len(priv))
			for k := off; k < off+8 && k < len(priv); k++ {
				priv[k] = byte(r.Intn(256))
			}
		case 2: // short run
			off := r.Intn(len(priv))
			n := r.Intn(32)
			for k := off; k < off+n && k < len(priv); k++ {
				priv[k] = byte(r.Intn(256))
			}
		case 3: // long stretch
			off := r.Intn(len(priv))
			n := r.Intn(len(priv)/2 + 1)
			v := byte(r.Intn(256))
			for k := off; k < off+n && k < len(priv); k++ {
				priv[k] = v
			}
		}
	}
}

// TestQuickDiffMatchesReference pins the word-wise Diff to the retained
// byte-at-a-time reference: for random pages, random write patterns, and
// every coalescing gap the system uses, the returned ranges are identical.
func TestQuickDiffMatchesReference(t *testing.T) {
	for _, minGap := range []int{1, 4, 8, 64} {
		f := func(seed int64, odd uint8) bool {
			r := rand.New(rand.NewSource(seed))
			// Mix page-sized and odd-sized buffers so boundary fixups at
			// non-word-multiple lengths are exercised too.
			size := 4096
			if odd%3 != 0 {
				size = r.Intn(700) + 1
			}
			twin := make([]byte, size)
			r.Read(twin)
			priv := make([]byte, size)
			copy(priv, twin)
			mutate(r, priv)
			got := Diff(priv, twin, minGap)
			want := diffReference(priv, twin, minGap)
			if len(got) != len(want) {
				t.Logf("minGap=%d size=%d: got %v want %v", minGap, size, got, want)
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					t.Logf("minGap=%d size=%d range %d: got %v want %v", minGap, size, i, got[i], want[i])
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("minGap=%d: %v", minGap, err)
		}
	}
}

// TestQuickApplyDiffReconstructs drives the full commit data path: a page
// lives in a real Backing, a twin snapshot is taken, the private copy
// mutates, and ApplyDiff publishes Diff's ranges — after which the backing
// holds priv exactly, for every coalescing gap.
func TestQuickApplyDiffReconstructs(t *testing.T) {
	for _, minGap := range []int{1, 4, 8, 64} {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			const base = 0x1000_0000
			b, err := NewBacking("g", base, 1<<20, DefaultPageSize)
			if err != nil {
				t.Fatal(err)
			}
			init := make([]byte, DefaultPageSize)
			r.Read(init)
			if _, err := b.WriteAt(base, init, 0); err != nil {
				t.Fatal(err)
			}
			id := b.PageOf(base)
			twin := make([]byte, DefaultPageSize)
			b.SnapshotPage(id, twin)
			priv := make([]byte, DefaultPageSize)
			copy(priv, twin)
			mutate(r, priv)
			b.ApplyDiff(id, priv, Diff(priv, twin, minGap))
			got := make([]byte, DefaultPageSize)
			if err := b.ReadAt(base, got); err != nil {
				t.Fatal(err)
			}
			return bytes.Equal(got, priv)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("minGap=%d: %v", minGap, err)
		}
	}
}

func BenchmarkDiffSparse(b *testing.B) {
	priv := make([]byte, 4096)
	twin := make([]byte, 4096)
	priv[100] = 1
	priv[3000] = 2
	b.ReportAllocs()
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		Diff(priv, twin, 8)
	}
}

func BenchmarkDiffDense(b *testing.B) {
	priv := bytes.Repeat([]byte{1}, 4096)
	twin := make([]byte, 4096)
	b.ReportAllocs()
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		Diff(priv, twin, 8)
	}
}

// diffReference is the original byte-at-a-time diff, retained as the
// executable specification for Diff: the property tests assert the
// word-wise scan produces identical ranges for arbitrary pages and gaps.
func diffReference(priv, twin []byte, minGap int) []DiffRange {
	if len(priv) != len(twin) {
		n := len(priv)
		if len(twin) < n {
			n = len(twin)
		}
		if n == 0 {
			return nil
		}
		return []DiffRange{{Off: 0, Len: n}}
	}
	var out []DiffRange
	i := 0
	n := len(priv)
	for i < n {
		if priv[i] == twin[i] {
			i++
			continue
		}
		start := i
		end := i + 1
		gap := 0
		for j := end; j < n; j++ {
			if priv[j] != twin[j] {
				end = j + 1
				gap = 0
				continue
			}
			gap++
			if gap >= minGap {
				break
			}
		}
		out = append(out, DiffRange{Off: start, Len: end - start})
		i = end + gap
	}
	return out
}
