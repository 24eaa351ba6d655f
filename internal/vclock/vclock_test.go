package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewIsZero(t *testing.T) {
	c := New(4)
	if len(c) != 4 {
		t.Fatalf("len = %d, want 4", len(c))
	}
	for i, v := range c {
		if v != 0 {
			t.Errorf("slot %d = %d, want 0", i, v)
		}
	}
}

func TestSetGet(t *testing.T) {
	c := New(2)
	c.Set(0, 7)
	if got := c.Get(0); got != 7 {
		t.Errorf("Get(0) = %d, want 7", got)
	}
	if got := c.Get(5); got != 0 {
		t.Errorf("out-of-range Get = %d, want 0", got)
	}
	if got := c.Get(-1); got != 0 {
		t.Errorf("negative Get = %d, want 0", got)
	}
}

func TestCopyIsIndependent(t *testing.T) {
	c := Clock{1, 2, 3}
	d := c.Copy()
	d.Set(0, 99)
	if c[0] != 1 {
		t.Errorf("copy aliased original: %v", c)
	}
}

func TestMergeTakesMax(t *testing.T) {
	a := Clock{1, 5, 3}
	b := Clock{2, 4, 3}
	a.Merge(b)
	want := Clock{2, 5, 3}
	if a.Compare(want) != Equal {
		t.Errorf("merge = %v, want %v", a, want)
	}
}

func TestMergeShorterOther(t *testing.T) {
	a := Clock{1, 1, 1}
	a.Merge(Clock{5})
	if a.Compare(Clock{5, 1, 1}) != Equal {
		t.Errorf("merge with shorter = %v", a)
	}
}

func TestCompareCases(t *testing.T) {
	tests := []struct {
		name string
		a, b Clock
		want Ordering
	}{
		{"equal", Clock{1, 2}, Clock{1, 2}, Equal},
		{"before", Clock{1, 2}, Clock{1, 3}, Before},
		{"before strict all", Clock{0, 0}, Clock{1, 1}, Before},
		{"after", Clock{4, 2}, Clock{1, 2}, After},
		{"concurrent", Clock{1, 0}, Clock{0, 1}, Concurrent},
		{"different widths equal", Clock{1, 0}, Clock{1}, Equal},
		{"different widths before", Clock{1}, Clock{1, 4}, Before},
		{"empty vs empty", Clock{}, Clock{}, Equal},
		{"empty vs nonzero", Clock{}, Clock{1}, Before},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Compare(tt.b); got != tt.want {
				t.Errorf("Compare(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	a := Clock{1, 2, 3}
	b := Clock{2, 2, 3}
	if a.Compare(b) != Before || b.Compare(a) != After {
		t.Errorf("antisymmetry violated: %v vs %v", a.Compare(b), b.Compare(a))
	}
}

func TestHappensBeforePredicates(t *testing.T) {
	a := Clock{1, 0}
	b := Clock{1, 1}
	if a.Compare(b) != Before {
		t.Error("a should happen before b")
	}
	if b.Compare(a) == Before {
		t.Error("b should not happen before a")
	}
	c := Clock{0, 2}
	if a.Compare(c) != Concurrent {
		t.Error("a and c should be concurrent")
	}
	if a.Compare(a) == Before {
		t.Error("happens-before must be irreflexive")
	}
}

func TestOrderingString(t *testing.T) {
	tests := []struct {
		o    Ordering
		want string
	}{
		{Equal, "="}, {Before, "->"}, {After, "<-"}, {Concurrent, "||"}, {Ordering(0), "?"},
	}
	for _, tt := range tests {
		if got := tt.o.String(); got != tt.want {
			t.Errorf("Ordering(%d).String() = %q, want %q", tt.o, got, tt.want)
		}
	}
}

func TestString(t *testing.T) {
	cases := map[string]Clock{"[]": {}, "[0]": {0}, "[1 2 3]": {1, 2, 3}, "[18446744073709551615]": {18446744073709551615}}
	for want, c := range cases {
		if got := c.String(); got != want {
			t.Errorf("String(%v) = %q, want %q", []uint64(c), got, want)
		}
	}
}

// merged returns a fresh clock holding the component-wise maximum of a
// and b (same width).
func merged(a, b Clock) Clock {
	out := a.Copy()
	out.Merge(b)
	return out
}

// randomClock generates bounded clocks so that quick-check explores
// comparable as well as concurrent pairs.
func randomClock(r *rand.Rand, n int) Clock {
	c := New(n)
	for i := range c {
		c[i] = uint64(r.Intn(4))
	}
	return c
}

func TestQuickMergeCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomClock(r, 5), randomClock(r, 5)
		return merged(a, b).Compare(merged(b, a)) == Equal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomClock(r, 5)
		return merged(a, a).Compare(a) == Equal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeAssociative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomClock(r, 4), randomClock(r, 4), randomClock(r, 4)
		return merged(merged(a, b), c).Compare(merged(a, merged(b, c))) == Equal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeDominates(t *testing.T) {
	// a <= merge(a,b) and b <= merge(a,b).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomClock(r, 5), randomClock(r, 5)
		m := merged(a, b)
		oa, ob := a.Compare(m), b.Compare(m)
		return (oa == Before || oa == Equal) && (ob == Before || ob == Equal)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareDual(t *testing.T) {
	// Compare(a,b) is the dual of Compare(b,a).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomClock(r, 4), randomClock(r, 4)
		ab, ba := a.Compare(b), b.Compare(a)
		switch ab {
		case Equal:
			return ba == Equal
		case Before:
			return ba == After
		case After:
			return ba == Before
		case Concurrent:
			return ba == Concurrent
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickHappensBeforeTransitive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomClock(r, 4)
		b := merged(a, randomClock(r, 4))
		b[0]++
		c := merged(b, randomClock(r, 4))
		c[1]++
		// a < b and b < c by construction, so a < c must hold.
		return a.Compare(b) == Before && b.Compare(c) == Before && a.Compare(c) == Before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkMerge(b *testing.B) {
	a := New(16)
	c := New(16)
	for i := range c {
		c[i] = uint64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Merge(c)
	}
}

func BenchmarkCompare(b *testing.B) {
	x := Clock{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	y := x.Copy()
	y[7] = 100
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Compare(y)
	}
}
