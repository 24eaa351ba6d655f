package core

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageSetBasics(t *testing.T) {
	s := NewPageSet()
	if s.Len() != 0 || s.Contains(1) {
		t.Fatal("new set not empty")
	}
	s.Add(5)
	s.Add(5)
	s.Add(3)
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if !s.Contains(5) || !s.Contains(3) || s.Contains(4) {
		t.Error("membership wrong")
	}
	got := s.Sorted()
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("Sorted = %v", got)
	}
}

func TestPageSetSpill(t *testing.T) {
	// Cross the inline → spill boundary in descending order, so inserts
	// exercise the shifting paths of both representations.
	s := NewPageSet()
	const n = 4 * pageSetInline
	for i := n; i >= 1; i-- {
		s.Add(uint64(i * 10))
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	got := s.Sorted()
	for i := 0; i < n; i++ {
		if got[i] != uint64((i+1)*10) {
			t.Fatalf("Sorted[%d] = %d", i, got[i])
		}
		if !s.Contains(uint64((i + 1) * 10)) {
			t.Fatalf("missing %d", (i+1)*10)
		}
		if s.Contains(uint64((i+1)*10 + 1)) {
			t.Fatalf("phantom %d", (i+1)*10+1)
		}
	}
}

func TestPageSetIntersect(t *testing.T) {
	a := NewPageSet()
	b := NewPageSet()
	for _, p := range []uint64{1, 2, 3, 4} {
		a.Add(p)
	}
	for _, p := range []uint64{3, 4, 5} {
		b.Add(p)
	}
	got := a.Intersect(b)
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("Intersect = %v", got)
	}
	// Symmetric.
	got2 := b.Intersect(a)
	if len(got2) != len(got) {
		t.Error("intersection not symmetric")
	}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("Intersects = false")
	}
	c := NewPageSet()
	c.Add(99)
	if a.Intersects(c) {
		t.Error("disjoint sets intersect")
	}
	if got := a.Intersect(c); len(got) != 0 {
		t.Errorf("disjoint Intersect = %v", got)
	}
}

func TestPageSetClone(t *testing.T) {
	a := NewPageSet()
	a.Add(1)
	b := a.Clone()
	b.Add(2)
	if a.Contains(2) {
		t.Error("clone aliases original")
	}
	if !b.Contains(1) {
		t.Error("clone missing original member")
	}
	// Clone a spilled set and check independence of the spill slice.
	for i := uint64(0); i < 3*pageSetInline; i++ {
		a.Add(i * 7)
	}
	c := a.Clone()
	c.Add(1_000_000)
	if a.Contains(1_000_000) || c.Len() != a.Len()+1 {
		t.Error("spilled clone aliases original")
	}
}

// TestQuickPageSetMatchesReference drives the hybrid PageSet and the
// retained map reference (PageSetMap) through identical random operation
// sequences and asserts every observable agrees — the property pinning
// the compact representation to its specification.
func TestQuickPageSetMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		hybrid := NewPageSet()
		ref := NewPageSetMap()
		other := NewPageSet()
		otherRef := NewPageSetMap()
		for op := 0; op < 200; op++ {
			p := uint64(r.Intn(40)) // small range forces duplicates
			switch r.Intn(4) {
			case 0, 1:
				hybrid.Add(p)
				ref.Add(p)
			case 2:
				other.Add(p)
				otherRef.Add(p)
			case 3:
				if hybrid.Contains(p) != ref.Contains(p) {
					return false
				}
			}
			if hybrid.Len() != ref.Len() {
				return false
			}
		}
		hs, rs := hybrid.Sorted(), ref.Sorted()
		if len(hs) != len(rs) {
			return false
		}
		for i := range hs {
			if hs[i] != rs[i] {
				return false
			}
		}
		hi, ri := hybrid.Intersect(other), ref.Intersect(otherRef)
		if len(hi) != len(ri) {
			return false
		}
		for i := range hi {
			if hi[i] != ri[i] {
				return false
			}
		}
		return hybrid.Intersects(other) == ref.Intersects(otherRef)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPageSetGobRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, pageSetInline, pageSetInline + 1, 100} {
		s := NewPageSet()
		for i := 0; i < n; i++ {
			s.Add(uint64(i * i))
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
			t.Fatal(err)
		}
		first := append([]byte(nil), buf.Bytes()...)
		var got PageSet
		if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
			t.Fatal(err)
		}
		gs, ss := got.Sorted(), s.Sorted()
		if len(gs) != len(ss) {
			t.Fatalf("n=%d: round trip lost pages: %v vs %v", n, gs, ss)
		}
		for i := range gs {
			if gs[i] != ss[i] {
				t.Fatalf("n=%d: round trip changed pages", n)
			}
		}
		// Canonical: re-encoding reproduces the bytes.
		var buf2 bytes.Buffer
		if err := gob.NewEncoder(&buf2).Encode(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, buf2.Bytes()) {
			t.Fatalf("n=%d: gob encoding not canonical", n)
		}
	}
}

func TestPageSetGobDecodeCorrupt(t *testing.T) {
	// A forged count far beyond the payload must error, not panic make.
	var s PageSet
	if err := s.GobDecode([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f}); err == nil {
		t.Error("forged huge count accepted")
	}
	if err := s.GobDecode(nil); err == nil {
		t.Error("empty payload accepted")
	}
	// Truncated page list: count 2 but only one varint follows.
	if err := s.GobDecode([]byte{2, 5}); err == nil {
		t.Error("truncated payload accepted")
	}
	// Zero delta (duplicate page) is non-canonical.
	if err := s.GobDecode([]byte{2, 5, 0}); err == nil {
		t.Error("non-ascending payload accepted")
	}
	// Delta wrapping uint64 must not smuggle in an unsorted set.
	wrap := []byte{2}
	wrap = append(wrap, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01) // first = 2^64-1
	wrap = append(wrap, 5)                                                          // prev+5 wraps
	if err := s.GobDecode(wrap); err == nil {
		t.Error("wrapping delta accepted")
	}
}

func TestPageSetJSON(t *testing.T) {
	s := NewPageSet()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "[]" {
		t.Fatalf("empty set = %s, want []", data)
	}
	s.Add(9)
	s.Add(2)
	data, err = json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "[2,9]" {
		t.Fatalf("set = %s, want [2,9]", data)
	}
}
