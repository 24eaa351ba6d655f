package mem

import (
	"errors"
	"testing"
	"unsafe"
)

func mustBacking(t *testing.T, name string, base Addr, size, ps int) *Backing {
	t.Helper()
	b, err := NewBacking(name, base, size, ps)
	if err != nil {
		t.Fatalf("NewBacking(%s): %v", name, err)
	}
	return b
}

func TestProtString(t *testing.T) {
	tests := []struct {
		p    Prot
		want string
	}{
		{ProtNone, "--"}, {ProtRead, "r-"}, {ProtWrite, "-w"}, {ProtRead | ProtWrite, "rw"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("Prot(%d).String() = %q, want %q", tt.p, got, tt.want)
		}
	}
}

func TestAccessKindString(t *testing.T) {
	if AccessRead.String() != "read" || AccessWrite.String() != "write" {
		t.Error("access kind strings wrong")
	}
	if AccessKind(0).String() != "unknown" {
		t.Error("zero access kind should be unknown")
	}
}

func TestNewBackingValidation(t *testing.T) {
	if _, err := NewBacking("x", 0x1000, 4096, 100); !errors.Is(err, ErrMisalignment) {
		t.Errorf("non power-of-two page size: err = %v", err)
	}
	if _, err := NewBacking("x", 0x1001, 4096, 4096); !errors.Is(err, ErrBadRegion) {
		t.Errorf("unaligned base: err = %v", err)
	}
	if _, err := NewBacking("x", 0x1000, 0, 4096); !errors.Is(err, ErrBadRegion) {
		t.Errorf("zero size: err = %v", err)
	}
}

func TestBackingReadZeroFill(t *testing.T) {
	b := mustBacking(t, "g", 0x1000, 8192, 4096)
	buf := []byte{0xff, 0xff, 0xff}
	if err := b.ReadAt(0x1100, buf); err != nil {
		t.Fatal(err)
	}
	for i, v := range buf {
		if v != 0 {
			t.Errorf("byte %d = %#x, want zero fill", i, v)
		}
	}
}

func TestBackingWriteReadRoundTrip(t *testing.T) {
	b := mustBacking(t, "g", 0x1000, 16384, 4096)
	data := []byte("hello, shared memory")
	if _, err := b.WriteAt(0x1ff0, data, 1); err != nil {
		t.Fatal(err) // crosses a page boundary on purpose
	}
	got := make([]byte, len(data))
	if err := b.ReadAt(0x1ff0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Errorf("round trip = %q, want %q", got, data)
	}
}

func TestBackingOutOfRange(t *testing.T) {
	b := mustBacking(t, "g", 0x1000, 4096, 4096)
	var seg *SegfaultError
	if err := b.ReadAt(0x5000, make([]byte, 1)); !errors.As(err, &seg) {
		t.Errorf("out-of-range read: err = %v", err)
	}
	if err := b.ReadAt(0x1ffe, make([]byte, 8)); !errors.As(err, &seg) {
		t.Errorf("read past end: err = %v", err)
	}
	if _, err := b.WriteAt(0x0, []byte{1}, 0); !errors.Is(err, ErrUnmapped) {
		t.Errorf("unmapped write: err = %v", err)
	}
}

func TestFalseSharingConflicts(t *testing.T) {
	b := mustBacking(t, "g", 0x1000, 4096, 4096)
	// Thread 1 writes a line, thread 2 writes the same line: conflict.
	if c, _ := b.WriteAt(0x1000, []byte{1}, 1); c != 0 {
		t.Errorf("first write conflicts = %d, want 0", c)
	}
	if c, _ := b.WriteAt(0x1004, []byte{2}, 2); c != 1 {
		t.Errorf("second writer conflicts = %d, want 1", c)
	}
	// Once two threads have fought over the line it stays contended:
	// every subsequent write pays (the line ping-pongs in reality).
	if c, _ := b.WriteAt(0x1008, []byte{3}, 2); c != 1 {
		t.Errorf("write to contended line conflicts = %d, want 1 (sticky)", c)
	}
	// A different cache line does not conflict.
	if c, _ := b.WriteAt(0x1040, []byte{4}, 1); c != 0 {
		t.Errorf("different line conflicts = %d, want 0", c)
	}
}

// faultRecorder collects faults for assertions.
type faultRecorder struct {
	faults []Fault
}

func (f *faultRecorder) OnFault(ft Fault) { f.faults = append(f.faults, ft) }

func newTestSpace(t *testing.T, tracking bool) (*Space, *faultRecorder, *Backing) {
	t.Helper()
	b := mustBacking(t, "heap", 0x10000, 1<<20, 4096)
	rec := &faultRecorder{}
	return NewSpace(7, []*Backing{b}, rec, tracking), rec, b
}

func TestSpaceFirstTouchFaults(t *testing.T) {
	s, rec, _ := newTestSpace(t, true)
	buf := make([]byte, 4)

	if err := s.Read(0x10000, buf); err != nil {
		t.Fatal(err)
	}
	if len(rec.faults) != 1 || rec.faults[0].Kind != AccessRead {
		t.Fatalf("after first read: faults = %+v", rec.faults)
	}
	// Second read of same page: no new fault.
	if err := s.Read(0x10100, buf); err != nil {
		t.Fatal(err)
	}
	if len(rec.faults) != 1 {
		t.Fatalf("second read faulted: %+v", rec.faults)
	}
	// First write to same page: one write fault.
	if _, err := s.Write(0x10000, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if len(rec.faults) != 2 || rec.faults[1].Kind != AccessWrite {
		t.Fatalf("after first write: faults = %+v", rec.faults)
	}
	// Subsequent read and write: silent.
	if _, err := s.Write(0x10001, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Read(0x10002, buf); err != nil {
		t.Fatal(err)
	}
	if len(rec.faults) != 2 {
		t.Fatalf("silent accesses faulted: %+v", rec.faults)
	}
}

func TestSpaceWriteFirstImpliesReadable(t *testing.T) {
	s, rec, _ := newTestSpace(t, true)
	if _, err := s.Write(0x10000, []byte{9}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if err := s.Read(0x10000, buf); err != nil {
		t.Fatal(err)
	}
	if len(rec.faults) != 1 {
		t.Fatalf("read after write faulted: %+v", rec.faults)
	}
	if buf[0] != 9 {
		t.Errorf("read own write = %d, want 9", buf[0])
	}
	if got := s.ProtOf(0x10000); got != ProtRead|ProtWrite {
		t.Errorf("prot = %v, want rw", got)
	}
}

func TestSpaceIsolationUntilCommit(t *testing.T) {
	b := mustBacking(t, "heap", 0x10000, 1<<20, 4096)
	s1 := NewSpace(1, []*Backing{b}, nil, true)
	s2 := NewSpace(2, []*Backing{b}, nil, true)

	if _, err := s1.StoreU64(0x10000, 42); err != nil {
		t.Fatal(err)
	}
	// s2 must not see the uncommitted write (RC isolation).
	v, err := s2.LoadU64(0x10000)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("s2 saw uncommitted write: %d", v)
	}
	res := s1.Commit()
	if res.DirtyPages != 1 || res.CommittedBytes == 0 {
		t.Errorf("commit result = %+v", res)
	}
	// s2's view was established pre-commit; it must commit (drop) to see it.
	s2.Commit()
	v, err = s2.LoadU64(0x10000)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Errorf("s2 after sync = %d, want 42", v)
	}
}

func TestSpaceCommitLastWriterWins(t *testing.T) {
	b := mustBacking(t, "heap", 0x10000, 1<<20, 4096)
	s1 := NewSpace(1, []*Backing{b}, nil, true)
	s2 := NewSpace(2, []*Backing{b}, nil, true)

	if _, err := s1.StoreU64(0x10000, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.StoreU64(0x10000, 2); err != nil {
		t.Fatal(err)
	}
	s1.Commit()
	s2.Commit() // later commit wins
	s3 := NewSpace(3, []*Backing{b}, nil, true)
	v, err := s3.LoadU64(0x10000)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Errorf("value = %d, want 2 (last writer wins)", v)
	}
}

func TestSpaceCommitDisjointWritesMerge(t *testing.T) {
	// Two threads write disjoint halves of the same page; both commits
	// must survive (diff-based merge, not whole-page copy).
	b := mustBacking(t, "heap", 0x10000, 1<<20, 4096)
	s1 := NewSpace(1, []*Backing{b}, nil, true)
	s2 := NewSpace(2, []*Backing{b}, nil, true)

	if _, err := s1.StoreU64(0x10000, 111); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.StoreU64(0x10800, 222); err != nil {
		t.Fatal(err)
	}
	s1.Commit()
	s2.Commit()
	s3 := NewSpace(3, []*Backing{b}, nil, true)
	v1, _ := s3.LoadU64(0x10000)
	v2, _ := s3.LoadU64(0x10800)
	if v1 != 111 || v2 != 222 {
		t.Errorf("merged values = %d, %d; want 111, 222", v1, v2)
	}
}

func TestSpaceCommitResetsTracking(t *testing.T) {
	s, rec, _ := newTestSpace(t, true)
	if _, err := s.Write(0x10000, []byte{1}); err != nil {
		t.Fatal(err)
	}
	s.Commit()
	if s.TrackedPages() != 0 {
		t.Errorf("pages tracked after commit = %d", s.TrackedPages())
	}
	// Next access faults again (new sub-computation).
	if err := s.Read(0x10000, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if len(rec.faults) != 2 {
		t.Errorf("faults = %d, want 2", len(rec.faults))
	}
}

func TestSpaceNativeMode(t *testing.T) {
	s, rec, b := newTestSpace(t, false)
	if _, err := s.StoreU64(0x10000, 5); err != nil {
		t.Fatal(err)
	}
	if len(rec.faults) != 0 {
		t.Errorf("native mode faulted: %+v", rec.faults)
	}
	// Write is immediately visible in the backing (no isolation).
	got := make([]byte, 8)
	if err := b.ReadAt(0x10000, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Errorf("backing byte = %d, want 5", got[0])
	}
	if res := s.Commit(); res.DirtyPages != 0 {
		t.Errorf("native commit did work: %+v", res)
	}
}

func TestSpaceSegfault(t *testing.T) {
	const bad = 0xdead0000
	for _, c := range []struct {
		name     string
		tracking bool
		access   func(s *Space) error
		kind     AccessKind
	}{
		{"tracked Read", true, func(s *Space) error { return s.Read(bad, make([]byte, 1)) }, AccessRead},
		{"tracked LoadU64", true, func(s *Space) error { _, err := s.LoadU64(bad); return err }, AccessRead},
		{"tracked Write", true, func(s *Space) error { _, err := s.Write(bad, make([]byte, 3)); return err }, AccessWrite},
		{"tracked StoreU64", true, func(s *Space) error { _, err := s.StoreU64(bad, 1); return err }, AccessWrite},
		{"native Write", false, func(s *Space) error { _, err := s.Write(bad, make([]byte, 3)); return err }, AccessWrite},
	} {
		s, _, _ := newTestSpace(t, c.tracking)
		err := c.access(s)
		var seg *SegfaultError
		if !errors.As(err, &seg) {
			t.Fatalf("%s: err = %v, want SegfaultError", c.name, err)
		}
		if seg.Addr != bad {
			t.Errorf("%s: fault addr = %#x", c.name, uint64(seg.Addr))
		}
		if seg.Kind != c.kind {
			t.Errorf("%s: fault kind = %s, want %s", c.name, seg.Kind, c.kind)
		}
		if seg.Error() == "" {
			t.Errorf("%s: empty error message", c.name)
		}
	}
}

// TestSpaceFillsWholeCacheLines keeps each thread's space on cache lines
// of its own: spaces are allocated back to back and written by different
// threads on every tracked access.
func TestSpaceFillsWholeCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(Space{}); n%64 != 0 {
		t.Errorf("Space is %d bytes, want a multiple of 64; fix its padding", n)
	}
}

// TestNewSpaceRefusesMixedPageSizes pins one page size per space: a 4 KiB
// backing at [0x10000, 0x110000) and an 8 KiB one at 0x200000 would share
// page ids 256-271, and offsets would use the first backing's size.
func TestNewSpaceRefusesMixedPageSizes(t *testing.T) {
	small := mustBacking(t, "small", 0x10000, 1<<20, 4096)
	large := mustBacking(t, "large", 0x200000, 1<<20, 8192)
	defer func() {
		if recover() == nil {
			t.Error("NewSpace accepted backings of 4096- and 8192-byte pages")
		}
	}()
	NewSpace(1, []*Backing{small, large}, nil, true)
}

func TestSpaceStatsCounts(t *testing.T) {
	s, _, _ := newTestSpace(t, true)
	for i := 0; i < 10; i++ {
		if _, err := s.StoreU8(Addr(0x10000+i*4096), 1); err != nil {
			t.Fatal(err)
		}
	}
	s.Commit()
	st := s.Stats()
	if st.WriteFaults != 10 {
		t.Errorf("WriteFaults = %d, want 10", st.WriteFaults)
	}
	if st.TwinCopies != 10 {
		t.Errorf("TwinCopies = %d, want 10", st.TwinCopies)
	}
	if st.CommittedPages != 10 {
		t.Errorf("CommittedPages = %d, want 10", st.CommittedPages)
	}
	if st.Faults() != 10 {
		t.Errorf("Faults() = %d, want 10", st.Faults())
	}
	if st.Writes != 10 {
		t.Errorf("Writes = %d", st.Writes)
	}
}

func TestTypedAccessors(t *testing.T) {
	s, _, _ := newTestSpace(t, true)
	if _, err := s.StoreU32(0x10010, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v32, err := s.LoadU32(0x10010)
	if err != nil || v32 != 0xdeadbeef {
		t.Errorf("u32 = %#x, err=%v", v32, err)
	}
	if _, err := s.StoreF64(0x10018, 3.25); err != nil {
		t.Fatal(err)
	}
	f, err := s.LoadF64(0x10018)
	if err != nil || f != 3.25 {
		t.Errorf("f64 = %v, err=%v", f, err)
	}
	if _, err := s.StoreU8(0x10020, 200); err != nil {
		t.Fatal(err)
	}
	v8, err := s.LoadU8(0x10020)
	if err != nil || v8 != 200 {
		t.Errorf("u8 = %d, err=%v", v8, err)
	}
}

func TestDefaultLayoutDisjoint(t *testing.T) {
	l := DefaultLayout()
	type region struct {
		base Addr
		size int
	}
	regions := []region{
		{l.GlobalsBase, l.GlobalsSize},
		{l.HeapBase, l.HeapSize},
		{l.InputBase, l.InputSize},
	}
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			a, b := regions[i], regions[j]
			aEnd := uint64(a.base) + uint64(a.size)
			bEnd := uint64(b.base) + uint64(b.size)
			if uint64(a.base) < bEnd && uint64(b.base) < aEnd {
				t.Errorf("regions %d and %d overlap", i, j)
			}
		}
	}
}
