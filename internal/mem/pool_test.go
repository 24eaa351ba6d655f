package mem

import (
	"bytes"
	"testing"
)

const poolTestBase = 0x1000_0000

func poolTestSpace(t *testing.T) *Space {
	t.Helper()
	b, err := NewBacking("g", poolTestBase, 1<<20, DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	return NewSpace(1, []*Backing{b}, nil, true)
}

// TestPoolRecyclesBuffers verifies Commit actually returns priv/twin
// buffers and page records to the pool and the next sub-computation's
// first writes consume them instead of allocating.
func TestPoolRecyclesBuffers(t *testing.T) {
	s := poolTestSpace(t)
	const pages = 4
	for p := 0; p < pages; p++ {
		if _, err := s.StoreU64(Addr(poolTestBase+p*DefaultPageSize), 7); err != nil {
			t.Fatal(err)
		}
	}
	s.Commit()
	if got := len(s.pool.bufs); got != 2*pages {
		t.Fatalf("pool buffers after commit = %d, want %d (priv+twin per dirty page)", got, 2*pages)
	}
	if got := len(s.pool.metas); got != pages {
		t.Fatalf("pool page records after commit = %d, want %d", got, pages)
	}
	if _, err := s.StoreU64(poolTestBase, 8); err != nil {
		t.Fatal(err)
	}
	if got := len(s.pool.bufs); got != 2*pages-2 {
		t.Errorf("pool buffers after one first-write = %d, want %d (recycled, not allocated)", got, 2*pages-2)
	}
	if got := len(s.pool.metas); got != pages-1 {
		t.Errorf("pool page records after one first-write = %d, want %d", got, pages-1)
	}
}

// TestPoolRecycledTwinNoLeak pins the pool's safety property: a recycled
// private buffer is fully overwritten from the backing snapshot before
// use, and a recycled twin is never scrubbed but is read only at words a
// store of this sub-computation logged, so bytes written in a previous
// sub-computation can never show through into a later diff. A leak would
// surface as phantom committed bytes.
func TestPoolRecycledTwinNoLeak(t *testing.T) {
	s := poolTestSpace(t)
	// Sub-computation 1: poison a full page with 0xAA and commit, leaving
	// its buffers in the pool; then poison every pooled buffer outright,
	// whatever the commit left in it.
	poison := make([]byte, DefaultPageSize)
	for i := range poison {
		poison[i] = 0xAA
	}
	if _, err := s.Write(poolTestBase, poison); err != nil {
		t.Fatal(err)
	}
	res := s.Commit()
	if res.CommittedBytes != DefaultPageSize {
		t.Fatalf("poison commit = %+v, want full page", res)
	}
	if len(s.pool.bufs) != 2 {
		t.Fatalf("pool buffers after commit = %d, want 2", len(s.pool.bufs))
	}
	for _, b := range s.pool.bufs {
		copy(b, poison)
	}
	// Sub-computation 2: one-byte write to a different (zero) page. Its
	// priv and twin are the poisoned buffers. The priv re-initializes from
	// the backing; the twin keeps its poison everywhere but the one logged
	// word, and exactly one byte diffs.
	const page2 = poolTestBase + DefaultPageSize
	if _, err := s.StoreU8(page2+5, 1); err != nil {
		t.Fatal(err)
	}
	sp := s.pages[PageID(page2/DefaultPageSize)]
	if !bytes.Equal(sp.twin[8:], poison[8:]) {
		t.Fatal("twin beyond the logged word was rewritten; this test no longer shows that only logged words are read")
	}
	if sp.logged[0] != 1 || sp.logged[1] != 0 {
		t.Fatalf("logged bitmap = %b, want only word 0", sp.logged)
	}
	res = s.Commit()
	if res.DirtyPages != 1 || res.CommittedBytes != 1 {
		t.Errorf("commit after recycle = %+v, want exactly 1 committed byte (twin/priv leaked pool bytes?)", res)
	}
	// The backing page must hold only that byte.
	got := make([]byte, DefaultPageSize)
	if err := s.backingFor(page2).ReadAt(page2, got); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		want := byte(0)
		if i == 5 {
			want = 1
		}
		if v != want {
			t.Fatalf("backing byte %d = %#x, want %#x", i, v, want)
		}
	}
}

// TestPoolRecycledPageRecordIsCold verifies a recycled spacePage record
// carries no protection, buffers or logged words: the next
// sub-computation's first access to any page faults exactly as a cold
// page would, and logs only its own stores.
func TestPoolRecycledPageRecordIsCold(t *testing.T) {
	s := poolTestSpace(t)
	for w := 0; w < DefaultPageSize/8; w += 9 {
		if _, err := s.StoreU64(Addr(poolTestBase+8*w), 1); err != nil {
			t.Fatal(err)
		}
	}
	s.Commit()
	if len(s.pool.metas) != 1 {
		t.Fatalf("pool page records after commit = %d, want 1", len(s.pool.metas))
	}
	rec := s.pool.metas[0]
	if len(rec.logged) != DefaultPageSize/512 {
		t.Errorf("recycled record's bitmap has %d words, want %d (kept with the record)", len(rec.logged), DefaultPageSize/512)
	}
	for i, m := range rec.logged {
		if m != 0 {
			t.Errorf("recycled record's bitmap word %d = %b, want clear", i, m)
		}
	}
	base := s.Stats()
	// Same page again: must re-fault (write fault + twin copy), proving
	// the recycled record did not retain prot bits or a private copy.
	if _, err := s.StoreU64(poolTestBase+16, 2); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WriteFaults != base.WriteFaults+1 {
		t.Errorf("write faults = %d, want %d (recycled page record kept protection?)", st.WriteFaults, base.WriteFaults+1)
	}
	if st.TwinCopies != base.TwinCopies+1 {
		t.Errorf("twin copies = %d, want %d", st.TwinCopies, base.TwinCopies+1)
	}
	if sp := s.pages[PageID(poolTestBase/DefaultPageSize)]; sp != rec || sp.logged[0] != 1<<2 {
		t.Errorf("page record reused = %v, logged = %b; want the recycled record with only word 2 logged", sp == rec, sp.logged)
	}
}

// TestLastPageCacheBoundsChecked guards against the page cache letting an
// access slip past the end of a backing whose size is not a page multiple:
// the tail page extends beyond the region, so a cache hit on it must still
// segfault for addresses outside the backing, exactly as the scan path
// does.
func TestLastPageCacheBoundsChecked(t *testing.T) {
	b, err := NewBacking("odd", 0x1000, 100, 64)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSpace(1, []*Backing{b}, nil, true)
	// Valid access in the tail page (addresses 0x1040..0x1063) primes the
	// cache with that page.
	if _, err := s.StoreU8(0x1040, 1); err != nil {
		t.Fatal(err)
	}
	// 0x1070 is past the backing end (0x1064) but in the same page.
	if _, err := s.StoreU8(0x1070, 2); err == nil {
		t.Error("store past backing end succeeded via page cache, want segfault")
	}
	if err := s.Read(0x1070, make([]byte, 1)); err == nil {
		t.Error("read past backing end succeeded via page cache, want segfault")
	}
	// The valid tail-page address still works afterwards.
	if v, err := s.LoadU8(0x1040); err != nil || v != 1 {
		t.Errorf("valid tail-page load = %d, %v", v, err)
	}
}

// TestLastPageCacheInvalidatedByCommit guards the one-entry page cache:
// Commit drops every page, so a stale cache hit afterwards would bypass
// the fault discipline entirely.
func TestLastPageCacheInvalidatedByCommit(t *testing.T) {
	s := poolTestSpace(t)
	if _, err := s.StoreU64(poolTestBase, 1); err != nil {
		t.Fatal(err)
	}
	if v, err := s.LoadU64(poolTestBase); err != nil || v != 1 {
		t.Fatalf("load = %d, %v", v, err)
	}
	s.Commit()
	faults := s.Stats().Faults()
	if v, err := s.LoadU64(poolTestBase); err != nil || v != 1 {
		t.Fatalf("load after commit = %d, %v", v, err)
	}
	if got := s.Stats().Faults(); got != faults+1 {
		t.Errorf("faults after post-commit load = %d, want %d (stale page cache?)", got, faults+1)
	}
}
