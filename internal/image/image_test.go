package image

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestSiteRegistrationIdempotent(t *testing.T) {
	im := New()
	a, err := im.Site("loop.head", Conditional)
	if err != nil {
		t.Fatal(err)
	}
	b, err := im.Site("loop.head", Conditional)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same label returned different sites")
	}
	if im.Len() != 1 {
		t.Errorf("Len = %d, want 1", im.Len())
	}
}

func TestSiteKindConflict(t *testing.T) {
	im := New()
	if _, err := im.Site("x", Conditional); err != nil {
		t.Fatal(err)
	}
	if _, err := im.Site("x", Indirect); err == nil {
		t.Error("kind conflict not detected")
	}
}

func TestMustSitePanicsOnConflict(t *testing.T) {
	im := New()
	im.MustSite("x", Conditional)
	defer func() {
		if recover() == nil {
			t.Error("MustSite did not panic on conflict")
		}
	}()
	im.MustSite("x", Indirect)
}

func TestAddressMapping(t *testing.T) {
	im := New()
	s1 := im.MustSite("a", Conditional)
	s2 := im.MustSite("b", Indirect)
	if s1.Addr() != CodeBase {
		t.Errorf("first site addr = %#x, want %#x", s1.Addr(), uint64(CodeBase))
	}
	if s2.Addr() != CodeBase+SiteSpacing {
		t.Errorf("second site addr = %#x", s2.Addr())
	}
	if got := im.ByAddr(s2.Addr()); got != s2 {
		t.Errorf("ByAddr(%#x) = %v, want s2", s2.Addr(), got)
	}
	if got := im.ByAddr(s2.Addr() + 1); got != nil {
		t.Error("unaligned address resolved to a site")
	}
	if got := im.ByAddr(0x100); got != nil {
		t.Error("address below code base resolved")
	}
	if got := im.ByAddr(CodeBase + 100*SiteSpacing); got != nil {
		t.Error("address past last site resolved")
	}
}

func TestByIDAndLabel(t *testing.T) {
	im := New()
	s := im.MustSite("kmeans.assign", Conditional)
	if im.ByID(s.ID) != s {
		t.Error("ByID mismatch")
	}
	if im.ByID(999) != nil {
		t.Error("ByID out of range should be nil")
	}
	if im.ByLabel("kmeans.assign") != s {
		t.Error("ByLabel mismatch")
	}
	if im.ByLabel("nope") != nil {
		t.Error("unknown label should be nil")
	}
}

func TestLabelsSorted(t *testing.T) {
	im := New()
	im.MustSite("z", Conditional)
	im.MustSite("a", Conditional)
	im.MustSite("m", Indirect)
	got := im.Labels()
	want := []string{"a", "m", "z"}
	if len(got) != len(want) {
		t.Fatalf("Labels = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Labels[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestConcurrentRegistration(t *testing.T) {
	im := New()
	var wg sync.WaitGroup
	const threads = 8
	const perThread = 100
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perThread; j++ {
				// All threads register the same labels.
				im.MustSite(fmt.Sprintf("site%02d", j%20), Conditional)
			}
		}()
	}
	wg.Wait()
	if im.Len() != 20 {
		t.Errorf("Len = %d, want 20 (duplicates must dedupe)", im.Len())
	}
	// IDs must be dense and addresses unique.
	seen := make(map[uint64]bool)
	for i := 0; i < im.Len(); i++ {
		s := im.ByID(SiteID(i))
		if s == nil {
			t.Fatalf("missing site %d", i)
		}
		if seen[s.Addr()] {
			t.Errorf("duplicate address %#x", s.Addr())
		}
		seen[s.Addr()] = true
	}
}

// EdgeKey identifies one outcome of a conditional site for the
// reference edge table: (site, taken) -> successor.
type EdgeKey struct {
	Site  SiteID
	Taken bool
}

// EdgeMap is the reference control-flow-edge table, the executable
// specification the dense EdgeTable is held to: a plain map from
// (site, taken) to successor.
type EdgeMap map[EdgeKey]SiteID

// Lookup returns the recorded successor, if any.
func (m EdgeMap) Lookup(site SiteID, taken bool) (SiteID, bool) {
	id, ok := m[EdgeKey{Site: site, Taken: taken}]
	return id, ok
}

// Record stores successor for (site, taken) and reports whether the entry
// changed (was absent or held a different successor).
func (m EdgeMap) Record(site SiteID, taken bool, succ SiteID) bool {
	k := EdgeKey{Site: site, Taken: taken}
	old, ok := m[k]
	if ok && old == succ {
		return false
	}
	m[k] = succ
	return true
}

func TestEdgeTable(t *testing.T) {
	tbl := NewEdgeTable()
	if _, ok := tbl.Lookup(1, true); ok {
		t.Error("empty table lookup succeeded")
	}
	if !tbl.Record(1, true, 2) {
		t.Error("first record should report change")
	}
	if tbl.Record(1, true, 2) {
		t.Error("identical record should not report change")
	}
	if !tbl.Record(1, true, 3) {
		t.Error("deviating record should report change")
	}
	got, ok := tbl.Lookup(1, true)
	if !ok || got != 3 {
		t.Errorf("Lookup = %d,%v; want 3,true", got, ok)
	}
	// taken and not-taken are independent edges.
	tbl.Record(1, false, 9)
	gotT, _ := tbl.Lookup(1, true)
	gotF, _ := tbl.Lookup(1, false)
	if gotT != 3 || gotF != 9 {
		t.Errorf("edges = %d/%d, want 3/9", gotT, gotF)
	}
	if tbl.Len() != 2 {
		t.Errorf("Len = %d, want 2", tbl.Len())
	}
}

// TestQuickEdgeTableMatchesMap drives random operation sequences through
// the dense table and the reference map independently and requires
// identical observable behaviour: arbitrary Lookup/Record mixes over 64
// sites, and the pattern the PT encoder and decoder run per conditional
// branch — a Lookup, then a Record on a miss or a deviating successor —
// over 2–10 sites and up to 1 500 branches, the shape of pt's random
// branch streams.
func TestQuickEdgeTableMatchesMap(t *testing.T) {
	lookup := func(dense *EdgeTable, ref EdgeMap, site SiteID, taken bool) (SiteID, bool, bool) {
		dID, dOK := dense.Lookup(site, taken)
		rID, rOK := ref.Lookup(site, taken)
		return dID, dOK, dOK == rOK && (!dOK || dID == rID)
	}
	mixed := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dense := NewEdgeTable()
		ref := make(EdgeMap)
		for i := 0; i < 200; i++ {
			site := SiteID(r.Intn(64))
			taken := r.Intn(2) == 1
			if r.Intn(3) == 0 {
				succ := SiteID(r.Intn(64))
				if dense.Record(site, taken, succ) != ref.Record(site, taken, succ) {
					return false
				}
			} else if _, _, same := lookup(dense, ref, site, taken); !same {
				return false
			}
		}
		return true
	}
	branches := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dense := NewEdgeTable()
		ref := make(EdgeMap)
		nsites := 2 + r.Intn(9)
		for i, n := 0, 1+r.Intn(1500); i < n; i++ {
			site, taken, next := SiteID(r.Intn(nsites)), r.Intn(2) == 1, SiteID(r.Intn(nsites))
			succ, ok, same := lookup(dense, ref, site, taken)
			if !same {
				return false
			}
			if (!ok || succ != next) && !(dense.Record(site, taken, next) && ref.Record(site, taken, next)) {
				return false
			}
		}
		return dense.Len() == len(ref)
	}
	for name, f := range map[string]func(int64) bool{"mixed": mixed, "branches": branches} {
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSiteKindString(t *testing.T) {
	if Conditional.String() != "cond" || Indirect.String() != "indirect" {
		t.Error("kind strings wrong")
	}
	if SiteKind(0).String() != "unknown" {
		t.Error("zero kind should be unknown")
	}
}
