package main

import (
	"strings"
	"testing"
)

// TestPagesBindToTheirConsumersNode: the case study's finding. Every
// page some thread touches most is bound to that thread's node — and
// lies in that thread's private region — exclusively or as its dominant
// consumer; the shared page every worker polls is the one contended
// page, advised to interleave.
func TestPagesBindToTheirConsumersNode(t *testing.T) {
	f, err := advise()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	f.print(&out)
	lines := strings.Split(out.String(), "\n")
	if len(lines) != len(f.placements)+4 {
		t.Fatalf("printed %d lines for %d placements:\n%s", len(lines), len(f.placements), out.String())
	}
	var exclusive, dominant, contended int
	for i, pl := range f.placements {
		line := lines[i+1]
		if pl.thread < 0 {
			contended++
			if pl.page != f.sharedPage {
				t.Errorf("page %d is contended, want only the shared page %d", pl.page, f.sharedPage)
			}
			if !strings.HasSuffix(line, "interleave (no dominant consumer)") {
				t.Errorf("contended page %d printed as %q", pl.page, line)
			}
			continue
		}
		if pl.touches*2 <= pl.of {
			t.Errorf("page %d bound to T%d with %d of %d touches, not a majority", pl.page, pl.thread, pl.touches, pl.of)
		}
		start := uint64(f.regions[pl.thread])
		if first, last := start/4096, (start+pagesPerThread*4096-1)/4096; pl.page < first || pl.page > last {
			t.Errorf("page %d bound to T%d lies outside its region (pages %d..%d)", pl.page, pl.thread, first, last)
		}
		want := "bind to node " + []string{"0", "1"}[nodeOf(pl.thread)]
		if !strings.Contains(line, want) {
			t.Errorf("page %d of T%d printed as %q, want %q", pl.page, pl.thread, line, want)
		}
		if pl.exclusive {
			exclusive++
		} else {
			dominant++
		}
	}
	if exclusive != 28 || dominant != 3 || contended != 1 {
		t.Errorf("%d exclusive, %d dominant, %d contended pages, want 28, 3, 1", exclusive, dominant, contended)
	}
	if want := "summary: 28 exclusive pages, 3 dominant pages, 1 contended pages\n"; !strings.HasSuffix(out.String(), want) {
		t.Errorf("printed output does not end in %q:\n%s", want, out.String())
	}
}
