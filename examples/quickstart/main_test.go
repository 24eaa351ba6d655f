package main

import (
	"strings"
	"testing"

	inspector "github.com/repro/inspector"
)

// TestFigureOneFlows: the quickstart's finding. The lock serializes the
// Figure-1 execution as T1.a, T2, T1.b, so y ends at 1, and both
// hand-overs of y are recorded twice — as a schedule dependency through
// mutex:shared and as a data dependency: T0.1 (x = ++y) → T1.1
// (y = 2 * x) and T1.1 → T0.5 (y = y / 2).
func TestFigureOneFlows(t *testing.T) {
	f, err := record()
	if err != nil {
		t.Fatal(err)
	}
	if f.finalY != 1 {
		t.Errorf("final y = %d, want 1", f.finalY)
	}
	for _, flow := range [][2]string{{"T0.1", "T1.1"}, {"T1.1", "T0.5"}} {
		var sync, data bool
		for _, e := range f.edges {
			if e.From.String() != flow[0] || e.To.String() != flow[1] {
				continue
			}
			switch e.Kind {
			case inspector.EdgeSync:
				sync = e.Object == "mutex:shared"
			case inspector.EdgeData:
				data = true
			}
		}
		if !sync || !data {
			t.Errorf("%s -> %s: sync through mutex:shared %v, data %v; want both", flow[0], flow[1], sync, data)
		}
	}
	var out strings.Builder
	f.print(&out)
	if !strings.HasPrefix(out.String(), "final y = 1\n") {
		t.Errorf("printed output does not open with the result:\n%s", out.String())
	}
}
