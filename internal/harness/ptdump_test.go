package harness

import (
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// TestPerfDataEventsMatchDecode drives the one CLI hand-off nothing else
// does: inspector-run -perfdata P -imageout I writes the perf session
// and its image sidecar, and pt-dump -events -image I P, a separate
// process holding only those two files, must reconstruct exactly the
// branch events the recorder's own -decode counted in memory.
func TestPerfDataEventsMatchDecode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and forks children")
	}
	dir := t.TempDir()
	perfdata := filepath.Join(dir, "run.perfdata")
	img := filepath.Join(dir, "run.image")

	out := tool(t, "inspector-run", smallRun("histogram", 2, "-decode", "-perfdata", perfdata, "-imageout", img)...)
	m := regexp.MustCompile(`decoded branches: (\d+) events across (\d+) traces`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("no -decode line in the run report:\n%s", out)
	}
	wantEvents, _ := strconv.Atoi(string(m[1]))
	wantTraces, _ := strconv.Atoi(string(m[2]))
	if wantEvents == 0 || wantTraces < 2 {
		t.Fatalf("-decode reported %d events across %d traces; want a real multi-trace run", wantEvents, wantTraces)
	}

	out = tool(t, "pt-dump", "-events", "-image", img, perfdata)
	totals := regexp.MustCompile(`(?m)^  (\d+) events, (\d+) gaps$`).FindAllSubmatch(out, -1)
	if len(totals) != wantTraces {
		t.Fatalf("pt-dump reconstructed %d traces, -decode saw %d", len(totals), wantTraces)
	}
	got := 0
	for _, pid := range totals {
		n, _ := strconv.Atoi(string(pid[1]))
		got += n
		if string(pid[2]) != "0" {
			t.Errorf("pt-dump hit %s gaps in a lossless trace", pid[2])
		}
	}
	if got != wantEvents {
		t.Fatalf("pt-dump -events reconstructed %d events, inspector-run -decode reported %d", got, wantEvents)
	}
}
