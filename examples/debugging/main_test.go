package main

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestLineageExplainsTheBalance: the case study's finding. Whichever
// order the scheduler picked, the final read's lineage names the worker
// that wrote last — the fee collector if the balance is 1350 (deposit
// first), the depositor if it is 1400 (fee first) — and that write
// consumed the other worker's.
func TestLineageExplainsTheBalance(t *testing.T) {
	f, err := investigate()
	if err != nil {
		t.Fatal(err)
	}
	var last, first int
	switch f.final {
	case 1350:
		last, first = f.feeCollector, f.depositor
	case 1400:
		last, first = f.depositor, f.feeCollector
	default:
		t.Fatalf("final balance %d, want 1350 or 1400", f.final)
	}
	if len(f.lineage.Lineages) != 1 {
		t.Fatalf("the final read has %d lineages, want 1: %+v", len(f.lineage.Lineages), f.lineage.Lineages)
	}
	lin := f.lineage.Lineages[0]
	onThread := func(id string, slot int) bool { return strings.HasPrefix(id, fmt.Sprintf("T%d.", slot)) }
	if !onThread(lin.Writer, last) {
		t.Errorf("balance %d came from a write in %s, want one on thread %d", f.final, lin.Writer, last)
	}
	if !slices.ContainsFunc(lin.Upstream, func(id string) bool { return onThread(id, first) }) {
		t.Errorf("the write in %s consumed %v, want the earlier worker's (thread %d) write among them", lin.Writer, lin.Upstream, first)
	}
	var out strings.Builder
	f.print(&out)
	if want := "value came from a write in " + lin.Writer; !strings.Contains(out.String(), want) {
		t.Errorf("printed output lacks %q:\n%s", want, out.String())
	}
}
