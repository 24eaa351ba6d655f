package core_test

// Tests of the epoch-delta capture/replay pair behind the crash-durable
// journal. The load-bearing property: replaying a FoldDelta sequence —
// ApplyDelta then Fold per delta, on a fresh graph — reproduces the
// recording's per-epoch Analyses byte-for-byte and its final graph dump
// exactly. That equivalence is what makes journal recovery a faithful
// reconstruction rather than a best-effort approximation.

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/repro/inspector/internal/core"
)

// dumpJSON renders a graph through the deterministic full-dump export.
func dumpJSON(t *testing.T, g *core.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.EncodeJSON(&buf); err != nil {
		t.Fatalf("EncodeJSON: %v", err)
	}
	return buf.Bytes()
}

// TestIncrementalDeltaReplayMatchesFold is the replay-equivalence
// property, across 1 and 4 threads and random fold prefixes: each
// FoldDelta's Analysis must export byte-identically to the Analysis a
// replica produces by ApplyDelta + Fold of the delta as its binary
// form carries it (wireRoundTrip), and after the final epoch the replica graph's dump must match
// the original's.
func TestIncrementalDeltaReplayMatchesFold(t *testing.T) {
	for _, threads := range []int{1, 4} {
		for seed := int64(0); seed < 8; seed++ {
			lr := newLiveRecording(t, threads, 48, seed)
			inc := core.NewIncrementalAnalyzer(lr.g)

			replica := core.NewGraph(threads)
			rinc := core.NewIncrementalAnalyzer(replica)

			foldR := rand.New(rand.NewSource(seed*7731 + 5))
			steps := 60 + int(seed)*17
			replay := func(s int) {
				a, d := inc.FoldDelta()
				if d.Epoch != a.Epoch() {
					t.Fatalf("threads=%d seed=%d step=%d: delta epoch %d, analysis epoch %d",
						threads, seed, s, d.Epoch, a.Epoch())
				}
				if err := core.ApplyDelta(replica, wireRoundTrip(t, d)); err != nil {
					t.Fatalf("threads=%d seed=%d step=%d: ApplyDelta: %v", threads, seed, s, err)
				}
				ra := rinc.Fold()
				if ra.Epoch() != a.Epoch() {
					t.Fatalf("threads=%d seed=%d step=%d: replica epoch %d, want %d",
						threads, seed, s, ra.Epoch(), a.Epoch())
				}
				if got, want := exportBytes(t, ra), exportBytes(t, a); !bytes.Equal(got, want) {
					t.Fatalf("threads=%d seed=%d step=%d: epoch %d replay diverges from fold",
						threads, seed, s, a.Epoch())
				}
			}
			for s := 0; s < steps; s++ {
				lr.step(t, 48)
				if foldR.Intn(9) == 0 {
					replay(s)
				}
			}
			lr.finish(t)
			replay(steps)
			if got, want := dumpJSON(t, replica), dumpJSON(t, lr.g); !bytes.Equal(got, want) {
				t.Fatalf("threads=%d seed=%d: replica dump diverges from original", threads, seed)
			}
		}
	}
}

// TestIncrementalDeltaCarriesGaps pins gap-interval capture: a gap
// recorded mid-run must ride exactly one delta and reappear in the
// replica's dump.
func TestIncrementalDeltaCarriesGaps(t *testing.T) {
	lr := newLiveRecording(t, 2, 16, 3)
	inc := core.NewIncrementalAnalyzer(lr.g)
	replica := core.NewGraph(2)
	rinc := core.NewIncrementalAnalyzer(replica)

	lr.step(t, 16)
	lr.g.AddGap(1, core.Gap{FromAlpha: 0, ToAlpha: 2, Kind: core.GapAuxLoss, Bytes: 64})
	_, d1 := inc.FoldDelta()
	if len(d1.Gaps) != 1 || d1.Gaps[0].Thread != 1 || d1.Gaps[0].Gap.Kind != core.GapAuxLoss {
		t.Fatalf("first delta gaps = %+v, want the one aux-loss gap on thread 1", d1.Gaps)
	}
	lr.step(t, 16)
	_, d2 := inc.FoldDelta()
	if len(d2.Gaps) != 0 {
		t.Fatalf("second delta re-emits gaps: %+v", d2.Gaps)
	}
	lr.finish(t)
	_, d3 := inc.FoldDelta()
	for _, d := range []*core.EpochDelta{d1, d2, d3} {
		if err := core.ApplyDelta(replica, d); err != nil {
			t.Fatalf("ApplyDelta: %v", err)
		}
		rinc.Fold()
	}
	if got, want := dumpJSON(t, replica), dumpJSON(t, lr.g); !bytes.Equal(got, want) {
		t.Fatal("replica dump (with gaps) diverges from original")
	}
	if !replica.Degraded() {
		t.Fatal("replica lost the gap marking")
	}
}

// TestApplyDeltaRejectsMalformed covers the validation surface: replay
// input passed a CRC but may still be forged or misordered, and must
// error rather than panic or mis-resolve.
func TestApplyDeltaRejectsMalformed(t *testing.T) {
	record := func() []*core.EpochDelta {
		lr := newLiveRecording(t, 2, 16, 9)
		inc := core.NewIncrementalAnalyzer(lr.g)
		var out []*core.EpochDelta
		for s := 0; s < 6; s++ {
			lr.step(t, 16)
			_, d := inc.FoldDelta()
			out = append(out, d)
		}
		lr.finish(t)
		_, d := inc.FoldDelta()
		return append(out, d)
	}
	deltas := record()

	apply := func(t *testing.T, ds ...*core.EpochDelta) error {
		t.Helper()
		g := core.NewGraph(2)
		var err error
		for _, d := range ds {
			if err = core.ApplyDelta(g, d); err != nil {
				return err
			}
		}
		return nil
	}

	if err := apply(t, deltas...); err != nil {
		t.Fatalf("clean replay rejected: %v", err)
	}
	if err := apply(t, nil); err == nil {
		t.Error("nil delta accepted")
	}
	if err := apply(t, deltas[1]); err == nil {
		t.Error("skipped first delta accepted (symbol base / alpha order must trip)")
	}
	if err := apply(t, deltas[0], deltas[0]); err == nil {
		t.Error("replayed duplicate delta accepted")
	}

	corrupt := func(mutate func(*core.EpochDelta)) error {
		d := wireRoundTrip(t, deltas[0]) // a deep copy
		mutate(d)
		return apply(t, d)
	}
	if err := corrupt(func(d *core.EpochDelta) { d.Lens = d.Lens[:1] }); err == nil {
		t.Error("short lens accepted")
	}
	if err := corrupt(func(d *core.EpochDelta) { d.Lens[0] += 3 }); err == nil {
		t.Error("inflated lens accepted")
	}
	if err := corrupt(func(d *core.EpochDelta) { d.SymBase = 0 }); err == nil {
		t.Error("symbol base 0 (re-carrying ref 0) accepted")
	}
	if err := corrupt(func(d *core.EpochDelta) { d.Symbols = append(d.Symbols, d.Symbols[0]) }); err == nil {
		t.Error("duplicate symbol tail accepted")
	}
	if err := corrupt(func(d *core.EpochDelta) { d.Subs[0].End.Object = 1 << 20 }); err == nil {
		t.Error("out-of-range object ref accepted")
	}
	if err := corrupt(func(d *core.EpochDelta) { d.Subs[0].ID.Thread = 7 }); err == nil {
		t.Error("out-of-range thread accepted")
	}
	if err := corrupt(func(d *core.EpochDelta) { d.Subs[0] = nil }); err == nil {
		t.Error("nil sub accepted")
	}
	if err := corrupt(func(d *core.EpochDelta) {
		d.Sync = append(d.Sync, core.DeltaSyncEdge{To: core.SubID{Thread: 5}})
	}); err == nil {
		t.Error("sync edge to out-of-range thread accepted")
	}
	if err := corrupt(func(d *core.EpochDelta) {
		d.Sync = append(d.Sync, core.DeltaSyncEdge{Object: 1 << 20})
	}); err == nil {
		t.Error("sync edge with out-of-range object accepted")
	}
	if err := corrupt(func(d *core.EpochDelta) {
		d.Gaps = append(d.Gaps, core.DeltaGap{Thread: 9})
	}); err == nil {
		t.Error("gap on out-of-range thread accepted")
	}
}

// TestApplyDeltaAtomic pins the trust-boundary guarantee the network
// ingest path leans on: a rejected delta leaves the graph byte-for-byte
// untouched — no interned symbols, no appended vertices, no gaps — no
// matter how late in the delta the defect sits, and the graph still
// accepts the genuine delta afterwards.
func TestApplyDeltaAtomic(t *testing.T) {
	lr := newLiveRecording(t, 2, 16, 11)
	inc := core.NewIncrementalAnalyzer(lr.g)
	var deltas []*core.EpochDelta
	for s := 0; s < 6; s++ {
		lr.step(t, 16)
		_, d := inc.FoldDelta()
		deltas = append(deltas, d)
	}
	lr.finish(t)
	_, d := inc.FoldDelta()
	deltas = append(deltas, d)

	g := core.NewGraph(2)
	for _, d := range deltas[:3] {
		if err := core.ApplyDelta(g, gobRoundTrip(t, d)); err != nil {
			t.Fatalf("ApplyDelta prefix: %v", err)
		}
	}
	before := dumpJSON(t, g)
	symsBefore := len(g.Symbols())

	// Each mutation trips validation at a different (and deliberately
	// late) stage, after earlier fields would already have been applied
	// under a validate-as-you-go scheme.
	next := deltas[3]
	mutations := map[string]func(*core.EpochDelta){
		"inflated lens (last check)": func(d *core.EpochDelta) { d.Lens[len(d.Lens)-1] += 3 },
		"gap on bad thread":          func(d *core.EpochDelta) { d.Gaps = append(d.Gaps, core.DeltaGap{Thread: 9}) },
		"sync edge to bad thread": func(d *core.EpochDelta) {
			d.Sync = append(d.Sync, core.DeltaSyncEdge{To: core.SubID{Thread: 5}})
		},
		"alpha out of order": func(d *core.EpochDelta) {
			if len(d.Subs) > 0 {
				d.Subs[len(d.Subs)-1].ID.Alpha += 7
			} else {
				d.Lens[0]++
			}
		},
		"duplicate symbol tail": func(d *core.EpochDelta) {
			if len(d.Symbols) > 0 {
				d.Symbols = append(d.Symbols, d.Symbols[0])
			} else {
				d.Symbols = append(d.Symbols, "", "")
			}
		},
	}
	for name, mutate := range mutations {
		bad := gobRoundTrip(t, next)
		mutate(bad)
		if err := core.ApplyDelta(g, bad); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if got := dumpJSON(t, g); !bytes.Equal(got, before) {
			t.Fatalf("%s: rejected delta mutated the graph", name)
		}
		if got := len(g.Symbols()); got != symsBefore {
			t.Fatalf("%s: rejected delta grew the symbol table (%d -> %d)", name, symsBefore, got)
		}
	}

	// The untouched graph must still take the genuine continuation.
	for _, d := range deltas[3:] {
		if err := core.ApplyDelta(g, gobRoundTrip(t, d)); err != nil {
			t.Fatalf("ApplyDelta after rejections: %v", err)
		}
	}
	if got, want := dumpJSON(t, g), dumpJSON(t, lr.g); !bytes.Equal(got, want) {
		t.Fatal("final dump diverges after rejected-delta interleaving")
	}
}
