package core_test

// The cut/fold split: a recorder's Cutter cuts every epoch and an
// analyzer folds the cuts it adopted only when a consumer asks, so a
// fold may run many cuts after the epoch it seals.
// These tests hold such deferred folds to the eager FoldDelta at the
// same points, while the recording keeps appending between a cut and
// its fold.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile/cpgtest"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/wire"
)

// TestLazyFoldMatchesEagerFold drives two analyzers over one live graph:
// one runs FoldDelta after every step, the other adopts a Cutter's cut
// after every step and runs FoldAs at random steps only. Between a cut
// and the deferred fold the recording goes on — sync-log entries (an
// Acquire's, and entries into the already-cut prefix), gaps inside and
// past the prefix, and sync objects interned late — none of which the
// deferred fold may see.
// The two analyzers' deltas must be the same bytes, and every deferred
// analysis must equal the eager one at its epoch: export, Stats and
// Completeness. The eager completeness is also checked against the gaps
// the test recorded, clamped by hand, so the view's reuse of the
// previous epoch's summary is held to the spec, not to itself. A third
// analyzer of the graph adopts the same deltas only when it folds
// (refusing each a second time, which must change nothing), at the same
// points, a backlogged follower's path, held to the eager fold too.
func TestLazyFoldMatchesEagerFold(t *testing.T) {
	for _, threads := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("threads=%d/seed=%d", threads, seed), func(t *testing.T) {
				lazyMatchesEager(t, threads, 300, rand.New(rand.NewSource(seed*31+int64(threads))))
			})
		}
	}
}

func lazyMatchesEager(t *testing.T, threads, steps int, r *rand.Rand) {
	g := core.NewGraph(threads)
	recs := make([]*core.Recorder, threads)
	for i := range recs {
		rec, err := core.NewRecorder(g, i, 0)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
	}
	locks := []*core.SyncObject{g.NewSyncObject("m0", false)}
	eager := core.NewIncrementalAnalyzer(g)
	cutter := core.NewCutter(g)
	lazy := core.NewIncrementalAnalyzer(g)
	adopter := core.NewIncrementalAnalyzer(g)
	var backlog []core.Cut
	var ld core.EpochDelta
	// gaps mirrors every recorded gap, per thread in recording order.
	gaps := make([][]core.Gap, threads)
	addGap := func(th int, gp core.Gap) {
		g.AddGap(th, gp)
		gaps[th] = append(gaps[th], gp)
	}
	var eagerA *core.Analysis
	folds := 0
	for s := 0; s < steps; s++ {
		th := r.Intn(threads)
		rec := recs[th]
		for i := 0; i < 3; i++ {
			rec.OnRead(uint64(r.Intn(24)))
			rec.OnWrite(uint64(r.Intn(24)))
		}
		lock := locks[r.Intn(len(locks))]
		sc, err := rec.EndSub(core.SyncEvent{Kind: core.SyncRelease, Object: lock.Ref()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		rec.Release(lock, sc)
		if r.Intn(30) == 0 {
			addGap(th, core.Gap{FromAlpha: sc.ID.Alpha, ToAlpha: sc.ID.Alpha + uint64(r.Intn(3)), Kind: core.GapAuxLoss, Bytes: uint64(r.Intn(100))})
		}

		a, ed := eager.FoldDelta()
		lc := cutter.Cut()
		if err := lazy.Adopt(lc); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		backlog = append(backlog, lc)
		cutter.FillDelta(&ld)
		eagerA = a
		ew, err := ed.AppendWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		lw, err := ld.AppendWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ew, lw) {
			t.Fatalf("step %d: Cut's delta (epoch %d) is not FoldDelta's (epoch %d)", s, ld.Epoch, ed.Epoch)
		}
		if want := clampGaps(gaps, a.ThreadLens()); !reflect.DeepEqual(a.Completeness(), want) {
			t.Fatalf("step %d: completeness %+v, want %+v", s, a.Completeness(), want)
		}

		// The recording goes on before the lazy analyzer folds: an
		// acquire logs its entry (to the acquirer's next, unsealed
		// vertex), entries land inside the cut prefix, gaps are recorded
		// inside it and past it, and new sync objects are interned.
		rec.Acquire(locks[r.Intn(len(locks))])
		if r.Intn(8) == 0 {
			locks = append(locks, g.NewSyncObject(fmt.Sprintf("m%d", len(locks)), false))
		}
		if o := r.Intn(threads); threads > 1 && r.Intn(6) == 0 && a.ThreadLens()[o] > 0 && a.ThreadLens()[th] > 0 && o != th {
			from := core.SubID{Thread: o, Alpha: uint64(r.Intn(a.ThreadLens()[o]))}
			to := core.SubID{Thread: th, Alpha: uint64(r.Intn(a.ThreadLens()[th]))}
			g.LogSyncEdge(from, to, locks[len(locks)-1].Ref())
		}
		if r.Intn(10) == 0 {
			gt := r.Intn(threads)
			from := uint64(r.Intn(a.ThreadLens()[gt] + 3))
			addGap(gt, core.Gap{FromAlpha: from, ToAlpha: from + uint64(r.Intn(4)), Kind: core.GapTruncated})
		}

		if r.Intn(5) != 0 && s != steps-1 {
			continue
		}
		folds++
		la := lazy.FoldAs(lc.Epoch)
		if la.Epoch() != a.Epoch() {
			t.Fatalf("step %d: deferred fold is epoch %d, eager %d", s, la.Epoch(), a.Epoch())
		}
		if got, want := sha256.Sum256(exportBytes(t, la)), sha256.Sum256(exportBytes(t, a)); got != want {
			t.Fatalf("step %d: epoch %d deferred export differs from the eager one", s, a.Epoch())
		}
		for _, d := range backlog {
			if err := adopter.Adopt(d); err != nil {
				t.Fatalf("step %d: %v", s, err)
			}
			if err := adopter.Adopt(d); err == nil {
				t.Fatalf("step %d: epoch %d adopted twice", s, d.Epoch)
			}
		}
		backlog = backlog[:0]
		aa := adopter.FoldAs(lc.Epoch)
		if got, want := sha256.Sum256(exportBytes(t, aa)), sha256.Sum256(exportBytes(t, a)); got != want {
			t.Fatalf("step %d: epoch %d adopted fold's export differs from the eager one", s, a.Epoch())
		}
		if got, want := aa.Completeness(), a.Completeness(); !reflect.DeepEqual(got, want) || aa.Stats() != a.Stats() {
			t.Fatalf("step %d: epoch %d adopted completeness %+v, eager %+v", s, a.Epoch(), got, want)
		}
		if got, want := la.Stats(), a.Stats(); got != want {
			t.Fatalf("step %d: epoch %d deferred Stats %+v, eager %+v", s, a.Epoch(), got, want)
		}
		if got, want := la.Completeness(), a.Completeness(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: epoch %d deferred completeness %+v, eager %+v", s, a.Epoch(), got, want)
		}
	}
	if folds < 10 || eagerA.Epoch() != uint64(steps) {
		t.Fatalf("%d deferred folds over %d epochs: nothing exercised", folds, eagerA.Epoch())
	}
}

// clampGaps is the completeness spec: every recorded gap that starts
// inside the prefix, clamped to it.
func clampGaps(gaps [][]core.Gap, lens []int) core.Completeness {
	c := core.Completeness{Complete: true}
	for t, list := range gaps {
		var kept []core.Gap
		for _, gp := range list {
			if gp.FromAlpha >= uint64(lens[t]) {
				continue
			}
			gp.ToAlpha = min(gp.ToAlpha, uint64(lens[t])-1)
			kept = append(kept, gp)
			c.GapIntervals++
			c.LostBytes += gp.Bytes
		}
		if len(kept) > 0 {
			c.Complete = false
			c.GapThreads++
			c.Gaps = append(c.Gaps, core.ThreadGaps{Thread: t, Gaps: kept})
		}
	}
	return c
}

// TestCutsAndFoldsInterleave: a Cutter cuts every seal of a random
// recording into an epoch.Replayer while an analyzer of the same graph
// calls Fold at random steps, between a seal and its cut, and neither
// disturbs the other. Each Fold is the replay's fold after that step's
// cut (the epoch-free export), and at the end the replay's fold is the
// whole-graph fold at the final epoch, and the analyzer's the
// whole-graph fold at its own, as .cpg bytes. When one analyzer both cut
// and folded, this interleaving (Fold between Cuts) left the vertices
// each Fold's cut covered out of every later delta, and the replay
// refused the first delta after a Fold ("thread 0 has 3 vertices after
// delta, lens say 4").
func TestCutsAndFoldsInterleave(t *testing.T) {
	for _, threads := range []int{2, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("threads=%d/seed=%d", threads, seed), func(t *testing.T) {
				lr := newLiveRecording(t, threads, 32, seed)
				r := rand.New(rand.NewSource(seed))
				cutter := core.NewCutter(lr.g)
				rp := epoch.Bind(wire.Hello{Threads: threads})
				inc := core.NewIncrementalAnalyzer(lr.g)
				for s := 0; s < 300; s++ {
					lr.step(t, 32)
					var folded *core.Analysis
					if r.Intn(8) == 0 {
						folded = inc.Fold()
					}
					if err := rp.Append(core.CutDelta(cutter)); err != nil {
						t.Fatalf("step %d: %v", s, err)
					}
					if folded != nil && !bytes.Equal(exportBytes(t, folded), exportBytes(t, rp.Fold())) {
						t.Fatalf("step %d: Fold (epoch %d) differs from the replay's fold of the cuts", s, folded.Epoch())
					}
				}
				lr.finish(t)
				if err := rp.Append(core.CutDelta(cutter)); err != nil {
					t.Fatal(err)
				}
				final := cutter.Epoch()
				if got, want := cpgtest.Bytes(t, rp.Fold()), cpgtest.Bytes(t, lr.g.AnalyzeAs(final)); !bytes.Equal(got, want) {
					t.Errorf("the replay's fold of %d cuts is not the whole-graph fold at that epoch", final)
				}
				a := inc.Fold()
				if got, want := cpgtest.Bytes(t, a), cpgtest.Bytes(t, lr.g.AnalyzeAs(a.Epoch())); !bytes.Equal(got, want) || a.Epoch() >= final {
					t.Errorf("the analyzer's fold at epoch %d (of %d cuts) is not the whole-graph fold", a.Epoch(), final)
				}
			})
		}
	}
}

// TestAdoptRefusesCutBeyondGraph adopts a cut of another recording —
// the right epoch and symbol count, but longer lens than the
// analyzer's graph has published — which a fold would read past the
// graph's vertices. Adopt must refuse it and change nothing: the
// graph's own next cut still adopts, and folds to its Analyze.
func TestAdoptRefusesCutBeyondGraph(t *testing.T) {
	const threads, pages, seed = 4, 32, 7
	short := newLiveRecording(t, threads, pages, seed)
	long := newLiveRecording(t, threads, pages, seed)
	for range 5 {
		short.step(t, pages)
		long.step(t, pages)
	}
	shortCut, longCut := core.NewCutter(short.g), core.NewCutter(long.g)
	inc := core.NewIncrementalAnalyzer(short.g)
	if err := inc.Adopt(shortCut.Cut()); err != nil {
		t.Fatal(err)
	}
	longCut.Cut()
	for range 20 {
		long.step(t, pages)
	}
	foreign := longCut.Cut()
	if err := inc.Adopt(foreign); err == nil {
		t.Fatalf("adopted a cut of lens %v over a graph of %v vertices per thread", foreign.Lens, short.g.Analyze().ThreadLens())
	}
	short.step(t, pages)
	short.finish(t)
	own := shortCut.Cut()
	if own.Epoch != foreign.Epoch || own.Syms != foreign.Syms {
		t.Fatalf("the foreign cut is epoch %d over %d symbols, the graph's own next one %d over %d", foreign.Epoch, foreign.Syms, own.Epoch, own.Syms)
	}
	if err := inc.Adopt(own); err != nil {
		t.Fatalf("the graph's own next cut after a refusal: %v", err)
	}
	if got, want := exportBytes(t, inc.FoldAs(own.Epoch)), exportBytes(t, short.g.Analyze()); !bytes.Equal(got, want) {
		t.Fatal("the fold after a refused cut differs from Analyze")
	}
}
