package core_test

// Analysis.Stats reads its per-vertex sums from the totals the fold
// carries (or, for a flat construction, from one lazy walk); walkStats
// recounts every counter from the prefix's vertices and edges, and the
// tests hold the two equal on every construction path: folds at random
// prefixes, per-seal folds through the overlay, an epoch.Replayer's
// batch folds, Graph.Analyze, and a .cpg loaded back.

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/epoch"
)

// walkStats is the specification of Analysis.Stats: one walk over the
// prefix's vertices and its materialized edges.
func walkStats(a *core.Analysis) core.Stats {
	comp := a.Completeness()
	st := core.Stats{GapThreads: comp.GapThreads, GapIntervals: comp.GapIntervals, LostTraceBytes: comp.LostBytes}
	for t, n := range a.ThreadLens() {
		if n > 0 {
			st.Threads++
		}
		for alpha := 0; alpha < n; alpha++ {
			sc, ok := a.Graph().Sub(core.SubID{Thread: t, Alpha: uint64(alpha)})
			if !ok {
				panic("prefix vertex missing from the graph")
			}
			st.SubComputations++
			st.Thunks += len(sc.Thunks)
			st.ReadSetPages += sc.ReadSet.Len()
			st.WriteSetPages += sc.WriteSet.Len()
		}
	}
	for _, e := range a.Edges() {
		switch e.Kind {
		case core.EdgeControl:
			st.ControlEdges++
		case core.EdgeSync:
			st.SyncEdges++
		case core.EdgeData:
			st.DataEdges++
		}
	}
	return st
}

// checkStats fails unless a's Stats equals the walk.
func checkStats(t *testing.T, what string, a *core.Analysis) core.Stats {
	t.Helper()
	got, want := a.Stats(), walkStats(a)
	if got != want {
		t.Fatalf("%s (epoch %d): Stats = %+v, vertex walk = %+v", what, a.Epoch(), got, want)
	}
	return got
}

// statsRun is a recorded random execution with branches, page accesses,
// lock transfers and a trace-loss gap, folded through FoldDelta at the
// given cadence.
type statsRun struct {
	g        *core.Graph
	analyses []*core.Analysis
	deltas   []*core.EpochDelta
}

// recordStatsRun records steps sub-computations over threads recorders,
// folding an epoch whenever fold(step) says so and once at the end.
func recordStatsRun(t *testing.T, threads, steps int, seed int64, fold func(step int) bool) *statsRun {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	g := core.NewGraph(threads)
	recs := make([]*core.Recorder, threads)
	for i := range recs {
		rec, err := core.NewRecorder(g, i, 0)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
	}
	sites := []core.SiteRef{g.InternSite("b0"), g.InternSite("b1")}
	lock := g.NewSyncObject("l", false)
	inc := core.NewIncrementalAnalyzer(g)
	run := &statsRun{g: g}
	foldNow := func() {
		a, d := inc.FoldDelta()
		run.analyses = append(run.analyses, a)
		run.deltas = append(run.deltas, d)
	}
	for s := 0; s < steps; s++ {
		rec := recs[r.Intn(threads)]
		for i := r.Intn(4); i > 0; i-- {
			rec.OnRead(uint64(r.Intn(48)))
			rec.OnWrite(uint64(r.Intn(48)))
		}
		for i := r.Intn(3); i > 0; i-- {
			rec.OnBranch(sites[r.Intn(len(sites))], r.Intn(2) == 0)
		}
		if s == steps/2 {
			rec.MarkGap(core.Gap{FromAlpha: rec.Alpha(), ToAlpha: rec.Alpha() + 1, Kind: core.GapAuxLoss, Bytes: 64})
		}
		sc, err := rec.EndSub(core.SyncEvent{Kind: core.SyncRelease, Object: lock.Ref()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		rec.Release(lock, sc)
		rec.Acquire(lock)
		if fold(s) {
			foldNow()
		}
	}
	for _, rec := range recs {
		if _, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
			t.Fatal(err)
		}
	}
	foldNow()
	return run
}

// TestStatsMatchVertexWalk holds the fold-carried Stats to the walk at
// every epoch of runs folded at random prefixes and once per seal (the
// latter deep enough to stack and reseal the overlay), and holds
// Graph.Analyze and the flat construction over the same sections to it.
func TestStatsMatchVertexWalk(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		run := recordStatsRun(t, 2+int(seed%3), 80+r.Intn(160), seed, func(int) bool { return r.Intn(9) == 0 })
		for _, a := range run.analyses {
			checkStats(t, "random-prefix fold", a)
		}
		final := run.analyses[len(run.analyses)-1]
		batch := checkStats(t, "Graph.Analyze", run.g.Analyze())
		if got := final.Stats(); got != batch {
			t.Fatalf("seed %d: final fold Stats = %+v, Graph.Analyze = %+v", seed, got, batch)
		}
		syncEdges, dataEdges := final.EdgeSections()
		flat, err := core.NewAnalysisFromSections(run.g, final.ThreadLens(), final.Epoch(), syncEdges, dataEdges)
		if err != nil {
			t.Fatal(err)
		}
		checkStats(t, "NewAnalysisFromSections", flat)
	}

	perSeal := recordStatsRun(t, 4, 1500, 99, func(int) bool { return true })
	for _, a := range perSeal.analyses {
		checkStats(t, "per-seal fold", a)
	}
}

// TestStatsReplayerBatchFolds replays a per-seal run's deltas through an
// epoch.Replayer in random batches: each batch fold is numbered by its
// last delta and is the recorder's epoch of that number, export and
// Stats; the final
// one, written to a .cpg and loaded back, still does — and re-encoding
// the loaded analysis reproduces the file byte for byte.
func TestStatsReplayerBatchFolds(t *testing.T) {
	run := recordStatsRun(t, 3, 400, 7, func(int) bool { return true })
	r := rand.New(rand.NewSource(7))
	rp := epoch.NewReplayer(run.g.Threads())
	var last *core.Analysis
	for i := 0; i < len(run.deltas); {
		end := min(i+1+r.Intn(40), len(run.deltas))
		for ; i < end; i++ {
			if err := rp.Append(run.deltas[i]); err != nil {
				t.Fatal(err)
			}
		}
		last = rp.Fold()
		want := run.analyses[end-1]
		if last.Epoch() != want.Epoch() {
			t.Fatalf("batch fold through delta %d is epoch %d, want %d", end, last.Epoch(), want.Epoch())
		}
		if !bytes.Equal(exportBytes(t, last), exportBytes(t, want)) {
			t.Fatalf("epoch %d: batch fold export differs from the recorder's", last.Epoch())
		}
		if got := checkStats(t, "Replayer batch fold", last); got != want.Stats() {
			t.Fatalf("epoch %d: replayed Stats = %+v, recorder's = %+v", last.Epoch(), got, want.Stats())
		}
	}

	path := filepath.Join(t.TempDir(), "run.cpg")
	meta := cpgfile.Meta{RunID: "stats", App: "stats"}
	if err := cpgfile.Write(path, last, meta); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := cpgfile.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := checkStats(t, "loaded .cpg", loaded); got != last.Stats() {
		t.Fatalf("loaded Stats = %+v, written = %+v", got, last.Stats())
	}
	m, err := cpgfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if stored, err := m.Stats(); err != nil || stored != last.Stats() {
		t.Fatalf("stats section = %+v (err %v), want %+v", stored, err, last.Stats())
	}
	again := filepath.Join(t.TempDir(), "again.cpg")
	if err := cpgfile.Write(again, loaded, meta); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(again); err != nil || !bytes.Equal(a, b) {
		t.Fatalf("re-encoding the loaded .cpg changed its bytes (err %v)", err)
	}
}
