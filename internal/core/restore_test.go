package core_test

// A restored analysis — NewAnalysisFromSections over stored sections,
// the .cpg load path — is built by the fold's store as one epoch over
// an empty store. The flat newAnalysis (export_test.go: one sealed base,
// no overlay) is its spec: the two must be the same graph, answer every
// query alike and count the same stats, on either side of the
// compaction floor.

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/core/cpgbench"
	"github.com/repro/inspector/internal/cpgfile/cpgtest"
)

// TestRestoredAnalysisMatchesFlatReference restores random recordings'
// own sections (through NewAnalysisFromSections and through a .cpg
// round trip) and holds each restoration, and the Analyze it came from,
// to the flat reference over the same sections: .cpg bytes, Stats, and
// slice, taint, path and lineage answers for sampled vertices. The
// restoration must also be stored as Analyze stores it.
func TestRestoredAnalysisMatchesFlatReference(t *testing.T) {
	ctx := context.Background()
	sawLayer, sawBase := false, false
	for _, tc := range []struct{ threads, steps, pages, rw int }{
		{1, 12, 8, 1},
		{2, 40, 16, 2},
		{4, 150, 32, 3},
		{6, 900, 256, 6},
		{8, 2000, 64, 1},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			g := cpgbench.BuildRandomGraph(tc.threads, tc.steps, tc.pages, tc.rw, seed)
			if seed == 2 {
				g.AddGap(0, core.Gap{FromAlpha: 1, ToAlpha: 3, Kind: core.GapAuxLoss, Bytes: 64})
			}
			a := g.Analyze()
			syncEdges, dataEdges := a.EdgeSections()
			restored, err := core.NewAnalysisFromSections(g, a.ThreadLens(), a.Epoch(), syncEdges, dataEdges)
			if err != nil {
				t.Fatal(err)
			}
			flat := core.FlatAnalysis(a, syncEdges, dataEdges)
			want := cpgtest.Bytes(t, flat)
			loaded, _ := cpgtest.Decode(t, want)

			layers, baseRefs := core.StoreShape(restored)
			if l, b := core.StoreShape(a); l != layers || b != baseRefs {
				t.Fatalf("%+v seed %d: restored store is %d layers over a %d-ref base, Analyze's %d over %d",
					tc, seed, layers, baseRefs, l, b)
			}
			if refs := len(syncEdges) + len(dataEdges); refs > core.SuccCompactFloor {
				sawBase = sawBase || (layers == 0 && baseRefs == refs)
			} else {
				sawLayer = sawLayer || (layers == 1 && baseRefs == 0)
			}

			r := rand.New(rand.NewSource(seed))
			subs := a.Subs()
			for name, got := range map[string]*core.Analysis{"Analyze": a, "restored": restored, "loaded": loaded} {
				if !bytes.Equal(cpgtest.Bytes(t, got), want) {
					t.Fatalf("%+v seed %d: %s .cpg differs from the flat reference's", tc, seed, name)
				}
				if got.Stats() != flat.Stats() {
					t.Fatalf("%+v seed %d: %s Stats = %+v, flat reference %+v", tc, seed, name, got.Stats(), flat.Stats())
				}
				for range 12 {
					id, to := subs[r.Intn(len(subs))].ID, subs[r.Intn(len(subs))].ID
					page := uint64(r.Intn(tc.pages))
					for _, q := range []struct {
						what string
						ask  func(*core.Analysis) (any, error)
					}{
						{"slice", func(x *core.Analysis) (any, error) { return x.SliceCtx(ctx, id) }},
						{"taint", func(x *core.Analysis) (any, error) { return x.TaintedByCtx(ctx, id) }},
						{"path", func(x *core.Analysis) (any, error) { return x.PathCtx(ctx, id, to) }},
						{"lineage", func(x *core.Analysis) (any, error) { return x.PageLineageCtx(ctx, page, id) }},
					} {
						gotAns, gotErr := q.ask(got)
						wantAns, wantErr := q.ask(flat)
						if !reflect.DeepEqual(gotAns, wantAns) || (gotErr == nil) != (wantErr == nil) {
							t.Fatalf("%+v seed %d: %s %s at %v: %v (err %v), flat reference %v (err %v)",
								tc, seed, name, q.what, id, gotAns, gotErr, wantAns, wantErr)
						}
					}
				}
			}
		}
	}
	if !sawLayer || !sawBase {
		t.Fatalf("restorations covered one overlay layer: %v, one sealed base: %v; want both sides of the compaction floor", sawLayer, sawBase)
	}
}

// TestRestoredAnalysisStatsConcurrent: a restored analysis carries its
// totals from construction, so concurrent Stats calls read, never
// build, shared state (run it under -race).
func TestRestoredAnalysisStatsConcurrent(t *testing.T) {
	a := cpgbench.BuildRandomGraph(4, 600, 64, 4, 5).Analyze()
	syncEdges, dataEdges := a.EdgeSections()
	restored, err := core.NewAnalysisFromSections(a.Graph(), a.ThreadLens(), a.Epoch(), syncEdges, dataEdges)
	if err != nil {
		t.Fatal(err)
	}
	want := a.Stats()
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := restored.Stats(); got != want {
				t.Errorf("Stats = %+v, want %+v", got, want)
			}
		}()
	}
	wg.Wait()
}
