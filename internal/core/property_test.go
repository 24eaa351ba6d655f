package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomExecution simulates a serialized interleaving of nThreads threads
// performing random page accesses and lock transfers over nLocks mutexes,
// producing a recorded CPG. Serializing the interleaving makes the test
// deterministic per seed while still exploring arbitrary sync orders.
func randomExecution(t *testing.T, r *rand.Rand, nThreads, nLocks, steps int) *Graph {
	t.Helper()
	g := NewGraph(nThreads)
	recs := make([]*Recorder, nThreads)
	for i := range recs {
		recs[i] = mustRecorder(t, g, i)
	}
	site := g.InternSite("b")
	lockObj := g.InternObject("lock")
	locks := make([]*SyncObject, nLocks)
	held := make([]int, nLocks) // -1 = free, else thread
	for i := range locks {
		locks[i] = g.NewSyncObject("lock", false)
		held[i] = -1
	}
	for s := 0; s < steps; s++ {
		th := r.Intn(nThreads)
		rec := recs[th]
		switch r.Intn(4) {
		case 0:
			rec.OnRead(uint64(r.Intn(12)))
		case 1:
			rec.OnWrite(uint64(r.Intn(12)))
		case 2:
			rec.OnBranch(site, r.Intn(2) == 0)
		case 3:
			l := r.Intn(nLocks)
			if held[l] == th {
				// Release it.
				sc, err := rec.EndSub(SyncEvent{Kind: SyncRelease, Object: lockObj}, 0)
				if err != nil {
					t.Fatal(err)
				}
				rec.Release(locks[l], sc)
				held[l] = -1
			} else if held[l] == -1 {
				// Acquire it.
				if _, err := rec.EndSub(SyncEvent{Kind: SyncAcquire, Object: lockObj}, 0); err != nil {
					t.Fatal(err)
				}
				rec.Acquire(locks[l])
				held[l] = th
			}
		}
	}
	// Close all threads.
	for _, rec := range recs {
		if _, err := rec.EndSub(SyncEvent{Kind: SyncNone}, 0); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestQuickRandomExecutionsVerify(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomExecution(t, r, 2+r.Intn(4), 1+r.Intn(3), 50+r.Intn(200))
		return g.Analyze().Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickDataEdgesConsistent(t *testing.T) {
	// Every data edge must (a) respect happens-before, (b) share at
	// least one page between the writer's write set and the reader's
	// read set, and (c) not be hidden by an intermediate writer.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomExecution(t, r, 2+r.Intn(3), 2, 100+r.Intn(150))
		for _, e := range g.DataEdges() {
			if !g.HappensBefore(e.From, e.To) {
				return false
			}
			sf, _ := g.Sub(e.From)
			st, _ := g.Sub(e.To)
			if len(e.Pages) == 0 {
				return false
			}
			for _, p := range e.Pages {
				if !sf.WriteSet.Contains(p) || !st.ReadSet.Contains(p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickMaximalWriterRule(t *testing.T) {
	// For any data edge (m -> n, page p), no writer w of p may satisfy
	// m -> w -> n.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomExecution(t, r, 3, 1, 150)
		subs := g.Subs()
		for _, e := range g.DataEdges() {
			for _, p := range e.Pages {
				for _, w := range subs {
					if w.ID == e.From || w.ID == e.To || !w.WriteSet.Contains(p) {
						continue
					}
					if g.HappensBefore(e.From, w.ID) && g.HappensBefore(w.ID, e.To) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestQuickHappensBeforeMatchesEdgeReachability(t *testing.T) {
	// Vector-clock happens-before must equal reachability over
	// control+sync edges (the clocks are redundant with the recorded
	// schedule — the decentralization claim of §IV-B).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomExecution(t, r, 2+r.Intn(3), 1+r.Intn(2), 120)
		a := g.Analyze()
		subs := g.Subs()
		reach := make(map[SubID]map[SubID]bool)
		for _, sc := range subs {
			reach[sc.ID] = make(map[SubID]bool)
			for _, d := range must(a.DescendantsCtx(bg, sc.ID, EdgeControl, EdgeSync)) {
				reach[sc.ID][d] = true
			}
		}
		for _, x := range subs {
			for _, y := range subs {
				if x.ID == y.ID {
					continue
				}
				hb := g.HappensBefore(x.ID, y.ID)
				if hb != reach[x.ID][y.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestQuickSliceContainsDataAncestors(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomExecution(t, r, 3, 2, 120)
		a := g.Analyze()
		for _, sc := range g.Subs() {
			slice := must(a.SliceCtx(bg, sc.ID))
			inSlice := make(map[SubID]bool, len(slice))
			for _, id := range slice {
				inSlice[id] = true
			}
			for _, anc := range must(a.AncestorsCtx(bg, sc.ID, EdgeData)) {
				if !inSlice[anc] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickExportRoundTripPreservesEdges rebuilds random graphs through
// the section surface a .cpg load uses (sections.go) — restored
// vertices, the sync-edge log, an Analysis assembled over the stored
// edge sections — and wants the same graph and the same edges back.
func TestQuickExportRoundTripPreservesEdges(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomExecution(t, r, 3, 2, 100)
		a := g.Analyze()
		syncEdges, dataEdges := a.EdgeSections()

		g2 := NewGraph(g.Threads())
		for _, s := range g.Symbols() {
			g2.InternSite(s) // same table, so refs carry over as they are
		}
		for _, sc := range a.Subs() {
			cp := *sc
			if err := g2.AppendSub(&cp); err != nil {
				return false
			}
		}
		for _, e := range syncEdges {
			g2.RestoreSyncEdge(e.From, e.To, g2.InternObject(e.Object))
		}
		a2, err := NewAnalysisFromSections(g2, a.ThreadLens(), a.Epoch(), syncEdges, dataEdges)
		if err != nil {
			return false
		}
		assertGraphsEqual(t, g, g2)
		return reflect.DeepEqual(a.Edges(), a2.Edges())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
