package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/core/cpgbench"
)

// closureSpec answers closures the reference way: a BFS over an
// analysis's flat edge list from id, forward or backward, over the given
// kinds (all if none), then a sort by (thread, alpha). id itself is
// excluded.
type closureSpec struct {
	succs, preds map[core.SubID][]core.Edge
}

func newClosureSpec(a *core.Analysis) closureSpec {
	spec := closureSpec{succs: map[core.SubID][]core.Edge{}, preds: map[core.SubID][]core.Edge{}}
	for _, e := range a.Edges() {
		spec.succs[e.From] = append(spec.succs[e.From], e)
		spec.preds[e.To] = append(spec.preds[e.To], e)
	}
	return spec
}

func (spec closureSpec) closure(id core.SubID, forward bool, kinds ...core.EdgeKind) []core.SubID {
	adj := spec.preds
	if forward {
		adj = spec.succs
	}
	seen := map[core.SubID]bool{id: true}
	var out []core.SubID
	for queue := []core.SubID{id}; len(queue) > 0; queue = queue[1:] {
		for _, e := range adj[queue[0]] {
			next := e.From
			if forward {
				next = e.To
			}
			if (len(kinds) == 0 || slices.Contains(kinds, e.Kind)) && !seen[next] {
				seen[next] = true
				out = append(out, next)
				queue = append(queue, next)
			}
		}
	}
	slices.SortFunc(out, func(x, y core.SubID) int {
		if x == y {
			return 0
		}
		if x.Less(y) {
			return -1
		}
		return 1
	})
	return out
}

func mustIDs(ids []core.SubID, err error) []core.SubID {
	if err != nil {
		panic(err)
	}
	return ids
}

// checkClosures holds the three closure queries to closureSpec for 40
// random start vertices.
func checkClosures(t *testing.T, name string, a *core.Analysis, r *rand.Rand) {
	t.Helper()
	spec := newClosureSpec(a)
	lens := a.ThreadLens()
	for probe := 0; probe < 40; probe++ {
		th := r.Intn(len(lens))
		if lens[th] == 0 {
			continue
		}
		id := core.SubID{Thread: th, Alpha: uint64(r.Intn(lens[th]))}
		for _, c := range []struct {
			query string
			got   []core.SubID
			want  []core.SubID
		}{
			{"ancestors", mustIDs(a.AncestorsCtx(bg, id)), spec.closure(id, false)},
			{"ancestors/data", mustIDs(a.AncestorsCtx(bg, id, core.EdgeData)), spec.closure(id, false, core.EdgeData)},
			{"descendants", mustIDs(a.DescendantsCtx(bg, id)), spec.closure(id, true)},
			{"descendants/control+sync", mustIDs(a.DescendantsCtx(bg, id, core.EdgeControl, core.EdgeSync)),
				spec.closure(id, true, core.EdgeControl, core.EdgeSync)},
			{"taint", mustIDs(a.TaintedByCtx(bg, id)), spec.closure(id, true, core.EdgeData)},
		} {
			if slices.Contains(c.got, id) {
				t.Fatalf("%s: %s(%v) contains its own start vertex", name, c.query, id)
			}
			if !slices.Equal(c.got, c.want) {
				t.Fatalf("%s: %s(%v) = %v\nreference BFS + sort = %v", name, c.query, id, c.got, c.want)
			}
		}
	}
}

// TestClosureOrderMatchesReference holds AncestorsCtx, DescendantsCtx
// and TaintedByCtx — which read their result off the visited bitmap in
// dense-index order instead of sorting it — to a BFS-then-sort reference,
// over the epochs of a per-seal fold, whose adjacency is an overlay
// stack, and over a one-fold analysis, whose adjacency is one sealed
// base.
func TestClosureOrderMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, threads := range []int{1, 3, 8} {
		sched := cpgbench.DrawSchedule(threads, 2000, 24, 2, int64(60+threads))
		rp := sched.NewReplay()
		inc := core.NewIncrementalAnalyzer(rp.Graph)
		overlays := 0
		for s := 1; s <= sched.Steps(); s++ {
			rp.To(s)
			a, _ := inc.FoldDelta()
			if s%401 != 0 && s != sched.Steps() {
				continue
			}
			if layers, _, _, _ := inc.OverlayShape(); layers > 0 {
				overlays++
			}
			checkClosures(t, fmt.Sprintf("threads=%d per-seal epoch %d", threads, a.Epoch()), a, r)
		}
		one := core.NewIncrementalAnalyzer(rp.Graph)
		a := one.Fold()
		if layers, _, baseRefs, _ := one.OverlayShape(); layers != 0 || baseRefs == 0 {
			t.Fatalf("threads=%d: one fold left %d overlay layers over a %d-ref base, want a sealed base only", threads, layers, baseRefs)
		}
		if overlays == 0 {
			t.Fatalf("threads=%d: no checked per-seal epoch had an overlay layer", threads)
		}
		checkClosures(t, fmt.Sprintf("threads=%d one fold", threads), a, r)
	}
}
