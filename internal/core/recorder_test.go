package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// The recorder's thunk storage: every published control path is the
// per-branch sequence, exact-size, and independent of what the recorder
// appends afterwards — whichever chunk boundaries it straddles.

// recordThunks records n branches into r's open sub-computation (every
// fifth an indirect transfer, each after k+i%7+1 instructions) and
// returns the thunks EndSub must publish.
func recordThunks(r *Recorder, k, n int) []Thunk {
	g := r.Graph()
	site, target := g.InternSite(fmt.Sprintf("site%d", k%5)), g.InternSite("target")
	var want []Thunk
	for i := 0; i < n; i++ {
		ins := uint64(k + i%7 + 1)
		r.OnInstructions(ins)
		th := Thunk{Index: uint64(i), Site: site, Instructions: ins}
		if i%5 == 4 {
			th.Indirect, th.Target = true, target
			r.OnIndirect(site, target)
		} else {
			th.Taken = (i+k)%3 == 0
			r.OnBranch(site, th.Taken)
		}
		want = append(want, th)
	}
	return want
}

// checkThunks fails unless got is want, exact-size, and nil when empty.
func checkThunks(t *testing.T, label string, got, want []Thunk) {
	t.Helper()
	if len(want) == 0 {
		if got != nil {
			t.Errorf("%s: branchless sub published %d thunks (nil=%v), want nil", label, len(got), got == nil)
		}
		return
	}
	if cap(got) != len(got) {
		t.Errorf("%s: published thunks have len %d cap %d, want cap == len", label, len(got), cap(got))
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s: published %d thunks, want the %d recorded (first differing: %v)", label, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(got, want []Thunk) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("[%d] %+v != %+v", i, got[i], want[i])
		}
	}
	return "length"
}

func TestThunkStorage(t *testing.T) {
	for _, chunk := range []int{minThunkChunk, maxThunkChunk} {
		sizes := []int{0, 1, chunk - 1, chunk, chunk + 1, 3*chunk + 5}
		// Each size on a fresh recorder (the sub starts a chunk), then
		// all of them in a row on one recorder, twice, so subs start at
		// every offset the previous ones leave.
		t.Run(fmt.Sprintf("chunk=%d/fresh", chunk), func(t *testing.T) {
			for _, n := range sizes {
				g := NewGraph(1)
				r := mustRecorder(t, g, 0)
				want := recordThunks(r, 0, n)
				checkThunks(t, fmt.Sprintf("n=%d", n), endSub(t, r, SyncEvent{}).Thunks, want)
			}
		})
		t.Run(fmt.Sprintf("chunk=%d/shared", chunk), func(t *testing.T) {
			g := NewGraph(1)
			r := mustRecorder(t, g, 0)
			var subs []*SubComputation
			var wants [][]Thunk
			for k, n := range append(sizes, sizes...) {
				want := recordThunks(r, k, n)
				sc := endSub(t, r, SyncEvent{})
				checkThunks(t, fmt.Sprintf("sub %d n=%d", k, n), sc.Thunks, want)
				// An append to a published slice must not reach the
				// recorder's chunk, so it must not show in the next sub.
				if grown := append(sc.Thunks, Thunk{Index: 1 << 40}); n > 0 && &grown[0] == &sc.Thunks[0] {
					t.Errorf("sub %d n=%d: an append to the published thunks wrote in place", k, n)
				}
				subs, wants = append(subs, sc), append(wants, want)
			}
			for k, sc := range subs {
				checkThunks(t, fmt.Sprintf("sub %d at the end", k), sc.Thunks, wants[k])
			}
		})
	}
}

// TestThunkStorageFailedAdd: an EndSub whose Graph.add fails leaves the
// thunk state as it was, so a retry publishes the same control path.
func TestThunkStorageFailedAdd(t *testing.T) {
	for _, n := range []int{0, 3, 5 * minThunkChunk} {
		g := NewGraph(1)
		r := mustRecorder(t, g, 0)
		recordThunks(r, 0, 7)
		endSub(t, r, SyncEvent{}) // the failing sub starts mid-chunk
		want := recordThunks(r, 1, n)
		type state struct {
			chunk       *Thunk
			chunkLen    int
			start, nfil int
			beta        uint64
		}
		snap := func() state {
			return state{unsafe.SliceData(r.chunk), len(r.chunk), r.start, len(r.filled), r.beta}
		}
		before := snap()
		r.cur.ID.Alpha = 2 // out of order: Graph.add refuses it
		if _, err := r.EndSub(SyncEvent{}, 0); err == nil {
			t.Fatalf("n=%d: EndSub at alpha 2 of a 1-vertex shard succeeded", n)
		}
		if after := snap(); after != before || r.cur.Thunks != nil {
			t.Errorf("n=%d: failed EndSub moved the thunk state %+v -> %+v (cur.Thunks %d)", n, before, after, len(r.cur.Thunks))
		}
		r.cur.ID.Alpha = 1
		checkThunks(t, fmt.Sprintf("n=%d retried", n), endSub(t, r, SyncEvent{}).Thunks, want)
	}
}

// TestThunkStorageConcurrentCut runs cuts and their wire encoding beside
// a recorder that keeps appending into the chunk the cut's vertices
// alias; under -race an overlapping write would be reported.
func TestThunkStorageConcurrentCut(t *testing.T) {
	g := NewGraph(1)
	r := mustRecorder(t, g, 0)
	sizes := []int{0, 1, 3, minThunkChunk + 1, 2, 7, 2*minThunkChunk + 3, 1}
	const subs = 400
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < subs; k++ {
			recordThunks(r, k, sizes[k%len(sizes)])
			if _, err := r.EndSub(SyncEvent{}, 0); err != nil {
				t.Error(err)
				return
			}
			if k%16 == 0 {
				runtime.Gosched()
			}
		}
	}()
	defer func() { <-done }()
	inc := NewIncrementalAnalyzer(g)
	seen := 0
	// Cut until the recorder is done, then once more for the rest.
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		b, err := inc.Cut().AppendWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		var back EpochDelta
		if err := back.ParseWire(b); err != nil {
			t.Fatal(err)
		}
		for _, sc := range back.Subs {
			k := int(sc.ID.Alpha)
			if n := sizes[k%len(sizes)]; len(sc.Thunks) != n {
				t.Fatalf("sub %d crossed the wire with %d thunks, want %d", k, len(sc.Thunks), n)
			}
			for i, th := range sc.Thunks {
				if th.Index != uint64(i) || th.Instructions != uint64(k+i%7+1) {
					t.Fatalf("sub %d thunk %d crossed the wire as %+v", k, i, th)
				}
			}
		}
		seen += len(back.Subs)
	}
	if seen != subs {
		t.Errorf("the cuts carried %d subs, want %d", seen, subs)
	}
}

// TestAllocsThunkPath pins what the per-branch path allocates: thunk
// storage per chunk, not per sub-computation, and a large sub-computation
// written once into chunks and copied once at EndSub. (Named Allocs*, so
// -race -run patterns never select it: the race detector allocates.)
func TestAllocsThunkPath(t *testing.T) {
	const subs = 10_000
	smallSubs := func(branches func(k int) int) func() {
		return func() {
			g := NewGraph(1)
			r := mustRecorder(t, g, 0)
			site := g.InternSite("s")
			for k := 0; k < subs; k++ {
				for range branches(k) {
					r.OnBranch(site, true)
				}
				endSub(t, r, SyncEvent{})
			}
		}
	}
	branchless := testing.AllocsPerRun(1, smallSubs(func(int) int { return 0 }))
	small := testing.AllocsPerRun(1, smallSubs(func(k int) int { return 1 + k%8 }))
	thunkAllocs := small - branchless
	t.Logf("%d subs of 1-8 thunks: %.0f allocations of thunk storage", subs, thunkAllocs)
	if thunkAllocs > subs/100 {
		t.Errorf("%d subs of 1-8 thunks allocate thunk storage %.0f times, want at most %d (per chunk, not per sub)", subs, thunkAllocs, subs/100)
	}

	const branches = 1 << 20
	oneSub := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		g := NewGraph(1)
		r := mustRecorder(t, g, 0)
		site := g.InternSite("s")
		for range n {
			r.OnBranch(site, false)
		}
		sc := endSub(t, r, SyncEvent{})
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(sc)
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated := oneSub(branches) - oneSub(0)
	final := uint64(branches) * uint64(unsafe.Sizeof(Thunk{}))
	t.Logf("one %d-branch sub: %d B allocated for %d B of thunks (%.2fx)", branches, allocated, final, float64(allocated)/float64(final))
	if float64(allocated) > 2.5*float64(final) {
		t.Errorf("one %d-branch sub allocates %d B, want at most 2.5x its %d B of thunks", branches, allocated, final)
	}
}
