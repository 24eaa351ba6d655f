package core

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// buildChain records n sub-computations on one thread: a pure control
// chain T0.0 -> T0.1 -> ... -> T0.(n-1), with a data dependency riding
// along (every sub reads and rewrites page 7).
func buildChain(t *testing.T, n int) *Graph {
	t.Helper()
	g := NewGraph(1)
	r := mustRecorder(t, g, 0)
	ev := SyncEvent{Kind: SyncRelease, Object: g.InternObject("l")}
	for i := 0; i < n; i++ {
		r.OnRead(7)
		r.OnWrite(7)
		endSub(t, r, ev)
	}
	return g
}

func TestPathEdgeCases(t *testing.T) {
	// from == to: no chain, by definition.
	g, _ := buildFigure1(t)
	a := g.Analyze()
	if got := must(a.PathCtx(bg, SubID{Thread: 0, Alpha: 0}, SubID{Thread: 0, Alpha: 0})); got != nil {
		t.Errorf("self path = %+v", got)
	}

	// Unreachable pair: three threads with no synchronization between
	// them have no cross-thread edges at all.
	iso := NewGraph(3)
	for slot := 0; slot < 3; slot++ {
		r := mustRecorder(t, iso, slot)
		r.OnWrite(uint64(100 + slot)) // disjoint pages: no data edges
		endSub(t, r, SyncEvent{Kind: SyncNone})
	}
	ia := iso.Analyze()
	if got := must(ia.PathCtx(bg, SubID{Thread: 0, Alpha: 0}, SubID{Thread: 2, Alpha: 0})); got != nil {
		t.Errorf("path across disconnected threads = %+v", got)
	}

	// Filtered kinds yielding no path: a single-thread chain is connected
	// only by control (and data) edges, so a sync-only search finds
	// nothing even though a chain exists unrestricted.
	chain := buildChain(t, 3).Analyze()
	from, to := SubID{Thread: 0, Alpha: 0}, SubID{Thread: 0, Alpha: 2}
	if got := must(chain.PathCtx(bg, from, to)); len(got) == 0 {
		t.Fatal("unrestricted path missing on a control chain")
	}
	if got := must(chain.PathCtx(bg, from, to, EdgeSync)); got != nil {
		t.Errorf("sync-only path on a syncless chain = %+v", got)
	}
}

// countingCtx is the cancellation test hook: a context whose Err flips to
// Canceled after failAfter calls, counting how often the traversal
// actually probed it. It lets a test observe both that a traversal
// honors cancellation and how promptly it noticed.
type countingCtx struct {
	context.Context
	mu        sync.Mutex
	calls     int
	failAfter int
}

func (c *countingCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls >= c.failAfter {
		return context.Canceled
	}
	return nil
}

func (c *countingCtx) probes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func TestQueryCancellationStopsTraversal(t *testing.T) {
	const n = 8192
	a := buildChain(t, n).Analyze()
	last := SubID{Thread: 0, Alpha: n - 1}

	// The full closure visits every ancestor.
	if got := must(a.SliceCtx(bg, last)); len(got) != n-1 {
		t.Fatalf("full slice = %d ids, want %d", len(got), n-1)
	}

	// A context canceled at the first probe stops the walk at the first
	// cancellation check, not after the full 8k-vertex traversal.
	ctx := &countingCtx{Context: context.Background(), failAfter: 1}
	ids, err := a.SliceCtx(ctx, last)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SliceCtx err = %v, want context.Canceled", err)
	}
	if ids != nil {
		t.Errorf("canceled slice returned %d ids", len(ids))
	}
	if got := ctx.probes(); got != 1 {
		t.Errorf("traversal probed ctx %d times after cancellation, want 1", got)
	}

	// Letting a few checks pass before canceling still stops well short
	// of the full walk.
	ctx = &countingCtx{Context: context.Background(), failAfter: 3}
	if _, err := a.SliceCtx(ctx, last); !errors.Is(err, context.Canceled) {
		t.Fatalf("SliceCtx err = %v", err)
	}
	if got, max := ctx.probes(), n/cancelCheckEvery; got >= max {
		t.Errorf("traversal ran to completion: %d probes (full walk would be %d)", got, max)
	}

	// The other traversals honor cancellation the same way.
	if _, err := a.PathCtx(&countingCtx{Context: context.Background(), failAfter: 1},
		SubID{Thread: 0, Alpha: 0}, last); !errors.Is(err, context.Canceled) {
		t.Errorf("PathCtx err = %v", err)
	}
	if _, err := a.TaintedByCtx(&countingCtx{Context: context.Background(), failAfter: 1},
		SubID{Thread: 0, Alpha: 0}); !errors.Is(err, context.Canceled) {
		t.Errorf("TaintedByCtx err = %v", err)
	}
	if _, err := a.PageLineageCtx(&countingCtx{Context: context.Background(), failAfter: 1},
		7, last); !errors.Is(err, context.Canceled) {
		t.Errorf("PageLineageCtx err = %v", err)
	}
	if err := a.VerifyCtx(&countingCtx{Context: context.Background(), failAfter: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("VerifyCtx err = %v", err)
	}

	// A live context changes nothing.
	ids, err = a.SliceCtx(context.Background(), last)
	if err != nil || len(ids) != n-1 {
		t.Errorf("uncanceled SliceCtx = %d ids, %v", len(ids), err)
	}
}

// TestConcurrentReadOnlyQueries fires mixed slice/taint/lineage/path/
// verify traffic at one shared Analysis from many goroutines. Run under
// -race (CI does) this pins the read-only query contract the
// inspector-serve daemon depends on: one immutable Analysis, many
// concurrent clients, no synchronization required.
func TestConcurrentReadOnlyQueries(t *testing.T) {
	g := buildHandoffWeb(t, 4, 64)
	a := g.Analyze()
	lastU := SubID{Thread: 0, Alpha: uint64(g.shardLen(0) - 1)}

	wantSlice := must(a.SliceCtx(bg, lastU))
	wantTaint := must(a.TaintedByCtx(bg, SubID{Thread: 1, Alpha: 0}))

	const goroutines = 32
	const iters = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				switch (i + j) % 5 {
				case 0:
					got := must(a.SliceCtx(bg, lastU))
					if len(got) != len(wantSlice) {
						errs <- errors.New("concurrent slice diverged")
						return
					}
				case 1:
					got := must(a.TaintedByCtx(bg, SubID{Thread: 1, Alpha: 0}))
					if len(got) != len(wantTaint) {
						errs <- errors.New("concurrent taint diverged")
						return
					}
				case 2:
					a.PageLineageCtx(bg, uint64(i%8), lastU)
				case 3:
					a.PathCtx(bg, SubID{Thread: 1, Alpha: 0}, lastU)
				default:
					if err := a.Verify(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// buildHandoffWeb records a deterministic multi-thread execution: threads
// hand one mutex around round-robin for rounds rounds, each sub reading
// and writing a small rotating page set, producing a dense happens-before
// web with all three edge kinds.
func buildHandoffWeb(t *testing.T, threads, rounds int) *Graph {
	t.Helper()
	g := NewGraph(threads)
	lock := g.NewSyncObject("l", false)
	recs := make([]*Recorder, threads)
	for i := range recs {
		recs[i] = mustRecorder(t, g, i)
	}
	ev := SyncEvent{Kind: SyncRelease, Object: lock.Ref()}
	for round := 0; round < rounds; round++ {
		r := recs[round%threads]
		p := uint64(round % 8)
		r.OnRead(p)
		r.OnWrite((p + 1) % 8)
		sc := endSub(t, r, ev)
		r.Release(lock, sc)
		recs[(round+1)%threads].Acquire(lock)
	}
	for _, r := range recs {
		endSub(t, r, SyncEvent{Kind: SyncNone})
	}
	return g
}
