package provenance

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/repro/inspector/internal/core"
)

// liveFixture records sub-computations on demand so tests control
// exactly what each epoch can see.
type liveFixture struct {
	g    *core.Graph
	rec  *core.Recorder
	lock *core.SyncObject
}

func newLiveFixture(t *testing.T) *liveFixture {
	t.Helper()
	g := core.NewGraph(2)
	rec, err := core.NewRecorder(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &liveFixture{g: g, rec: rec, lock: g.NewSyncObject("l", false)}
}

// seal records one sub-computation touching the given page.
func (f *liveFixture) seal(t *testing.T, page uint64) {
	t.Helper()
	f.rec.OnRead(page)
	f.rec.OnWrite(page)
	sc, err := f.rec.EndSub(core.SyncEvent{Kind: core.SyncRelease, Object: f.lock.Ref()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.rec.Release(f.lock, sc)
	f.rec.Acquire(f.lock)
}

func TestLiveEngineEpochsAdvance(t *testing.T) {
	f := newLiveFixture(t)
	live := NewLiveEngine(f.g, EngineOptions{})
	defer live.Close()

	if live.Epoch() < 1 {
		t.Fatalf("initial epoch = %d, want >= 1", live.Epoch())
	}
	res, err := live.Engine().Execute(context.Background(), Query{Kind: KindStats})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SubComputations != 0 {
		t.Fatalf("empty live graph reports %d subs", res.Stats.SubComputations)
	}
	if res.Epoch == 0 {
		t.Fatal("live result carries no epoch")
	}

	f.seal(t, 7)
	before := live.Epoch()
	live.Notify()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	epoch, err := live.WaitEpoch(ctx, before+1)
	if err != nil {
		t.Fatalf("WaitEpoch: %v", err)
	}
	if epoch <= before {
		t.Fatalf("epoch did not advance: %d -> %d", before, epoch)
	}
	res, err = live.Engine().Execute(context.Background(), Query{Kind: KindStats})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SubComputations != 1 {
		t.Fatalf("after seal+fold: %d subs, want 1", res.Stats.SubComputations)
	}
	if res.Epoch != epoch {
		t.Fatalf("result epoch %d, engine epoch %d", res.Epoch, epoch)
	}
}

func TestLiveEngineCloseFoldsFinalEpoch(t *testing.T) {
	f := newLiveFixture(t)
	live := NewLiveEngine(f.g, EngineOptions{})
	// Seal after the initial fold but never Notify: only Close's final
	// fold can pick these up.
	f.seal(t, 1)
	f.seal(t, 2)
	live.Close()
	res, err := live.Engine().Execute(context.Background(), Query{Kind: KindStats})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SubComputations != 2 {
		t.Fatalf("final epoch sees %d subs, want 2", res.Stats.SubComputations)
	}
	// Idempotent.
	live.Close()
}

// TestFeedWaitEpochContract pins the WaitEpoch contract once, against
// the Feed, with its two embedders as inputs: satisfied, ctx done (an
// already-done ctx never parks), and closed-then-recheck.
func TestFeedWaitEpochContract(t *testing.T) {
	type subject struct {
		feed *Feed
		// advance publishes one more epoch; finish publishes a last one
		// and closes the feed behind it.
		advance, finish func()
	}
	subjects := map[string]func(t *testing.T) subject{
		"LiveEngine": func(t *testing.T) subject {
			f := newLiveFixture(t)
			live := NewLiveEngine(f.g, EngineOptions{})
			t.Cleanup(func() { live.Close() })
			return subject{
				feed:    live.Feed,
				advance: func() { f.seal(t, 1); live.Notify() },
				// Sealed but never notified: only Close's final fold
				// publishes it.
				finish: func() { f.seal(t, 2); live.Close() },
			}
		},
		"IngestSource": func(t *testing.T) subject {
			run := recordFabric(t, 2, 24, 7)
			src := newIngestSource("w", run.hello, EngineOptions{})
			// A one-delta batch: applied, then folded and published.
			apply := func() {
				if _, err := src.apply(run.deltas[src.Epoch()]); err != nil {
					t.Error(err)
				}
				src.flush()
			}
			apply()
			return subject{
				feed:    src.Feed,
				advance: apply,
				finish: func() {
					apply()
					if err := src.seal(src.Epoch()); err != nil {
						t.Error(err)
					}
				},
			}
		},
	}
	type outcome struct {
		epoch uint64
		err   error
	}
	// park starts a waiter on its own goroutine.
	park := func(ctx context.Context, f *Feed, min uint64) <-chan outcome {
		out := make(chan outcome, 1)
		go func() {
			e, err := f.WaitEpoch(ctx, min)
			out <- outcome{e, err}
		}()
		return out
	}
	for name, build := range subjects {
		t.Run(name, func(t *testing.T) {
			s := build(t)
			cur := s.feed.Epoch()
			if cur < 1 {
				t.Fatalf("fixture starts at epoch %d, want >= 1", cur)
			}
			done, cancel := context.WithCancel(context.Background())
			cancel()

			// Satisfied wins over a done ctx; unsatisfied, a done ctx
			// answers at once with the newest epoch.
			if e, err := s.feed.WaitEpoch(done, cur); e != cur || err != nil {
				t.Fatalf("WaitEpoch(done ctx, %d) = %d, %v; want satisfied", cur, e, err)
			}
			if e, err := s.feed.WaitEpoch(done, cur+1); e != cur || err != context.Canceled {
				t.Fatalf("WaitEpoch(done ctx, %d) = %d, %v; want %d, context.Canceled", cur+1, e, err, cur)
			}

			// A parked waiter gives up with its ctx...
			ctx, cancel := context.WithCancel(context.Background())
			parked := park(ctx, s.feed, cur+100)
			cancel()
			if got := <-parked; got.epoch != cur || got.err != context.Canceled {
				t.Fatalf("cancelled waiter = %+v, want epoch %d, context.Canceled", got, cur)
			}
			// ...and wakes on the publish that satisfies it.
			parked = park(context.Background(), s.feed, cur+1)
			s.advance()
			if got := <-parked; got.epoch != cur+1 || got.err != nil {
				t.Fatalf("woken waiter = %+v, want epoch %d", got, cur+1)
			}

			// An epoch published together with the close still satisfies;
			// one that can no longer arrive is ErrLiveClosed, alongside
			// the final epoch.
			met := park(context.Background(), s.feed, cur+2)
			short := park(context.Background(), s.feed, cur+3)
			s.finish()
			if got := <-met; got.epoch != cur+2 || got.err != nil {
				t.Fatalf("waiter for the final epoch = %+v, want epoch %d", got, cur+2)
			}
			if got := <-short; got.epoch != cur+2 || got.err != ErrLiveClosed {
				t.Fatalf("waiter past the final epoch = %+v, want epoch %d, ErrLiveClosed", got, cur+2)
			}
			if e, err := s.feed.WaitEpoch(context.Background(), cur+3); e != cur+2 || err != ErrLiveClosed {
				t.Fatalf("WaitEpoch on a closed feed = %d, %v; want %d, ErrLiveClosed", e, err, cur+2)
			}
		})
	}
}

// TestServerPinsEpochPerRequest serves a live graph and checks the
// provenance/v1 live contract: responses carry the epoch id, the listing
// reflects growth, and a request resolved at epoch N stays at epoch N
// even if the fold advances mid-request.
func TestServerPinsEpochPerRequest(t *testing.T) {
	f := newLiveFixture(t)
	live := NewLiveEngine(f.g, EngineOptions{})
	defer live.Close()
	srv := NewServerSources(map[string]Source{"live": live}, ServerOptions{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	getStats := func() *Result {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/cpgs/live/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stats status %d", resp.StatusCode)
		}
		var res Result
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return &res
	}

	first := getStats()
	if first.Epoch == 0 {
		t.Fatal("live stats response carries no epoch")
	}

	f.seal(t, 3)
	live.Notify()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := live.WaitEpoch(ctx, first.Epoch+1); err != nil {
		t.Fatal(err)
	}

	second := getStats()
	if second.Epoch <= first.Epoch {
		t.Fatalf("epoch did not advance across requests: %d -> %d", first.Epoch, second.Epoch)
	}
	if second.Stats.SubComputations != first.Stats.SubComputations+1 {
		t.Fatalf("subs %d -> %d, want +1", first.Stats.SubComputations, second.Stats.SubComputations)
	}

	// Listing carries the live epoch.
	resp, err := http.Get(ts.URL + "/v1/cpgs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list CPGList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.CPGs) != 1 || list.CPGs[0].Epoch < second.Epoch {
		t.Fatalf("listing = %+v, want live epoch >= %d", list.CPGs, second.Epoch)
	}

	// A paginated listing stays consistent against its pinned epoch: the
	// engine resolved for the request does not move even when folds
	// advance, so cursor math refers to one immutable sequence.
	eng := live.Engine()
	res1, err := eng.Execute(context.Background(), Query{Kind: KindEdges, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.seal(t, 9)
	live.Notify()
	if _, err := live.WaitEpoch(ctx, second.Epoch+1); err != nil {
		t.Fatal(err)
	}
	if res1.NextCursor != "" {
		res2, err := eng.Execute(context.Background(), Query{Kind: KindEdges, Limit: 1, Cursor: res1.NextCursor})
		if err != nil {
			t.Fatal(err)
		}
		if res2.Epoch != res1.Epoch {
			t.Fatalf("pinned engine changed epoch mid-pagination: %d -> %d", res1.Epoch, res2.Epoch)
		}
		if res2.Total != res1.Total {
			t.Fatalf("pinned engine total moved: %d -> %d", res1.Total, res2.Total)
		}
	}
}

// TestStaticResultsCarryNoEpoch pins backward compatibility: post-mortem
// engines report epoch 0 and the field stays off the wire entirely.
func TestStaticResultsCarryNoEpoch(t *testing.T) {
	f := newLiveFixture(t)
	f.seal(t, 5)
	eng := NewEngine(f.g.Analyze(), EngineOptions{})
	res, err := eng.Execute(context.Background(), Query{Kind: KindStats})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 0 {
		t.Fatalf("batch result epoch = %d, want 0", res.Epoch)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "epoch") {
		t.Fatalf("batch wire form leaks epoch: %s", data)
	}
}
