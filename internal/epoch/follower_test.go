package epoch_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/core/cpgbench"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/journal"
)

// askSink keeps the .cpg bytes of every epoch's analysis as the
// driver's own fold: the asking form every follower epoch is held to.
type askSink struct{ cpgs *[][]byte }

func (s askSink) Emit(e epoch.Epoch) error {
	var buf bytes.Buffer
	if err := cpgfile.Encode(&buf, e.Analysis(), cpgfile.Meta{}); err != nil {
		return err
	}
	*s.cpgs = append(*s.cpgs, buf.Bytes())
	return nil
}

func (askSink) Finish(uint64) error { return nil }

// TestFollowerMatchesAskedFoldEveryEpoch records random executions with
// sinks [asking sink, Follower] at every-1 and every-3 cadences: the
// follower observes every epoch exactly once, in order, and each is the
// driver's own fold of that epoch byte for byte.
func TestFollowerMatchesAskedFoldEveryEpoch(t *testing.T) {
	for _, threads := range []int{1, 4} {
		for _, every := range []uint64{1, 3} {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("threads=%d/every=%d/seed=%d", threads, every, seed), func(t *testing.T) {
					sched := cpgbench.DrawSchedule(threads, 60+int(seed)*20, 24, 2, seed)
					rp := sched.NewReplay()
					var asked, followed [][]byte
					var epochs []uint64
					f := epoch.NewFollower(threads, nil, func(a *core.Analysis, d *core.EpochDelta) {
						if a.Epoch() != d.Epoch {
							t.Errorf("follower analysis epoch %d handed out with delta %d", a.Epoch(), d.Epoch)
						}
						var buf bytes.Buffer
						if err := cpgfile.Encode(&buf, a, cpgfile.Meta{}); err != nil {
							t.Errorf("epoch %d encode: %v", d.Epoch, err)
							return
						}
						epochs = append(epochs, d.Epoch)
						followed = append(followed, buf.Bytes())
					})
					d := epoch.NewDriver(rp.Graph, epoch.Options{Every: every}, askSink{&asked}, f)
					hook := d.CommitHook()
					for s := 1; s <= sched.Steps(); s++ {
						rp.To(s)
						hook(core.SubID{})
					}
					if err := d.Close(); err != nil {
						t.Fatal(err)
					}
					if len(epochs) != int(d.Epoch()) || len(asked) != len(epochs) {
						t.Fatalf("driver cut %d epochs, asking sink saw %d, follower %d", d.Epoch(), len(asked), len(epochs))
					}
					for i, e := range epochs {
						if e != uint64(i+1) {
							t.Fatalf("follower observed epochs %v, want 1..%d in order", epochs, len(epochs))
						}
						if !bytes.Equal(followed[i], asked[i]) {
							t.Fatalf("epoch %d: follower's replay fold differs from the driver's fold", e)
						}
					}
				})
			}
		}
	}
}

// TestFollowerPanicLatches: a fold that panics at epoch k stops the
// follower alone. Close reports it by epoch, the journal listed first
// still holds and seals every epoch, Emit after the failure returns at
// once, and the follower leaves no goroutine behind.
func TestFollowerPanicLatches(t *testing.T) {
	const k = 7
	dir := t.TempDir()
	g := core.NewGraph(2)
	jw, err := journal.Create(journal.Options{Dir: dir, Threads: g.Threads(), Fsync: journal.PolicyNone})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	var folds atomic.Int64
	var observed []uint64
	f := epoch.NewFollower(g.Threads(), func(int) {
		if folds.Add(1) == k {
			panic("injected fold panic")
		}
	}, func(_ *core.Analysis, d *core.EpochDelta) { observed = append(observed, d.Epoch) })
	d := epoch.NewDriver(g, epoch.Options{}, jw, f)
	recordPingPong(t, g, d.CommitHook(), 40)
	cerr := d.Close()
	if cerr == nil || !strings.Contains(cerr.Error(), fmt.Sprintf("epoch %d:", k)) || !strings.Contains(cerr.Error(), "injected fold panic") {
		t.Fatalf("Close = %v, want the fold panic at epoch %d", cerr, k)
	}
	if want := []uint64{1, 2, 3, 4, 5, 6}; fmt.Sprint(observed) != fmt.Sprint(want) {
		t.Fatalf("observed epochs %v, want %v", observed, want)
	}

	emitted := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 2*4096+1 && err == nil; i++ {
			if e := f.Emit(epoch.Epoch{Delta: &core.EpochDelta{Epoch: uint64(100 + i)}}); e == nil {
				err = fmt.Errorf("Emit %d after the failure returned nil", i)
			}
		}
		emitted <- err
	}()
	select {
	case err := <-emitted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Emit after the failure blocked")
	}

	rep, err := journal.Recover(dir, journal.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sealed || rep.Degraded() || rep.Epoch != d.Epoch() {
		t.Fatalf("journal: sealed=%v degraded=%v epoch %d, driver cut %d", rep.Sealed, rep.Degraded(), rep.Epoch, d.Epoch())
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the follower", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// recordPingPong records n sub-computations alternating between two
// threads that hand one lock back and forth, calling hook after each.
func recordPingPong(t *testing.T, g *core.Graph, hook func(core.SubID), n int) {
	t.Helper()
	recs := make([]*core.Recorder, 2)
	for i := range recs {
		var err error
		if recs[i], err = core.NewRecorder(g, i, 0); err != nil {
			t.Fatal(err)
		}
	}
	lock := g.NewSyncObject("m", false)
	for i := 0; i < n; i++ {
		rec := recs[i%2]
		rec.OnRead(uint64(i % 7))
		rec.OnWrite(uint64(i % 5))
		sc, err := rec.EndSub(core.SyncEvent{Kind: core.SyncRelease, Object: lock.Ref()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		rec.Release(lock, sc)
		hook(sc.ID)
		recs[(i+1)%2].Acquire(lock)
	}
}
