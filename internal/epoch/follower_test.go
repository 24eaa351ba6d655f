package epoch_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
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
	"github.com/repro/inspector/internal/wire"
)

// twinSink folds a second analyzer over the driver's graph at every
// epoch (FoldDelta) and keeps each analysis's .cpg bytes: the live
// graph's own fold, which every follower epoch is held to. The
// recordings here seal from one goroutine, so the twin's cut is the
// driver's.
type twinSink struct {
	inc  *core.IncrementalAnalyzer
	cpgs *[][]byte
}

func newTwin(g *core.Graph, cpgs *[][]byte) twinSink {
	return twinSink{core.NewIncrementalAnalyzer(g), cpgs}
}

func (s twinSink) Emit(c core.Cut, _ epoch.Frame) error {
	a, td := s.inc.FoldDelta()
	if td.Epoch != c.Epoch {
		return fmt.Errorf("twin cut epoch %d beside the driver's %d", td.Epoch, c.Epoch)
	}
	var buf bytes.Buffer
	if err := cpgfile.Encode(&buf, a, cpgfile.Meta{}); err != nil {
		return err
	}
	*s.cpgs = append(*s.cpgs, buf.Bytes())
	return nil
}

func (twinSink) Finish(uint64) error { return nil }

// replaySink applies every epoch's frame to a Replayer and folds it at
// a random batching (always at the final epoch), keeping each fold's
// .cpg bytes by epoch: the apply side, held to the follower and the
// twin. The cut the replay adopts after each frame must be the
// recorder's: the same lengths of every log and the same symbol count.
type replaySink struct {
	rp   *epoch.Replayer
	rng  *rand.Rand
	cpgs map[uint64][]byte
}

func (s *replaySink) Emit(c core.Cut, frame epoch.Frame) error {
	b, err := frame()
	if err != nil {
		return err
	}
	kind, body, _, err := wire.ParseFrame(b, 0)
	if err != nil {
		return err
	}
	if _, err := s.rp.Apply(kind, body); err != nil {
		return err
	}
	if got := s.rp.Adopted(); !reflect.DeepEqual(got, c) {
		return fmt.Errorf("the replay adopted %+v after epoch %d, the recorder cut %+v", got, c.Epoch, c)
	}
	if s.rng.Intn(3) == 0 {
		return s.fold()
	}
	return nil
}

func (s *replaySink) fold() error {
	a := s.rp.Fold()
	var buf bytes.Buffer
	if err := cpgfile.Encode(&buf, a, cpgfile.Meta{}); err != nil {
		return err
	}
	s.cpgs[a.Epoch()] = buf.Bytes()
	return nil
}

func (s *replaySink) Finish(uint64) error {
	if s.rp.Pending() {
		return s.fold()
	}
	return nil
}

// TestFollowerMatchesAskedFoldEveryEpoch records random executions with
// sinks [twin fold, replay, Follower] at every-1 and every-3 cadences,
// recording on while the follower folds: the follower observes every
// epoch exactly once, in order, folding the recorder's own graph, and
// each is the live graph's FoldDelta of that epoch byte for byte; the
// replay adopts the recorder's cut after every frame and, folded at a
// random batching of the same frames, is the live fold too at every
// epoch it folded, the final one included.
func TestFollowerMatchesAskedFoldEveryEpoch(t *testing.T) {
	for _, threads := range []int{1, 4} {
		for _, every := range []uint64{1, 3} {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("threads=%d/every=%d/seed=%d", threads, every, seed), func(t *testing.T) {
					sched := cpgbench.DrawSchedule(threads, 60+int(seed)*20, 24, 2, seed)
					rp := sched.NewReplay()
					var asked, followed [][]byte
					var epochs []uint64
					f := epoch.NewFollower(rp.Graph, nil, epoch.ObserverFunc(func(a *core.Analysis, e uint64) {
						if a.Epoch() != e {
							t.Errorf("follower analysis epoch %d handed out as epoch %d", a.Epoch(), e)
						}
						if a.Graph() != rp.Graph {
							t.Errorf("epoch %d: the follower folded a graph other than the recorder's", e)
						}
						var buf bytes.Buffer
						if err := cpgfile.Encode(&buf, a, cpgfile.Meta{}); err != nil {
							t.Errorf("epoch %d encode: %v", e, err)
							return
						}
						epochs = append(epochs, e)
						followed = append(followed, buf.Bytes())
					}))
					replay := &replaySink{epoch.Bind(wire.Hello{Threads: threads}), rand.New(rand.NewSource(seed)), map[uint64][]byte{}}
					d := epoch.NewDriver(rp.Graph, epoch.Options{Every: every}, newTwin(rp.Graph, &asked), replay, f)
					hook := d.CommitHook()
					for s := 1; s <= sched.Steps(); s++ {
						rp.To(s)
						hook(core.SubID{})
					}
					if err := d.Close(); err != nil {
						t.Fatal(err)
					}
					if len(epochs) != int(d.Epoch()) || len(asked) != len(epochs) {
						t.Fatalf("driver cut %d epochs, twin folded %d, follower %d", d.Epoch(), len(asked), len(epochs))
					}
					for i, e := range epochs {
						if e != uint64(i+1) {
							t.Fatalf("follower observed epochs %v, want 1..%d in order", epochs, len(epochs))
						}
						if !bytes.Equal(followed[i], asked[i]) {
							t.Fatalf("epoch %d: follower's fold differs from the live graph's fold", e)
						}
					}
					if replay.cpgs[d.Epoch()] == nil {
						t.Fatalf("the replay never folded the final epoch %d", d.Epoch())
					}
					for e, b := range replay.cpgs {
						if e == 0 || e > uint64(len(asked)) || !bytes.Equal(b, asked[e-1]) {
							t.Fatalf("epoch %d: the replay's fold differs from the live graph's fold", e)
						}
					}
				})
			}
		}
	}
}

// TestFollowerRefusesForeignDelta hands a follower epoch 1 of a
// recording and then a cut that does not continue it — one that skips
// an epoch, or epoch 2 of another recording: the follower stops at that
// cut with the latched error, observes nothing of it, and Finish
// reports it.
func TestFollowerRefusesForeignDelta(t *testing.T) {
	record := func(extra string) (*core.Graph, []core.Cut) {
		g := core.NewGraph(2)
		if extra != "" {
			g.InternObject(extra)
		}
		cutter := core.NewCutter(g)
		var cs []core.Cut
		recordPingPong(t, g, func(core.SubID) { cs = append(cs, cutter.Cut()) }, 6)
		return g, cs
	}
	g, own := record("")
	_, other := record("another run's object")
	for _, tc := range []struct {
		name string
		bad  core.Cut
		want string
	}{
		{"skipped", own[2], "adopted epoch 3 over"},
		{"cross-run", other[1], "want epoch 2 over"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var observed []uint64
			f := epoch.NewFollower(g, nil, epoch.ObserverFunc(func(_ *core.Analysis, e uint64) {
				observed = append(observed, e)
			}))
			if err := f.Emit(own[0], nil); err != nil {
				t.Fatal(err)
			}
			f.Emit(tc.bad, nil)
			err := f.Finish(tc.bad.Epoch)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("stopped at epoch %d:", tc.bad.Epoch)) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Finish = %v, want the follower stopped at epoch %d naming %q", err, tc.bad.Epoch, tc.want)
			}
			if fmt.Sprint(observed) != "[1]" {
				t.Fatalf("observed epochs %v, want [1]: the refused cut must not be folded", observed)
			}
		})
	}
}

// stopLog is an observer that counts its Stop calls.
type stopLog struct {
	epoch.ObserverFunc
	stops *atomic.Int64
}

func (s stopLog) Stop() { s.stops.Add(1) }

// TestFollowerPanicLatches: a fold that panics at epoch k costs epoch k
// only — the follower observes it without an analysis, the next fold
// covers its cut and is the live graph's fold of that epoch, Close
// reports the panic by epoch, and the journal listed first seals every
// epoch. An observer that panics stops the follower instead: Close
// reports it, Emit after the failure returns at once, every observer's
// Stop runs, and no goroutine is left behind.
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
	var followed, twin [][]byte
	f := epoch.NewFollower(g, func(int) {
		if folds.Add(1) == k {
			panic("injected fold panic")
		}
	}, epoch.ObserverFunc(func(a *core.Analysis, e uint64) {
		if a == nil {
			return
		}
		var buf bytes.Buffer
		if err := cpgfile.Encode(&buf, a, cpgfile.Meta{}); err != nil {
			t.Errorf("epoch %d encode: %v", e, err)
			return
		}
		observed = append(observed, e)
		followed = append(followed, buf.Bytes())
	}))
	d := epoch.NewDriver(g, epoch.Options{}, jw, newTwin(g, &twin), f)
	recordPingPong(t, g, d.CommitHook(), 40)
	cerr := d.Close()
	if cerr == nil || !strings.Contains(cerr.Error(), fmt.Sprintf("epoch %d:", k)) || !strings.Contains(cerr.Error(), "injected fold panic") {
		t.Fatalf("Close = %v, want the fold panic at epoch %d", cerr, k)
	}
	var want []uint64
	for e := uint64(1); e <= d.Epoch(); e++ {
		if e != k {
			want = append(want, e)
		}
	}
	if fmt.Sprint(observed) != fmt.Sprint(want) {
		t.Fatalf("observed epochs %v, want %v", observed, want)
	}
	for i, e := range observed {
		if !bytes.Equal(followed[i], twin[e-1]) {
			t.Fatalf("epoch %d: the follower's fold differs from the live graph's FoldDelta", e)
		}
	}
	rep, err := journal.Recover(dir, journal.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sealed || rep.Degraded() || rep.Epoch != d.Epoch() {
		t.Fatalf("journal: sealed=%v degraded=%v epoch %d, driver cut %d", rep.Sealed, rep.Degraded(), rep.Epoch, d.Epoch())
	}

	var stops atomic.Int64
	panicky := stopLog{epoch.ObserverFunc(func(_ *core.Analysis, e uint64) {
		if e == k {
			panic("injected observer panic")
		}
	}), &stops}
	f = epoch.NewFollower(g, nil, panicky, stopLog{epoch.ObserverFunc(func(*core.Analysis, uint64) {}), &stops})
	d = epoch.NewDriver(core.NewGraph(2), epoch.Options{}, f)
	for i := 0; i < 2*k; i++ {
		d.Cut()
	}
	cerr = d.Close()
	if cerr == nil || !strings.Contains(cerr.Error(), fmt.Sprintf("stopped at epoch %d:", k)) || !strings.Contains(cerr.Error(), "injected observer panic") {
		t.Fatalf("Close = %v, want the observer panic at epoch %d", cerr, k)
	}
	if n := stops.Load(); n != 2 {
		t.Fatalf("%d observers stopped, want 2", n)
	}
	emitted := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 2*4096+1 && err == nil; i++ {
			if e := f.Emit(core.Cut{Epoch: uint64(100 + i)}, nil); e == nil {
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

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the followers", runtime.NumGoroutine(), before)
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
