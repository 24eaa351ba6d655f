package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/cpgfile/cpgtest"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/journal"
)

// journaledRun executes one workload journaled through a bare
// epoch.Driver whose sinks are the journal writer, a liveFold — a
// second analyzer folding the live graph itself at every cut — and an
// epoch.Follower, the replay every in-process consumer runs. At every
// epoch where the live fold's cut is the driver's (always on one
// thread; at more, wherever no other thread sealed between the two
// cuts) the follower must match its .cpg bytes, and journaledRun
// returns those live folds, nil at the other epochs. The final epoch
// always has one: no thread seals after the last cut. When seal is
// false the journal is abandoned without a seal
// record, as a killed process would leave it.
func journaledRun(t *testing.T, app string, threads int, dir string, seal bool) [][]byte {
	t.Helper()
	rt, run := bareRuntime(t, app, threads)
	g := rt.Graph()
	jw, err := journal.Create(journal.Options{
		Dir: dir, Threads: g.Threads(), App: app, Fsync: journal.PolicyNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	var followed [][]byte
	f := epoch.NewFollower(g, nil, epoch.ObserverFunc(func(a *core.Analysis, _ uint64) {
		// The follower's goroutine: report and return, never Fatal.
		var buf bytes.Buffer
		if err := cpgfile.Encode(&buf, a, cpgfile.Meta{}); err != nil {
			t.Error(err)
			return
		}
		followed = append(followed, buf.Bytes())
	}))
	lf := &liveFold{inc: core.NewIncrementalAnalyzer(g)}
	drv := epoch.NewDriver(g, epoch.Options{}, jw, lf, f)
	rt.RegisterCommitHook(drv.CommitHook())
	if err := run(); err != nil {
		t.Fatal(err)
	}
	if seal {
		if err := drv.Close(); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		// The driver is never closed, as in a killed process; drain the
		// follower by hand.
		if err := f.Finish(drv.Epoch()); err != nil {
			t.Fatal(err)
		}
	}
	live := lf.cpgs
	if len(followed) != int(drv.Epoch()) || len(live) != len(followed) {
		t.Fatalf("driver cut %d epochs, the follower folded %d, the live analyzer %d", drv.Epoch(), len(followed), len(live))
	}
	matched := 0
	for i, want := range live {
		if want == nil {
			continue
		}
		matched++
		if !bytes.Equal(followed[i], want) {
			t.Fatalf("epoch %d: the follower's replay differs from the live fold", i+1)
		}
	}
	if matched < len(live)/4 || (threads == 1 && matched != len(live)) || live[len(live)-1] == nil {
		t.Fatalf("the live fold reproduced %d of %d cuts (final: %v), want every cut on one thread, a quarter at more, and the final cut",
			matched, len(live), live[len(live)-1] != nil)
	}
	t.Logf("the live fold reproduced %d of %d cuts", matched, len(live))
	return live
}

// liveFold is an epoch.Sink that folds a second analyzer over the live
// graph at every cut (Fold) and keeps the .cpg bytes of the epochs
// whose cut is the driver's — the same thread lengths, symbol table and
// trace gaps —, nil where another thread sealed, interned or lost trace
// between the driver's cut and its own.
type liveFold struct {
	inc  *core.IncrementalAnalyzer
	cpgs [][]byte
}

func (s *liveFold) Emit(c core.Cut, _ epoch.Frame) error {
	a := s.inc.Fold()
	own := s.inc.Adopted()
	if own.Epoch != c.Epoch {
		return fmt.Errorf("live fold at epoch %d, the driver at %d", own.Epoch, c.Epoch)
	}
	var cpg []byte
	if slices.Equal(own.Lens, c.Lens) && own.Syms == c.Syms && gaps(own) == gaps(c) {
		var buf bytes.Buffer
		if err := cpgfile.Encode(&buf, a, cpgfile.Meta{}); err != nil {
			return err
		}
		cpg = buf.Bytes()
	}
	s.cpgs = append(s.cpgs, cpg)
	return nil
}

// gaps is the number of trace gaps c covers.
func gaps(c core.Cut) (n int) {
	for _, g := range c.Gaps {
		n += g
	}
	return n
}

func (*liveFold) Finish(uint64) error { return nil }

// TestJournalReplayMatchesInProcessFold is the per-epoch property at
// the workload level: for real multithreaded recordings, recovery
// stopped at any epoch the live fold reproduced equals the live
// analyzer's fold of that epoch (and journaledRun holds the follower's
// epochs to the same). (That the full recovery equals the runtime's
// final graph is checked for every corpus configuration by the fabric
// sweep.)
func TestJournalReplayMatchesInProcessFold(t *testing.T) {
	for _, threads := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			dir := t.TempDir()
			folds := journaledRun(t, "histogram", threads, dir, true)

			rep, err := journal.Recover(dir, journal.RecoverOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Sealed || rep.Degraded() {
				t.Fatalf("clean run journal: sealed=%v degraded=%v", rep.Sealed, rep.Degraded())
			}
			if rep.Epoch != uint64(len(folds)) {
				t.Fatalf("recovered %d epochs, journaled %d", rep.Epoch, len(folds))
			}

			// Random prefixes: replay-at-epoch == the run's own fold.
			var epochs []int
			for i, f := range folds {
				if f != nil {
					epochs = append(epochs, i+1)
				}
			}
			r := rand.New(rand.NewSource(int64(threads)))
			for i := 0; i < 8; i++ {
				e := epochs[r.Intn(len(epochs))]
				at, err := journal.Recover(dir, journal.RecoverOptions{MaxEpoch: uint64(e)})
				if err != nil {
					t.Fatalf("epoch %d: %v", e, err)
				}
				if !bytes.Equal(cpgtest.Bytes(t, at.Analysis), folds[e-1]) {
					t.Fatalf("threads=%d epoch %d: replay diverges from in-process fold", threads, e)
				}
			}
		})
	}
}

// TestJournalUnsealedRunRecoversDegraded pins the failure-model side: a
// journal a dead process left behind recovers to the last durable epoch
// and says so — unsealed, degraded, a truncated-tail gap — instead of
// impersonating a complete run.
func TestJournalUnsealedRunRecoversDegraded(t *testing.T) {
	dir := t.TempDir()
	folds := journaledRun(t, "histogram", 2, dir, false)

	rep, err := journal.Recover(dir, journal.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sealed {
		t.Fatal("unsealed journal recovered as sealed")
	}
	if !rep.Degraded() {
		t.Fatal("unsealed journal not marked degraded")
	}
	if rep.Epoch != uint64(len(folds)) {
		t.Fatalf("recovered %d epochs, journaled %d", rep.Epoch, len(folds))
	}
	var sawTrunc bool
	for _, tg := range rep.Graph.Gaps() {
		for _, gap := range tg.Gaps {
			if gap.Kind == core.GapTruncated {
				sawTrunc = true
			}
		}
	}
	if !sawTrunc {
		t.Fatal("no truncated-tail gap on the recovered graph")
	}
	// Degradation marking must not bend the analysis itself: it is the
	// run's final fold plus the truncated-tail gaps, nothing else.
	if !bytes.Equal(cpgtest.Bytes(t, rep.Analysis), cpgtest.Truncated(t, folds[len(folds)-1])) {
		t.Fatal("degraded recovery diverges from the last journaled fold, cut short")
	}
}

// killPoints reads the kill-recover sweep width from KILL_POINTS (the
// chaos CI job widens it); the default keeps plain `go test ./...`
// quick.
func killPoints() int {
	if s := os.Getenv("KILL_POINTS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 3
}
