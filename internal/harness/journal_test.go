package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/cpgfile/cpgtest"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/journal"
)

// journaledRun executes one workload journaled through a bare
// epoch.Driver whose sinks are the journal writer, a liveFold — asking
// for every epoch's analysis on the sealing thread, the live analyzer's
// own fold (the seam inspector.Options does not have) — and an
// epoch.Follower, the replay every-epoch consumers run. One driver, so
// all three see the same cuts even at 4 threads; the follower must
// match the live fold's .cpg bytes at every epoch, and the live fold's
// are returned. When seal is false the journal is abandoned without a
// seal record, as a killed process would leave it.
func journaledRun(t *testing.T, app string, threads int, dir string, seal bool) [][]byte {
	t.Helper()
	rt, run := bareRuntime(t, app, threads)
	jw, err := journal.Create(journal.Options{
		Dir: dir, Threads: rt.Graph().Threads(), App: app, Fsync: journal.PolicyNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	var followed, live [][]byte
	f := epoch.NewFollower(rt.Graph().Threads(), nil, func(a *core.Analysis, d *core.EpochDelta) {
		// The follower's goroutine: report and return, never Fatal.
		var buf bytes.Buffer
		if err := cpgfile.Encode(&buf, a, cpgfile.Meta{}); err != nil {
			t.Errorf("followed epoch %d encode: %v", d.Epoch, err)
			return
		}
		followed = append(followed, buf.Bytes())
	})
	drv := epoch.NewDriver(rt.Graph(), epoch.Options{}, jw, liveFold{&live}, f)
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
	if len(followed) != len(live) {
		t.Fatalf("followed %d epochs, the live analyzer folded %d", len(followed), len(live))
	}
	for i := range live {
		if !bytes.Equal(followed[i], live[i]) {
			t.Fatalf("epoch %d: the follower's replay differs from the live fold", i+1)
		}
	}
	return live
}

// liveFold is an epoch.Sink that asks for every epoch's analysis and
// keeps its .cpg bytes.
type liveFold struct{ cpgs *[][]byte }

func (s liveFold) Emit(e epoch.Epoch) error {
	var buf bytes.Buffer
	if err := cpgfile.Encode(&buf, e.Analysis(), cpgfile.Meta{}); err != nil {
		return err
	}
	*s.cpgs = append(*s.cpgs, buf.Bytes())
	return nil
}

func (liveFold) Finish(uint64) error { return nil }

// TestJournalReplayMatchesInProcessFold is the per-epoch property at
// the workload level: for real multithreaded recordings, recovery
// stopped at any epoch equals the live analyzer's fold of that epoch
// (and journaledRun holds the follower's epochs to the same). (That the full recovery equals the runtime's final graph is
// checked for every corpus configuration by the fabric sweep.)
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
			r := rand.New(rand.NewSource(int64(threads)))
			for i := 0; i < 8; i++ {
				e := 1 + r.Intn(len(folds))
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
