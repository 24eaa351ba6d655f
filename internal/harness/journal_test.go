package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/journal"
)

// journaledRun executes one workload with a journal recorder attached,
// capturing the per-epoch in-process analysis exports (the OnEpoch seam
// inspector.Options does not have), and returns those exports. When
// seal is false the journal is abandoned without a seal record, as a
// killed process would leave it.
func journaledRun(t *testing.T, app string, threads int, dir string, seal bool) [][]byte {
	t.Helper()
	rt, run := bareRuntime(t, app, threads)
	jw, err := journal.Create(journal.Options{
		Dir: dir, Threads: rt.Graph().Threads(), App: app, Fsync: journal.PolicyNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := journal.NewRecorder(rt.Graph(), jw, 1)
	var exports [][]byte
	rec.OnEpoch = func(a *core.Analysis, _ *core.EpochDelta) {
		var buf bytes.Buffer
		if err := a.ExportJSON(&buf); err != nil {
			t.Errorf("epoch export: %v", err)
			return
		}
		exports = append(exports, buf.Bytes())
	}
	rt.RegisterCommitHook(rec.CommitHook())
	if err := run(); err != nil {
		t.Fatal(err)
	}
	if seal {
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	} else if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	return exports
}

// TestJournalReplayMatchesInProcessFold is the per-epoch property at
// the workload level: for real multithreaded recordings, recovery
// stopped at any epoch equals the fold the run itself produced at that
// epoch. (That the full recovery equals the runtime's final graph is
// checked for every corpus configuration by the fabric sweep.)
func TestJournalReplayMatchesInProcessFold(t *testing.T) {
	for _, threads := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			dir := t.TempDir()
			exports := journaledRun(t, "histogram", threads, dir, true)

			rep, err := journal.Recover(dir, journal.RecoverOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Sealed || rep.Degraded() {
				t.Fatalf("clean run journal: sealed=%v degraded=%v", rep.Sealed, rep.Degraded())
			}
			if rep.Epoch != uint64(len(exports)) {
				t.Fatalf("recovered %d epochs, journaled %d", rep.Epoch, len(exports))
			}

			// Random prefixes: replay-at-epoch == the run's own fold.
			r := rand.New(rand.NewSource(int64(threads)))
			for i := 0; i < 8; i++ {
				e := 1 + r.Intn(len(exports))
				at, err := journal.Recover(dir, journal.RecoverOptions{MaxEpoch: uint64(e)})
				if err != nil {
					t.Fatalf("epoch %d: %v", e, err)
				}
				var buf bytes.Buffer
				if err := at.Analysis.ExportJSON(&buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), exports[e-1]) {
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
	exports := journaledRun(t, "histogram", 2, dir, false)

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
	if rep.Epoch != uint64(len(exports)) {
		t.Fatalf("recovered %d epochs, journaled %d", rep.Epoch, len(exports))
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
	// Degradation marking must not bend the analysis itself: the export
	// still matches the run's final fold.
	var buf bytes.Buffer
	if err := rep.Analysis.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), exports[len(exports)-1]) {
		t.Fatal("degraded recovery diverges from the last journaled fold")
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
