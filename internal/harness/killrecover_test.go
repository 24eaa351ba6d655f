package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/repro/inspector/internal/cpgfile/cpgtest"
	"github.com/repro/inspector/internal/journal"
)

// recoverSummary runs inspector-recover -summary-json and decodes it.
type recoverSummary struct {
	RunID    string `json:"run_id"`
	Epoch    uint64 `json:"epoch"`
	Sealed   bool   `json:"sealed"`
	Degraded bool   `json:"degraded"`
	Torn     string `json:"torn"`
}

func recoverJSON(t *testing.T, dir string) recoverSummary {
	t.Helper()
	out := tool(t, "inspector-recover", "-journal", dir, "-summary-json")
	var s recoverSummary
	if err := json.Unmarshal(out, &s); err != nil {
		t.Fatalf("summary JSON: %v\n%s", err, out)
	}
	return s
}

// TestKillRecoverSweep is the crash-durability acceptance check. A
// child inspector-run is SIGKILLed at randomized commit boundaries (the
// deterministic "crash" fault point — a real kill signal, not a panic:
// no deferred cleanup, no exports, no journal seal). For every kill
// point, recovering the orphaned journal must reproduce, byte for byte,
// what the uninterrupted run's journal replays to at the same epoch —
// and must say it is degraded, never silently short, never a crash.
//
// The sweep runs single-threaded: the drift corpus already pins
// single-thread runs as fully deterministic, which makes "the same
// epoch of a different process's run" a meaningful byte-level oracle.
func TestKillRecoverSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and forks children")
	}
	// Reference: the workload, uninterrupted. kmeans seals ~50
	// single-thread commits at the small size — enough boundaries for a
	// meaningful sweep while each child stays fast.
	refDir := filepath.Join(t.TempDir(), "ref")
	tool(t, "inspector-run", smallRun("kmeans", 1, "-journal", refDir, "-journal-fsync", "none")...)
	ref := recoverJSON(t, refDir)
	if !ref.Sealed || ref.Degraded {
		t.Fatalf("reference journal: %+v", ref)
	}
	// The run journals one epoch per commit plus a final fold at close;
	// a kill at commit K+1 (crash:after=K) therefore recovers exactly
	// epoch K+1, and K ranges over the commits.
	commits := int(ref.Epoch) - 1
	if commits < 2 {
		t.Fatalf("reference run sealed only %d epochs — too short to sweep", ref.Epoch)
	}

	points := killPoints()
	for i := 0; i < points; i++ {
		// Spread kill points across the run: first commit, last commit,
		// then evenly between.
		k := 0
		switch {
		case i == 1:
			k = commits - 1
		case i > 1:
			k = (i - 1) * commits / points
		}
		t.Run(fmt.Sprintf("crash-after-%d", k), func(t *testing.T) {
			killDir := filepath.Join(t.TempDir(), "killed")
			out, err := exec.Command(buildTool(t, "inspector-run"), smallRun("kmeans", 1,
				"-journal", killDir, "-journal-fsync", "none",
				"-faults", "crash:after="+strconv.Itoa(k)+",count=1")...).CombinedOutput()
			if !sigkilled(err) {
				t.Fatalf("killed run exited with %v (SIGKILL expected)\n%s", err, out)
			}

			got := recoverJSON(t, killDir)
			if got.Sealed || !got.Degraded {
				t.Fatalf("killed journal summary: %+v (want unsealed + degraded)", got)
			}
			if got.Epoch != uint64(k+1) {
				t.Fatalf("recovered epoch %d after a kill at commit %d, want %d", got.Epoch, k+1, k+1)
			}
			// The kill left the journal's zero tail behind its frames:
			// the never-written rest of its mapped window, which
			// recovery read as their clean end.
			rep, err := journal.Recover(killDir, journal.RecoverOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if st, err := os.Stat(journal.Path(killDir)); err != nil || st.Size() <= rep.End {
				t.Fatalf("killed journal: %v (err %v), want longer than the %d bytes of frames recovered", st, err, rep.End)
			}

			// Byte-level oracle: the killed run's recovery is the
			// reference journal replayed to the same epoch, cut short
			// there.
			want := cpgtest.Truncated(t, recoveredCPG(t, refDir, "-epoch", strconv.Itoa(k+1)))
			if !bytes.Equal(recoveredCPG(t, killDir), want) {
				t.Fatalf("kill at commit %d: recovered .cpg diverges from the uninterrupted run's epoch %d", k+1, k+1)
			}
		})
	}
}
