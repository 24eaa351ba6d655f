package main

// CLI output drift test. The provenance-package rewrite of cpg-query (and
// any future one) must not move a single byte of the command's output:
// testdata/cli_drift.json pins the SHA-256 of every subcommand's text and
// JSON output over all twelve workloads, as produced by the pre-rewrite
// (per-subcommand ad-hoc) implementation.
//
// Runs are single-threaded, which makes every recorded artifact — and
// therefore every query answer — byte-reproducible (see DESIGN.md,
// "Deterministic vs. scheduler-dependent outputs"). Query targets are
// derived deterministically from each graph: the backward slice and path
// target is thread 0's last sub-computation, the taint source is T0.0,
// and the lineage probe is the first data edge of the canonical edge
// order.
//
// Regenerate after an intentional output change with:
//
//	go test ./cmd/cpg-query -run TestCLIOutputDriftAgainstSeed -update-cli-drift
import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/threading"
	"github.com/repro/inspector/internal/workloads"
)

var updateCLIDrift = flag.Bool("update-cli-drift", false,
	"rewrite testdata/cli_drift.json from the current implementation")

const cliDriftPath = "testdata/cli_drift.json"

// cliDriftEntry pins one invocation. Args omit the leading "-cpg <file>"
// pair, which the test supplies from a temp dir.
type cliDriftEntry struct {
	App  string   `json:"app"`
	Args []string `json:"args"`
	SHA  string   `json:"sha256"`
}

type cliDriftFile struct {
	Note    string          `json:"note"`
	Size    string          `json:"size"`
	Threads int             `json:"threads"`
	Seed    int64           `json:"seed"`
	Entries []cliDriftEntry `json:"entries"`
}

// recordCPGFile records app single-threaded and writes its .cpg file,
// returning the file path and the recorded graph for target derivation.
func recordCPGFile(t *testing.T, dir, app string) (string, *core.Graph) {
	t.Helper()
	w, err := workloads.Get(app)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workloads.Config{Size: workloads.Small, Threads: 1, Seed: 1}
	rt, err := threading.NewRuntime(threading.Options{
		AppName:    app,
		Mode:       threading.ModeInspector,
		MaxThreads: w.MaxThreads(cfg),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(rt, cfg); err != nil {
		t.Fatalf("%s: %v", app, err)
	}
	path := filepath.Join(dir, app+".cpg")
	if err := cpgfile.Write(path, rt.Graph().Analyze(), cpgfile.Meta{App: app}); err != nil {
		t.Fatal(err)
	}
	return path, rt.Graph()
}

// driftInvocations derives the deterministic invocation list for one
// recorded graph.
func driftInvocations(g *core.Graph) [][]string {
	invocations := [][]string{
		{"stats"},
		{"-format", "json", "stats"},
		{"verify"},
		{"-format", "json", "verify"},
		{"edges"},
		{"edges", "control"},
		{"edges", "sync"},
		{"edges", "data"},
		{"-format", "json", "edges", "data"},
		{"taint", "T0.0"},
		{"-format", "json", "taint", "T0.0"},
	}
	last := core.SubID{}
	for _, sc := range g.Subs() {
		if sc.ID.Thread == 0 && sc.ID.Alpha >= last.Alpha {
			last = sc.ID
		}
	}
	invocations = append(invocations,
		[]string{"slice", last.String()},
		[]string{"-format", "json", "slice", last.String()},
	)
	if last.Alpha > 0 {
		invocations = append(invocations,
			[]string{"path", "T0.0", last.String()},
			[]string{"-format", "json", "path", "T0.0", last.String()},
		)
	}
	for _, e := range g.Edges() {
		if e.Kind == core.EdgeData && len(e.Pages) > 0 {
			page := strconv.FormatUint(e.Pages[0], 10)
			invocations = append(invocations,
				[]string{"lineage", page, e.To.String()},
				[]string{"-format", "json", "lineage", page, e.To.String()},
			)
			break
		}
	}
	return invocations
}

func cliSHA(t *testing.T, cpgPath string, args []string) string {
	t.Helper()
	full := append([]string{"-cpg", cpgPath}, args...)
	var buf bytes.Buffer
	if err := run(full, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	h := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(h[:])
}

func TestCLIOutputDriftAgainstSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	dir := t.TempDir()

	if *updateCLIDrift {
		df := cliDriftFile{
			Note: "SHA-256 of cpg-query output per subcommand, single-thread runs, " +
				"as produced by the pre-provenance-package implementation; " +
				"see drift_test.go for the regeneration command",
			Size:    "small",
			Threads: 1,
			Seed:    1,
		}
		for _, app := range workloads.Names() {
			cpgPath, g := recordCPGFile(t, dir, app)
			for _, args := range driftInvocations(g) {
				df.Entries = append(df.Entries, cliDriftEntry{
					App:  app,
					Args: args,
					SHA:  cliSHA(t, cpgPath, args),
				})
			}
		}
		data, err := json.MarshalIndent(df, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.MkdirAll(filepath.Dir(cliDriftPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cliDriftPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", cliDriftPath, len(df.Entries))
		return
	}

	data, err := os.ReadFile(cliDriftPath)
	if err != nil {
		t.Fatalf("missing pinned hashes (run with -update-cli-drift to create): %v", err)
	}
	var df cliDriftFile
	if err := json.Unmarshal(data, &df); err != nil {
		t.Fatal(err)
	}
	cpgPaths := map[string]string{}
	for _, want := range df.Entries {
		want := want
		name := fmt.Sprintf("%s/%s", want.App, strings.Join(want.Args, "_"))
		t.Run(name, func(t *testing.T) {
			cpgPath, ok := cpgPaths[want.App]
			if !ok {
				cpgPath, _ = recordCPGFile(t, dir, want.App)
				cpgPaths[want.App] = cpgPath
			}
			if got := cliSHA(t, cpgPath, want.Args); got != want.SHA {
				t.Errorf("cpg-query %v output drifted: sha %s, want %s",
					want.Args, got, want.SHA)
			}
		})
	}
}
