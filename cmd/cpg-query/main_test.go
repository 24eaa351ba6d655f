package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/provenance"
)

func TestParseSubID(t *testing.T) {
	tests := []struct {
		in      string
		want    core.SubID
		wantErr bool
	}{
		{"T0.0", core.SubID{Thread: 0, Alpha: 0}, false},
		{"T3.17", core.SubID{Thread: 3, Alpha: 17}, false},
		{"T12.9999", core.SubID{Thread: 12, Alpha: 9999}, false},
		{"3.17", core.SubID{}, true},
		{"T3", core.SubID{}, true},
		{"Tx.1", core.SubID{}, true},
		{"T1.x", core.SubID{}, true},
		{"", core.SubID{}, true},
	}
	for _, tt := range tests {
		got, err := provenance.ParseSubID(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseSubID(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if !tt.wantErr && got != tt.want {
			t.Errorf("ParseSubID(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestRunRequiresArgs(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"-cpg", "/nonexistent/file.cpg", "stats"}, io.Discard); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"-cpg", "x", "-format", "yaml", "stats"}, io.Discard); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestExitCodes pins the exit-code contract: 2 for usage errors, 1 for
// query errors, 0 for success.
func TestExitCodes(t *testing.T) {
	cpg := writeTestCPG(t)
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"success", []string{"-cpg", cpg, "stats"}, 0},
		{"no args", nil, 2},
		{"missing subcommand", []string{"-cpg", cpg}, 2},
		{"unknown flag", []string{"-cpg", cpg, "-bogus", "stats"}, 2},
		{"unknown format", []string{"-cpg", cpg, "-format", "yaml", "stats"}, 2},
		{"unknown subcommand", []string{"-cpg", cpg, "frobnicate"}, 2},
		{"export is gone", []string{"-cpg", cpg, "export", "out.cpg"}, 2},
		{"slice missing target", []string{"-cpg", cpg, "slice"}, 2},
		{"slice bad target", []string{"-cpg", cpg, "slice", "banana"}, 2},
		{"taint bad target", []string{"-cpg", cpg, "taint", "T0"}, 2},
		{"lineage missing args", []string{"-cpg", cpg, "lineage", "101"}, 2},
		{"lineage bad page", []string{"-cpg", cpg, "lineage", "xyz", "T0.1"}, 2},
		{"edges unknown kind", []string{"-cpg", cpg, "edges", "banana"}, 2},
		{"path missing to", []string{"-cpg", cpg, "path", "T0.0"}, 2},
		{"path bad endpoint", []string{"-cpg", cpg, "path", "nope", "T0.1"}, 2},
		{"missing file", []string{"-cpg", "/nonexistent/file.cpg", "stats"}, 1},
		{"no dependency chain", []string{"-cpg", cpg, "path", "T0.1", "T0.0"}, 1},
		{"unreachable server", []string{"-remote", "http://127.0.0.1:1", "stats"}, 1},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			err := run(tt.args, io.Discard)
			if got := exitCode(err); got != tt.want {
				t.Errorf("run(%v) exit = %d (err %v), want %d", tt.args, got, err, tt.want)
			}
		})
	}
}

// TestRefusesWhatIsNotACPGFile pins the one-format rule: -cpg reads
// .cpg and nothing else. A gob artifact from an older build (any other
// bytes, to this build) is refused by magic with its path named, and a
// damaged .cpg names the section.
func TestRefusesWhatIsNotACPGFile(t *testing.T) {
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(map[string]int{"Threads": 2}); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(t.TempDir(), "run.gob")
	if err := os.WriteFile(stale, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-cpg", stale, "stats"}, io.Discard)
	if !errors.Is(err, cpgfile.ErrBadMagic) || !strings.Contains(err.Error(), stale) || exitCode(err) != 1 {
		t.Errorf("gob file: err = %v (exit %d), want ErrBadMagic naming %s, exit 1", err, exitCode(err), stale)
	}

	good, err := os.ReadFile(writeTestCPG(t))
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "torn.cpg")
	if err := os.WriteFile(torn, good[:len(good)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-cpg", torn, "stats"}, io.Discard)
	var ce *cpgfile.CorruptError
	if !errors.As(err, &ce) || ce.Section == "" || !strings.Contains(err.Error(), torn) {
		t.Errorf("torn file: err = %v, want a *cpgfile.CorruptError naming a section and %s", err, torn)
	}
}

// TestRemoteMatchesLocal holds the acceptance bar: remote mode against
// an inspector-serve handler produces byte-identical output to local
// mode, for every subcommand, in both formats — including when the
// server paginates and the client has to follow cursors.
func TestRemoteMatchesLocal(t *testing.T) {
	cpgPath := writeTestCPG(t)
	a, _, err := cpgfile.Load(cpgPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxResults := range []int{0, 1} {
		eng := provenance.NewEngine(a, provenance.EngineOptions{MaxResults: maxResults})
		ts := httptest.NewServer(provenance.NewServer(
			map[string]*provenance.Engine{"cpg": eng}, provenance.ServerOptions{}))
		defer ts.Close()

		invocations := [][]string{
			{"stats"},
			{"verify"},
			{"edges"},
			{"edges", "sync"},
			{"edges", "data"},
			{"slice", "T0.1"},
			{"taint", "T0.0"},
			{"lineage", "101", "T0.1"},
			{"path", "T0.0", "T0.1"},
		}
		for _, inv := range invocations {
			for _, format := range []string{"text", "json"} {
				local := append([]string{"-cpg", cpgPath, "-format", format}, inv...)
				remote := append([]string{"-remote", ts.URL, "-format", format}, inv...)
				var lw, rw bytes.Buffer
				if err := run(local, &lw); err != nil {
					t.Fatalf("local %v: %v", inv, err)
				}
				if err := run(remote, &rw); err != nil {
					t.Fatalf("remote %v (max-results %d): %v", inv, maxResults, err)
				}
				if !bytes.Equal(lw.Bytes(), rw.Bytes()) {
					t.Errorf("remote output differs for %v -format %s (max-results %d):\nlocal:\n%s\nremote:\n%s",
						inv, format, maxResults, lw.String(), rw.String())
				}
			}
		}
		// -id selects among several graphs; a wrong id is a query error.
		withID := []string{"-remote", ts.URL, "-id", "cpg", "stats"}
		var buf bytes.Buffer
		if err := run(withID, &buf); err != nil {
			t.Errorf("-id cpg: %v", err)
		}
		if err := run([]string{"-remote", ts.URL, "-id", "wrong", "stats"}, io.Discard); exitCode(err) != 1 {
			t.Errorf("wrong -id exit = %d (%v)", exitCode(err), err)
		}
	}
}

// writeTestCPG records the paper's Figure 1 execution (lock handoff
// T0.0 -> T1.0 -> T0.1 with data flow on pages 100/101) into a .cpg file.
func writeTestCPG(t *testing.T) string {
	t.Helper()
	g := core.NewGraph(2)
	lock := g.NewSyncObject("lock", false)
	rel := core.SyncEvent{Kind: core.SyncRelease, Object: lock.Ref()}
	r0, err := core.NewRecorder(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := core.NewRecorder(g, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r0.OnRead(101)
	r0.OnWrite(100)
	r0.OnWrite(101)
	s0, err := r0.EndSub(rel, 0)
	if err != nil {
		t.Fatal(err)
	}
	r0.Release(lock, s0)
	r1.Acquire(lock)
	r1.OnRead(100)
	r1.OnWrite(101)
	s1, err := r1.EndSub(rel, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1.Release(lock, s1)
	r0.Acquire(lock)
	r0.OnRead(101)
	if _, err := r0.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.cpg")
	if err := cpgfile.Write(path, g.Analyze(), cpgfile.Meta{}); err != nil {
		t.Fatal(err)
	}
	return path
}

// query runs one cpg-query invocation and returns its output.
func query(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

func TestQueryCommands(t *testing.T) {
	cpg := writeTestCPG(t)

	if out := query(t, "-cpg", cpg, "verify"); !strings.Contains(out, "valid happens-before DAG") {
		t.Errorf("verify output: %q", out)
	}
	if out := query(t, "-cpg", cpg, "stats"); !strings.Contains(out, "sub-computations: 4 across 2 threads") {
		t.Errorf("stats output: %q", out)
	}
	if out := query(t, "-cpg", cpg, "slice", "T0.1"); !strings.Contains(out, "T1.0") {
		t.Errorf("slice output missing cross-thread ancestor: %q", out)
	}
	if out := query(t, "-cpg", cpg, "taint", "T0.0"); !strings.Contains(out, "T1.0") {
		t.Errorf("taint output: %q", out)
	}
	if out := query(t, "-cpg", cpg, "edges", "sync"); !strings.Contains(out, "via lock") {
		t.Errorf("sync edges output: %q", out)
	}
	if out := query(t, "-cpg", cpg, "lineage", "101", "T0.1"); !strings.Contains(out, "written by T1.0") {
		t.Errorf("lineage output: %q", out)
	}
}

func TestQueryPath(t *testing.T) {
	cpg := writeTestCPG(t)

	// T0.1 depends on T0.0; the chain must be continuous.
	out := query(t, "-cpg", cpg, "path", "T0.0", "T0.1")
	if !strings.Contains(out, "T0.0 -> T0.1") {
		t.Errorf("path output: %q", out)
	}

	// No chain exists backwards.
	var buf bytes.Buffer
	err := run([]string{"-cpg", cpg, "path", "T0.1", "T0.0"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "no dependency chain") {
		t.Errorf("reverse path error = %v", err)
	}
}

func TestQueryJSONFormat(t *testing.T) {
	cpg := writeTestCPG(t)

	var ids []string
	if err := json.Unmarshal([]byte(query(t, "-cpg", cpg, "-format", "json", "slice", "T0.1")), &ids); err != nil {
		t.Fatalf("slice json: %v", err)
	}
	if len(ids) != 2 || ids[0] != "T0.0" || ids[1] != "T1.0" {
		t.Errorf("slice json = %v", ids)
	}

	var edges []provenance.Edge
	if err := json.Unmarshal([]byte(query(t, "-cpg", cpg, "-format", "json", "edges", "data")), &edges); err != nil {
		t.Fatalf("edges json: %v", err)
	}
	if len(edges) == 0 {
		t.Fatal("no data edges in json output")
	}
	for _, e := range edges {
		if e.Kind != "data" || len(e.Pages) == 0 {
			t.Errorf("edge json = %+v", e)
		}
	}

	var chain []provenance.Edge
	if err := json.Unmarshal([]byte(query(t, "-cpg", cpg, "-format", "json", "path", "T0.0", "T1.0")), &chain); err != nil {
		t.Fatalf("path json: %v", err)
	}
	if len(chain) == 0 || chain[0].From != "T0.0" || chain[len(chain)-1].To != "T1.0" {
		t.Errorf("path json = %+v", chain)
	}

	var st map[string]int
	if err := json.Unmarshal([]byte(query(t, "-cpg", cpg, "-format", "json", "stats")), &st); err != nil {
		t.Fatalf("stats json: %v", err)
	}
	if st["sub_computations"] != 4 || st["threads"] != 2 {
		t.Errorf("stats json = %v", st)
	}

	var ver map[string]bool
	if err := json.Unmarshal([]byte(query(t, "-cpg", cpg, "-format", "json", "verify")), &ver); err != nil {
		t.Fatalf("verify json: %v", err)
	}
	if !ver["valid"] {
		t.Errorf("verify json = %v", ver)
	}

	var lins []map[string]any
	if err := json.Unmarshal([]byte(query(t, "-cpg", cpg, "-format", "json", "lineage", "101", "T0.1")), &lins); err != nil {
		t.Fatalf("lineage json: %v", err)
	}
	if len(lins) != 1 || lins[0]["writer"] != "T1.0" || lins[0]["reader"] != "T0.1" {
		t.Errorf("lineage json = %v", lins)
	}
}
