package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/journal"
)

func TestRunEndToEndWithArtifacts(t *testing.T) {
	dir := t.TempDir()
	cpg := filepath.Join(dir, "run.cpg")
	dot := filepath.Join(dir, "run.dot")
	jsn := filepath.Join(dir, "run.json")
	perfdata := filepath.Join(dir, "run.perfdata")

	err := run([]string{
		"-app", "histogram", "-threads", "2", "-size", "small", "-decode", "-verify",
		"-cpg", cpg, "-dot", dot, "-json", jsn, "-perfdata", perfdata,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpg, dot, jsn, perfdata} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("artifact %s: %v", p, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("artifact %s is empty", p)
		}
	}
	// -cpg is the columnar file, carrying the run's identity, and holds
	// the graph the JSON export renders.
	a, hdr, err := cpgfile.Load(cpg)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.RunID != "histogram-t2-s1" || hdr.App != "histogram" {
		t.Errorf("-cpg header = %+v, want run histogram-t2-s1 of histogram", hdr)
	}
	var rendered bytes.Buffer
	if err := a.Graph().EncodeJSON(&rendered); err != nil {
		t.Fatal(err)
	}
	if want, _ := os.ReadFile(jsn); !bytes.Equal(rendered.Bytes(), want) {
		t.Error("the graph in the -cpg file diverges from the run's -json export")
	}
}

// TestRunNativeRefusesCPGExports: a native run records no CPG and no PT
// trace, so asking for either is refused like -journal and -stream are,
// not answered with a valid file holding an empty graph or with silence.
func TestRunNativeRefusesCPGExports(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	for _, flags := range [][]string{
		{"-cpg", out}, {"-json", out}, {"-dot", out},
		{"-perfdata", out}, {"-imageout", out}, {"-decode"}, {"-verify"},
	} {
		err := run(append([]string{"-app", "histogram", "-threads", "2", "-size", "small", "-native"}, flags...))
		if err == nil || !strings.Contains(err.Error(), "need INSPECTOR mode (drop -native)") {
			t.Errorf("-native %s: err = %v, want it refused", flags[0], err)
		}
		if _, serr := os.Stat(out); serr == nil {
			t.Errorf("-native %s still wrote %s", flags[0], out)
		}
	}
}

// TestRunRejectsCPGFileFlag: -cpg is the one snapshot flag; the second
// spelling it replaced is gone.
func TestRunRejectsCPGFileFlag(t *testing.T) {
	err := run([]string{"-app", "histogram", "-cpgfile", filepath.Join(t.TempDir(), "run.cpg")})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("-cpgfile: err = %v, want it rejected as an unknown flag", err)
	}
}

func TestRunLiveStats(t *testing.T) {
	if err := run([]string{"-app", "histogram", "-threads", "2", "-size", "small", "-live-stats", "-verify"}); err != nil {
		t.Fatal(err)
	}
	// -live-stats is meaningless without tracking, but must not break
	// the native baseline.
	if err := run([]string{"-app", "histogram", "-threads", "2", "-size", "small", "-native", "-live-stats"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunNative(t *testing.T) {
	if err := run([]string{"-app", "histogram", "-threads", "2", "-size", "small", "-native"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing -app accepted")
	}
	if err := run([]string{"-app", "nope"}); err == nil {
		t.Error("unknown app accepted")
	}
	if err := run([]string{"-app", "histogram", "-size", "giant"}); err == nil {
		t.Error("bad size accepted")
	}
}

func TestRunJournal(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	jsn := filepath.Join(dir, "run.json")
	err := run([]string{
		"-app", "histogram", "-threads", "2", "-size", "small",
		"-journal", jdir, "-journal-fsync", "none", "-json", jsn,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := journal.Recover(jdir, journal.RecoverOptions{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !rep.Sealed || rep.Degraded() {
		t.Fatalf("clean run journal: sealed=%v degraded=%v", rep.Sealed, rep.Degraded())
	}
	if rep.Header.App != "histogram" {
		t.Errorf("journal app = %q", rep.Header.App)
	}
	var buf bytes.Buffer
	if err := rep.Graph.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(jsn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("journal-recovered CPG diverges from the run's -json export")
	}
}

// TestRunJournalFsyncDefaultsToAlways pins the command's default fsync
// policy, always, where the library's zero value is interval
// (internal/journal's TestParsePolicy pins that).
func TestRunJournalFsyncDefaultsToAlways(t *testing.T) {
	usage, err := os.CreateTemp(t.TempDir(), "usage")
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = usage
	err = run([]string{"-h"})
	os.Stderr = stderr
	if err != flag.ErrHelp {
		t.Fatalf("-h: %v, want flag.ErrHelp", err)
	}
	out, err := os.ReadFile(usage.Name())
	if err != nil {
		t.Fatal(err)
	}
	_, entry, _ := strings.Cut(string(out), "-journal-fsync ")
	entry, _, _ = strings.Cut(entry, "\n  -")
	if !strings.Contains(entry, `(default "always")`) {
		t.Fatalf("-journal-fsync usage %q does not default to always", entry)
	}
}

func TestRunJournalRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-app", "histogram", "-native", "-journal", t.TempDir()}); err == nil {
		t.Error("-journal with -native accepted")
	}
	if err := run([]string{"-app", "histogram", "-journal", t.TempDir(), "-journal-fsync", "sometimes"}); err == nil {
		t.Error("bad -journal-fsync accepted")
	}
}

// TestRunEpochEvery: one cadence flag paces the run's one fold. The
// journal of an every-N run holds fewer, larger epochs that replay to
// the same CPG; the per-consumer cadence flags it replaced are gone.
func TestRunEpochEvery(t *testing.T) {
	dir := t.TempDir()
	epochs := map[string]uint64{}
	for _, every := range []string{"1", "5"} {
		jdir := filepath.Join(dir, "journal-"+every)
		jsn := filepath.Join(dir, "run-"+every+".json")
		err := run([]string{
			"-app", "histogram", "-threads", "1", "-size", "small", "-live-stats",
			"-journal", jdir, "-journal-fsync", "none", "-epoch-every", every, "-json", jsn,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := journal.Recover(jdir, journal.RecoverOptions{})
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if !rep.Sealed || rep.Degraded() {
			t.Fatalf("-epoch-every %s journal: sealed=%v degraded=%v", every, rep.Sealed, rep.Degraded())
		}
		var buf bytes.Buffer
		if err := rep.Graph.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(jsn)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("-epoch-every %s: journal-recovered CPG diverges from the run's -json export", every)
		}
		epochs[every] = rep.Epoch
	}
	// Seals / 5 rounded up, plus at most the final fold.
	if lo := (epochs["1"] + 4) / 5; epochs["5"] < lo || epochs["5"] > lo+1 {
		t.Fatalf("every-1 journaled %d epochs, every-5 %d; want about a fifth", epochs["1"], epochs["5"])
	}
	for _, old := range []string{"-journal-every", "-stream-every"} {
		err := run([]string{"-app", "histogram", "-journal", filepath.Join(dir, "never"), old, "2"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want it rejected as an unknown flag", old, err)
		}
	}
}

// TestRunFaultsRefusesPointsARecordingNeverFires: -faults takes the five
// points inspector.New wires into a recording. A schedule naming any
// other point would run fault-free and say so only after the run, so it
// is refused up front, naming the point and listing the five.
func TestRunFaultsRefusesPointsARecordingNeverFires(t *testing.T) {
	for _, row := range []struct {
		faults  string
		refused string // the point named in the error; "" for a schedule that runs
	}{
		{"aux-loss:after=20,every=7;journal-torn", "journal-torn"},
		{"aux-loss:after=20,every=7;slow-seal:count=3", ""},
	} {
		out := filepath.Join(t.TempDir(), "run.cpg")
		err := run([]string{"-app", "histogram", "-threads", "2", "-size", "small", "-faults", row.faults, "-cpg", out})
		_, serr := os.Stat(out)
		if row.refused == "" {
			if err != nil || serr != nil {
				t.Errorf("-faults %q: err = %v, .cpg %v; want the run to complete", row.faults, err, serr)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), `"`+row.refused+`"`) ||
			!strings.Contains(err.Error(), "[aux-loss panic slow-fold slow-seal crash]") {
			t.Errorf("-faults %q: err = %v, want %q refused and the five recording points listed", row.faults, err, row.refused)
		}
		if serr == nil {
			t.Errorf("-faults %q: a refused schedule still ran and wrote %s", row.faults, out)
		}
	}
}
