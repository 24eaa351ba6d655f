package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/cpgfile/cpgtest"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/journal"
)

// record journals a small deterministic two-thread recording, leaves
// the journal sealed (sealed=true) or abandoned mid-run (sealed=false),
// and returns the per-epoch analyses of the live analyzer's own fold: a
// bare epoch.Driver over the same graph whose sink asks for every
// epoch's analysis. The recording is sequential, so both drivers cut
// the same prefix at every seal; the recorder's OnEpoch (its follower's
// replay) must match the live fold's .cpg bytes at every journaled
// epoch.
func record(t *testing.T, dir string, steps int, sealed bool) []*core.Analysis {
	t.Helper()
	w, err := journal.Create(journal.Options{Dir: dir, Threads: 2, App: "recover-test"})
	if err != nil {
		t.Fatal(err)
	}
	g := core.NewGraph(2)
	var recs []*core.Recorder
	for i := 0; i < 2; i++ {
		rec, err := core.NewRecorder(g, i, 0)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	lock := g.NewSyncObject("m", false)
	jr := journal.NewRecorder(g, w, 1)
	var followed [][]byte
	var live []*core.Analysis
	jr.OnEpoch = func(a *core.Analysis, d *core.EpochDelta) {
		// The follower's goroutine: report and return, never Fatal.
		var buf bytes.Buffer
		if err := cpgfile.Encode(&buf, a, cpgfile.Meta{}); err != nil {
			t.Errorf("followed epoch %d encode: %v", d.Epoch, err)
			return
		}
		followed = append(followed, buf.Bytes())
	}
	drv := epoch.NewDriver(g, epoch.Options{}, liveFold{&live})
	jrHook, liveHook := jr.CommitHook(), drv.CommitHook()
	hook := func() {
		jrHook(core.SubID{})
		liveHook(core.SubID{})
	}
	r := rand.New(rand.NewSource(42))
	for s := 0; s < steps; s++ {
		rec := recs[r.Intn(len(recs))]
		rec.OnRead(uint64(r.Intn(16)))
		rec.OnWrite(uint64(r.Intn(16)))
		sc, err := rec.EndSub(core.SyncEvent{Kind: core.SyncRelease, Object: lock.Ref()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		rec.Release(lock, sc)
		rec.Acquire(lock)
		hook()
	}
	if sealed {
		for _, rec := range recs {
			if _, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
				t.Fatal(err)
			}
			hook()
		}
		if err := jr.Close(); err != nil {
			t.Fatal(err)
		}
		if err := drv.Close(); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		// Stop the follower: the final cut finds the journal closed, so
		// it is neither journaled nor followed, and nothing is sealed.
		if err := jr.Close(); err == nil {
			t.Fatal("closing a recorder over a closed journal reported nothing")
		}
	}
	if len(followed) != len(live) {
		t.Fatalf("followed %d epochs, the live analyzer folded %d", len(followed), len(live))
	}
	for i := range live {
		if !bytes.Equal(followed[i], cpgtest.Bytes(t, live[i])) {
			t.Fatalf("epoch %d: the recorder's follower differs from the live fold", i+1)
		}
	}
	return live
}

// liveFold is an epoch.Sink that asks for every epoch's analysis and
// keeps it.
type liveFold struct{ folds *[]*core.Analysis }

func (s liveFold) Emit(e epoch.Epoch) error {
	*s.folds = append(*s.folds, e.Analysis())
	return nil
}

func (liveFold) Finish(uint64) error { return nil }

// TestRecoverExportsMatchInProcessFold: the -cpg artifact is the run's
// graph at the recovered epoch — byte for byte, header included, the
// final in-process fold encoded under the journal's run identity.
func TestRecoverExportsMatchInProcessFold(t *testing.T) {
	jdir := t.TempDir()
	live := record(t, jdir, 12, true)
	outDir := t.TempDir()
	cpg := filepath.Join(outDir, "g.cpg")
	dot := filepath.Join(outDir, "g.dot")
	jsn := filepath.Join(outDir, "g.json")

	var out bytes.Buffer
	err := run([]string{"-journal", jdir, "-cpg", cpg, "-dot", dot, "-json", jsn}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sealed (clean close)") {
		t.Errorf("summary missing seal line:\n%s", out.String())
	}
	for _, p := range []string{dot, jsn} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("artifact %s: %v", p, err)
		}
	}
	rep, err := journal.Recover(jdir, journal.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(cpg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	final := live[len(live)-1]
	if err := cpgfile.Encode(&want, final, cpgfile.Meta{RunID: rep.Header.RunID, App: rep.Header.App}); err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != final.Epoch() || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("-cpg at epoch %d diverges from the final in-process fold (epoch %d) under run %q",
			rep.Epoch, final.Epoch(), rep.Header.RunID)
	}

	for _, gone := range []string{"-cpgfile", "-analysis"} {
		path := filepath.Join(outDir, "gone")
		err = run([]string{"-journal", jdir, "-q", gone, path}, &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+gone) {
			t.Errorf("%s: err = %v, want it rejected as an unknown flag", gone, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: a rejected flag still wrote %s (%v)", gone, path, err)
		}
	}
}

func TestRecoverEpochPrefixMatchesEveryFold(t *testing.T) {
	jdir := t.TempDir()
	live := record(t, jdir, 10, true)
	cpg := filepath.Join(t.TempDir(), "g.cpg")
	for e := 1; e <= len(live); e++ {
		var out bytes.Buffer
		if err := run([]string{"-journal", jdir, "-epoch", strconv.Itoa(e), "-q", "-cpg", cpg}, &out); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if !bytes.Equal(cpgtest.File(t, cpg), cpgtest.Bytes(t, live[e-1])) {
			t.Fatalf("epoch %d -cpg diverges from the in-process fold", e)
		}
	}
}

func TestRecoverTornJournalSummaryJSON(t *testing.T) {
	jdir := t.TempDir()
	record(t, jdir, 10, false)
	// Tear the tail.
	path := journal.Path(jdir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"-journal", jdir, "-summary-json"}, &out); err != nil {
		t.Fatalf("torn journal must still recover: %v", err)
	}
	var s summaryJSON
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatalf("summary is not JSON: %v\n%s", err, out.String())
	}
	if s.Sealed || !s.Degraded || s.Torn == "" {
		t.Fatalf("summary = %+v, want unsealed+degraded+torn", s)
	}
	if s.Epoch == 0 || s.App != "recover-test" {
		t.Fatalf("summary = %+v", s)
	}
}

func TestRecoverErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("missing -journal accepted")
	}
	if err := run([]string{"-journal", t.TempDir()}, &out); err == nil {
		t.Error("empty journal dir accepted")
	}
}
