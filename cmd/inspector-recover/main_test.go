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
	"github.com/repro/inspector/internal/journal"
)

// record journals a small deterministic single-thread recording,
// capturing the per-epoch in-process analysis exports, and leaves the
// journal sealed (sealed=true) or abandoned mid-run (sealed=false).
func record(t *testing.T, dir string, steps int, sealed bool) [][]byte {
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
	var exports [][]byte
	jr.OnEpoch = func(a *core.Analysis, _ *core.EpochDelta) {
		var buf bytes.Buffer
		if err := a.ExportJSON(&buf); err != nil {
			t.Fatal(err)
		}
		exports = append(exports, buf.Bytes())
	}
	hook := jr.CommitHook()
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
		hook(core.SubID{})
	}
	if sealed {
		for _, rec := range recs {
			if _, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
				t.Fatal(err)
			}
			hook(core.SubID{})
		}
		if err := jr.Close(); err != nil {
			t.Fatal(err)
		}
	} else if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return exports
}

func TestRecoverExportsMatchInProcessFold(t *testing.T) {
	jdir := t.TempDir()
	exports := record(t, jdir, 12, true)
	outDir := t.TempDir()
	analysis := filepath.Join(outDir, "a.json")
	cpg := filepath.Join(outDir, "g.cpg")
	dot := filepath.Join(outDir, "g.dot")
	jsn := filepath.Join(outDir, "g.json")

	var out bytes.Buffer
	err := run([]string{
		"-journal", jdir, "-analysis", analysis, "-cpg", cpg, "-dot", dot, "-json", jsn,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sealed (clean close)") {
		t.Errorf("summary missing seal line:\n%s", out.String())
	}
	got, err := os.ReadFile(analysis)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, exports[len(exports)-1]) {
		t.Fatal("-analysis export diverges from the final in-process fold")
	}
	for _, p := range []string{dot, jsn} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("artifact %s: %v", p, err)
		}
	}
	// -cpg holds the recovered analysis itself, under the journal's run
	// identity: it reloads to the final fold without re-deriving it.
	rep, err := journal.Recover(jdir, journal.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	loaded, hdr, err := cpgfile.Load(cpg)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.RunID != rep.Header.RunID || hdr.App != rep.Header.App || hdr.Epoch != rep.Epoch {
		t.Errorf("-cpg header = %+v, journal header %+v at epoch %d", hdr, rep.Header, rep.Epoch)
	}
	var reloaded bytes.Buffer
	if err := loaded.ExportJSON(&reloaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reloaded.Bytes(), exports[len(exports)-1]) {
		t.Fatal("-cpg reloads to something other than the final in-process fold")
	}

	err = run([]string{"-journal", jdir, "-q", "-cpgfile", filepath.Join(outDir, "h.cpg")}, &out)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("-cpgfile: err = %v, want it rejected as an unknown flag", err)
	}
}

func TestRecoverEpochPrefixMatchesEveryFold(t *testing.T) {
	jdir := t.TempDir()
	exports := record(t, jdir, 10, true)
	outDir := t.TempDir()
	for e := 1; e <= len(exports); e++ {
		analysis := filepath.Join(outDir, "a.json")
		var out bytes.Buffer
		err := run([]string{
			"-journal", jdir, "-epoch", strconv.Itoa(e), "-q", "-analysis", analysis,
		}, &out)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		got, err := os.ReadFile(analysis)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, exports[e-1]) {
			t.Fatalf("epoch %d export diverges from the in-process fold", e)
		}
	}
}

func TestRecoverTornJournalSummaryJSON(t *testing.T) {
	jdir := t.TempDir()
	record(t, jdir, 10, false)
	// Tear the tail.
	segs, err := filepath.Glob(filepath.Join(jdir, "journal-*.isj"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], data[:len(data)-7], 0o644); err != nil {
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
