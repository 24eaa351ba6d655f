package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/cpgfile/cpgtest"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/journal"
	"github.com/repro/inspector/internal/wire"
	"github.com/repro/inspector/provenance"
)

// record journals a small deterministic two-thread recording, leaves
// the journal sealed (sealed=true) or abandoned mid-run (sealed=false),
// and returns the per-epoch analyses of the live graph's own fold: a
// bare epoch.Driver over the same graph whose sink folds a second
// analyzer at every cut. The recording is sequential, so both drivers
// cut the same prefix at every seal; the recorder's OnEpoch (its
// follower's replay) must match the live fold's .cpg bytes at every
// journaled epoch.
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
	drv := epoch.NewDriver(g, epoch.Options{}, liveFold{core.NewIncrementalAnalyzer(g), &live})
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

// liveFold is an epoch.Sink that folds a second analyzer over the live
// graph at every cut (Fold) and keeps each analysis.
type liveFold struct {
	inc   *core.IncrementalAnalyzer
	folds *[]*core.Analysis
}

func (s liveFold) Emit(core.Cut, epoch.Frame) error {
	a := s.inc.Fold()
	*s.folds = append(*s.folds, a)
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

// aggregator is an in-process ingest daemon that logs the frame kinds
// of every POST body it serves.
type aggregator struct {
	c *provenance.Client

	mu     sync.Mutex
	bodies [][]byte // frame kinds per POST body
}

func newAggregator(t *testing.T) *aggregator {
	t.Helper()
	srv := provenance.NewServer(nil, provenance.ServerOptions{Ingest: provenance.NewIngestHub(provenance.IngestOptions{})})
	a := &aggregator{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			var kinds []byte
			for off := 0; off < len(body); {
				kind, _, n, err := wire.ParseFrame(body[off:], 0)
				if err != nil {
					t.Errorf("posted body, frame at %d: %v", off, err)
					break
				}
				kinds = append(kinds, kind)
				off += int(n)
			}
			a.mu.Lock()
			a.bodies = append(a.bodies, kinds)
			a.mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	a.c = &provenance.Client{BaseURL: ts.URL}
	return a
}

// posts returns the POST bodies' frame kinds so far, and whether any
// body carried a seal.
func (a *aggregator) posts() (bodies [][]byte, sealed bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, kinds := range a.bodies {
		sealed = sealed || bytes.IndexByte(kinds, wire.KindSeal) >= 0
	}
	return slices.Clone(a.bodies), sealed
}

// refeed runs inspector-recover -stream against a and returns the
// aggregator's offset after it and the counts the summary line reports.
func (a *aggregator) refeed(t *testing.T, args ...string) (st *provenance.IngestStatus, replayed, held int) {
	t.Helper()
	var out bytes.Buffer
	if err := run(append(args, "-stream", a.c.BaseURL, "-stream-id", "w"), &out); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	var epoch uint64
	var sealed bool
	i := strings.Index(out.String(), "stream:")
	if i < 0 {
		t.Fatalf("no stream line in\n%s", out.String())
	}
	if _, err := fmt.Sscanf(out.String()[i:], "stream: aggregator at epoch %d (%d replayed, %d already held, sealed=%t)",
		&epoch, &replayed, &held, &sealed); err != nil {
		t.Fatalf("stream line: %v\n%s", err, out.String())
	}
	st, found, err := a.c.IngestOffset(context.Background(), "w")
	if err != nil || !found || st.NextEpoch != epoch+1 || st.Sealed != sealed {
		t.Fatalf("offset %+v found=%v err=%v, the summary said epoch %d sealed=%v", st, found, err, epoch, sealed)
	}
	return st, replayed, held
}

// TestStreamRefeedsTheJournal drives -stream in process: a sealed
// journal is one POST that seals the source at the -cpg file's bytes;
// -epoch k stops the re-feed at k and sends no seal; a second re-feed
// over a held prefix acknowledges exactly the prefix and leaves the
// export as it was.
func TestStreamRefeedsTheJournal(t *testing.T) {
	jdir := t.TempDir()
	live := record(t, jdir, 12, true)
	final := uint64(len(live))
	cpg := filepath.Join(t.TempDir(), "g.cpg")

	a := newAggregator(t)
	st, replayed, held := a.refeed(t, "-journal", jdir, "-cpg", cpg)
	bodies, sealed := a.posts()
	if len(bodies) != 1 || !sealed || !st.Sealed || st.NextEpoch != final+1 || replayed != int(final) || held != 0 {
		t.Fatalf("sealed journal: %d POSTs (sealed %v), status %+v, %d replayed / %d held; want one sealing POST of %d epochs",
			len(bodies), sealed, st, replayed, held, final)
	}
	want := cpgtest.File(t, cpg)
	export := func(agg *aggregator, what string) {
		t.Helper()
		got, err := agg.c.Export(context.Background(), "w")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: export differs from the -cpg file after Load and Encode (err=%v)", what, err)
		}
	}
	export(a, "sealed re-feed")
	if _, _, held := a.refeed(t, "-journal", jdir); held != int(final) {
		t.Fatalf("re-feed of a held journal acknowledged %d duplicates, want %d", held, final)
	}
	export(a, "second re-feed")

	const k = 5
	b := newAggregator(t)
	if st, replayed, _ := b.refeed(t, "-journal", jdir, "-epoch", fmt.Sprint(k)); st.Sealed || st.NextEpoch != k+1 || replayed != k {
		t.Fatalf("-epoch %d: status %+v, %d replayed; want unsealed at next epoch %d", k, st, replayed, k+1)
	}
	if _, sealed := b.posts(); sealed {
		t.Fatalf("-epoch %d sent a seal", k)
	}
	if st, replayed, held := b.refeed(t, "-journal", jdir); !st.Sealed || held != k || replayed != int(final)-k {
		t.Fatalf("re-feed over a %d-epoch prefix: status %+v, %d replayed / %d held", k, st, replayed, held)
	}
	export(b, "re-feed over a prefix")
}

// TestStreamStopsAtTheTear: a torn journal re-feeds the epochs it
// recovered and no seal, and the aggregator holds the recovery's graph
// before it was marked truncated.
func TestStreamStopsAtTheTear(t *testing.T) {
	jdir := t.TempDir()
	live := record(t, jdir, 10, true)
	path := journal.Path(jdir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the last delta: the seal and that delta are lost.
	if err := os.WriteFile(path, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := journal.Recover(jdir, journal.RecoverOptions{})
	if err != nil || rep.Torn == nil || rep.Epoch != uint64(len(live))-1 {
		t.Fatalf("torn journal recovered %+v (%v), want a tear after epoch %d", rep, err, len(live)-1)
	}
	a := newAggregator(t)
	st, _, _ := a.refeed(t, "-journal", jdir)
	if _, sealed := a.posts(); sealed || st.Sealed || st.NextEpoch != rep.Epoch+1 {
		t.Fatalf("torn journal: status %+v (a seal sent: %v), want unsealed at next epoch %d", st, sealed, rep.Epoch+1)
	}
	got, err := a.c.Export(context.Background(), "w")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cpgtest.Truncated(t, got), cpgtest.Bytes(t, rep.Analysis)) {
		t.Fatal("the re-fed aggregator, truncated, differs from the torn journal's recovery")
	}
}

// TestStreamSplitsBodiesUnderACap: restream under a small delta cap
// still converges, in bodies of at most that many deltas.
func TestStreamSplitsBodiesUnderACap(t *testing.T) {
	jdir := t.TempDir()
	live := record(t, jdir, 12, true)
	rep, err := journal.Recover(jdir, journal.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := newAggregator(t)
	st, err := restream(rep, a.c.BaseURL, "w", 3)
	if err != nil {
		t.Fatal(err)
	}
	bodies, sealed := a.posts()
	if len(bodies) < len(live)/3 || !sealed || !st.Sealed || st.Accepted != len(live) {
		t.Fatalf("capped re-feed: %d POSTs, status %+v", len(bodies), st)
	}
	for i, kinds := range bodies {
		if kinds[0] != wire.KindHeader || bytes.Count(kinds, []byte{wire.KindDelta}) > 3 {
			t.Fatalf("body %d carried frames of kinds %v, want a hello and at most 3 deltas", i, kinds)
		}
	}
	got, err := a.c.Export(context.Background(), "w")
	if err != nil || !bytes.Equal(got, cpgtest.Bytes(t, live[len(live)-1])) {
		t.Fatalf("capped re-feed export differs from the final fold (err=%v)", err)
	}
}
