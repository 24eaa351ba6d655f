package harness

// Cross-workload fabric conformance sweep — the tentpole's correctness
// anchor. Every workload, single- and multi-thread, is recorded once
// with its epoch-delta stream captured; the stream is then fed to an
// aggregator (inspector-serve -ingest machinery) three ways — clean,
// through a fault-injected network (disconnects mid-body, duplicate
// deliveries, reordering, slow sinks), and as a kill+resume (a prefix
// upload, then a full journal-style resend from epoch 1) — and the
// aggregator's export must be byte-identical to the recorder's own
// incremental fold at the same epoch in all three. A fourth input is
// the product assembly itself: the same workload recorded through
// inspector.New with Options.Stream, the way inspector-run -stream does.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/inspector"
	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/faultinject"
	"github.com/repro/inspector/internal/journal"
	"github.com/repro/inspector/internal/threading"
	"github.com/repro/inspector/internal/wire"
	"github.com/repro/inspector/internal/workloads"
	"github.com/repro/inspector/provenance"
)

// fabricCapture is one recorded run: its stream identity, delta
// sequence, and the recorder-side reference export.
type fabricCapture struct {
	hello  wire.Hello
	deltas []*core.EpochDelta
	export []byte
}

func (fc *fabricCapture) finalEpoch() uint64 {
	return fc.deltas[len(fc.deltas)-1].Epoch
}

// fabricWorkload is one small workload of the sweep.
func fabricWorkload(t *testing.T, app string, threads int) (workloads.Workload, workloads.Config) {
	t.Helper()
	w, err := workloads.Get(app)
	if err != nil {
		t.Fatal(err)
	}
	return w, workloads.Config{Size: workloads.Small, Threads: threads, Seed: 1}
}

// fabricRuntime prepares one small workload under INSPECTOR and the
// stream identity its run goes by.
func fabricRuntime(t *testing.T, app string, threads int) (*threading.Runtime, func() error, wire.Hello) {
	t.Helper()
	w, cfg := fabricWorkload(t, app, threads)
	rt, err := threading.NewRuntime(threading.Options{
		AppName:    app,
		Mode:       threading.ModeInspector,
		MaxThreads: w.MaxThreads(cfg),
	})
	if err != nil {
		t.Fatal(err)
	}
	hello := wire.Hello{RunID: fmt.Sprintf("%s-t%d-s1", app, threads), App: app, Threads: rt.Graph().Threads()}
	return rt, func() error { return w.Run(rt, cfg) }, hello
}

// deltaCapture is an epoch.Sink that keeps the delta stream.
type deltaCapture struct{ deltas []*core.EpochDelta }

func (c *deltaCapture) Emit(_ *core.Analysis, d *core.EpochDelta) error {
	c.deltas = append(c.deltas, d)
	return nil
}
func (c *deltaCapture) Finish(uint64) error { return nil }

// captureFabricRun executes one workload under the product epoch driver
// at a fold-every-4-seals cadence, with a sink that keeps the delta
// stream, plus the final fold's export bytes.
func captureFabricRun(t *testing.T, app string, threads int) *fabricCapture {
	t.Helper()
	rt, run, hello := fabricRuntime(t, app, threads)
	var sink deltaCapture
	drv := epoch.NewDriver(rt.Graph(), epoch.Options{Every: 4}, &sink)
	rt.RegisterCommitHook(drv.CommitHook())
	if err := run(); err != nil {
		t.Fatalf("%s: %v", app, err)
	}
	if err := drv.Close(); err != nil {
		t.Fatal(err)
	}
	return &fabricCapture{hello: hello, deltas: sink.deltas, export: exportAnalysisJSON(t, drv.Analysis())}
}

// newAggregator stands up an ingest-mode server.
func newAggregator(t *testing.T) *httptest.Server {
	t.Helper()
	hub := provenance.NewIngestHub(provenance.IngestOptions{})
	ts := httptest.NewServer(provenance.NewServer(nil, provenance.ServerOptions{Ingest: hub}))
	t.Cleanup(ts.Close)
	return ts
}

// aggregatorExport uploads with the given client and fetches the final
// export bytes.
func aggregatorExport(t *testing.T, c *provenance.Client, fc *fabricCapture, batch int) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := provenance.UploadDeltas(ctx, c, "w", fc.hello, fc.deltas, batch,
		&wire.Seal{FinalEpoch: fc.finalEpoch()})
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	if !st.Sealed || st.NextEpoch != fc.finalEpoch()+1 {
		t.Fatalf("final status = %+v, want sealed at next=%d", st, fc.finalEpoch()+1)
	}
	got, err := c.Export(ctx, "w")
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// libraryStreamMatches records the workload through inspector.New with
// a journal, a live feed and a stream attached — the assembly
// inspector-run binds its flags to — and checks what the hand-fed
// scenarios check: the aggregator's export is the recorder's own fold,
// byte for byte. One run id must name the run everywhere it is written:
// journal header, wire hello (as the aggregator bound it) and the .cpg
// header. At one thread the run is deterministic, so the fold must also
// equal the captured reference's.
func libraryStreamMatches(t *testing.T, app string, threads int, fc *fabricCapture) {
	t.Helper()
	w, cfg := fabricWorkload(t, app, threads)
	ts := newAggregator(t)
	dir := t.TempDir()
	rec, err := inspector.New(inspector.Options{
		AppName:           app,
		MaxThreads:        w.MaxThreads(cfg),
		Live:              true,
		Journal:           filepath.Join(dir, "journal"),
		JournalFsync:      "none",
		JournalEverySeals: 4,
		Stream:            ts.URL,
		StreamID:          "w",
		RunID:             fc.hello.RunID,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(rec.Unwrap(), cfg); err != nil {
		t.Fatalf("%s: %v", app, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := errors.Join(rec.Close(), rec.WaitStream(ctx)); err != nil {
		t.Fatalf("library: close: %v", err)
	}
	want := exportAnalysisJSON(t, rec.Source().Engine().Analysis())
	c := &provenance.Client{BaseURL: ts.URL}
	got, err := c.Export(ctx, "w")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("library: aggregator export != the runtime's own fold")
	}
	if threads == 1 && !bytes.Equal(want, fc.export) {
		t.Fatal("library: inspector.New folded a different graph than the hand-assembled driver")
	}

	rep, err := journal.Recover(filepath.Join(dir, "journal"), journal.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sealed || rep.Epoch != rec.Epoch() {
		t.Fatalf("library: journal sealed=%v at epoch %d, run folded %d", rep.Sealed, rep.Epoch, rec.Epoch())
	}
	st, found, err := c.IngestOffset(ctx, "w")
	if err != nil || !found || !st.Sealed {
		t.Fatalf("library: aggregator status %+v found=%v err=%v, want sealed", st, found, err)
	}
	cpg := filepath.Join(dir, "run.cpg")
	f, err := os.Create(cpg)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(rec.WriteCPG(f), f.Close()); err != nil {
		t.Fatal(err)
	}
	_, hdr, err := cpgfile.Load(cpg)
	if err != nil {
		t.Fatal(err)
	}
	if id := fc.hello.RunID; rep.Header.RunID != id || st.RunID != id || hdr.RunID != id {
		t.Fatalf("library: run id %q is %q in the journal header, %q in the wire hello, %q in the .cpg header",
			id, rep.Header.RunID, st.RunID, hdr.RunID)
	}
}

// TestFabricAggregatorMatchesLocalFold is the sweep: every workload at
// 1 and 4 threads, three delivery scenarios plus the library's own
// streaming, zero byte drift allowed.
func TestFabricAggregatorMatchesLocalFold(t *testing.T) {
	for _, app := range workloads.Names() {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s-t%d", app, threads), func(t *testing.T) {
				fc := captureFabricRun(t, app, threads)

				// Clean delivery.
				ts := newAggregator(t)
				got := aggregatorExport(t, &provenance.Client{BaseURL: ts.URL}, fc, 7)
				if !bytes.Equal(got, fc.export) {
					t.Fatal("clean: aggregator export != local fold")
				}

				// Through a faulted network: the client's retry loop plus
				// the server's dedup must absorb disconnects, duplicates,
				// reordering, and slowness with zero drift.
				in := faultinject.New(faultinject.Schedule{Rules: []faultinject.Rule{
					{Point: faultinject.NetDisconnect, After: 1, Every: 3, Count: 4},
					{Point: faultinject.NetDuplicate, Every: 2},
					{Point: faultinject.NetReorder, After: 2, Every: 5, Count: 2},
					{Point: faultinject.NetSlow, Every: 4},
				}})
				ts = newAggregator(t)
				fc2 := &provenance.Client{
					BaseURL:    ts.URL,
					HTTPClient: &http.Client{Transport: in.WrapRoundTripper(nil)},
					MaxRetries: 12,
					RetryBase:  time.Millisecond,
				}
				got = aggregatorExport(t, fc2, fc, 3)
				if !bytes.Equal(got, fc.export) {
					t.Fatalf("faulted (%s): aggregator export != local fold", in.Summary())
				}

				// Kill + resume: a prefix lands, the recorder dies, and the
				// journal-replay path resends everything from epoch 1. The
				// prefix dedups, the tail applies, the bytes match.
				ts = newAggregator(t)
				c := &provenance.Client{BaseURL: ts.URL}
				ctx := context.Background()
				prefix := len(fc.deltas) / 2
				if prefix > 0 {
					if _, err := provenance.UploadDeltas(ctx, c, "w", fc.hello, fc.deltas[:prefix], 5, nil); err != nil {
						t.Fatal(err)
					}
				}
				st, err := provenance.UploadDeltas(ctx, &provenance.Client{BaseURL: ts.URL}, "w",
					fc.hello, fc.deltas, 5, &wire.Seal{FinalEpoch: fc.finalEpoch()})
				if err != nil {
					t.Fatal(err)
				}
				if st.Duplicates != prefix {
					t.Fatalf("resume acknowledged %d duplicates, want %d", st.Duplicates, prefix)
				}
				got, err = c.Export(ctx, "w")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, fc.export) {
					t.Fatal("kill+resume: aggregator export != local fold")
				}

				libraryStreamMatches(t, app, threads, fc)
			})
		}
	}
}

// killSwitch lets a recorder's first n requests through and fails every
// one after: from the aggregator's side, a recorder SIGKILLed mid-stream.
type killSwitch struct{ left atomic.Int64 }

func (k *killSwitch) RoundTrip(r *http.Request) (*http.Response, error) {
	if k.left.Add(-1) < 0 {
		return nil, errors.New("recorder killed")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestFabricKillRefeedMultiThread is the crash-resume path at the thread
// counts where it used to break: a multi-threaded run journals and
// streams at once, the stream dies after a random prefix, and the
// journal is re-fed from epoch 1 (what inspector-recover -stream does).
// Journal and stream are sinks of one fold, so the journal's record k is
// the cut the aggregator already holds as epoch k: the prefix dedups, the
// tail applies, and the export matches the uninterrupted run's own fold.
// With a private analyzer per recorder (as before the epoch pipeline)
// the two cut about one epoch in six differently at >1 thread, and a
// re-feed over such a prefix was answered HTTP 400 and poisoned the
// source — so one run streams to several sources, each killed at its
// own prefix.
func TestFabricKillRefeedMultiThread(t *testing.T) {
	const streams = 12
	r := rand.New(rand.NewSource(12))
	for _, threads := range []int{2, 4} {
		t.Run(fmt.Sprintf("word_count-t%d", threads), func(t *testing.T) {
			rt, run, hello := fabricRuntime(t, "word_count", threads)
			ts := newAggregator(t)
			dir := t.TempDir()
			jw, err := journal.Create(journal.Options{
				Dir: dir, Threads: hello.Threads, App: hello.App, RunID: hello.RunID, Fsync: journal.PolicyNone,
			})
			if err != nil {
				t.Fatal(err)
			}
			sinks := []epoch.Sink{jw}
			ups := make([]*provenance.Uploader, streams)
			for i := range ups {
				kill := &killSwitch{}
				kill.left.Store(1 + r.Int63n(12))
				ups[i], err = provenance.NewUploader(
					&provenance.Client{BaseURL: ts.URL, HTTPClient: &http.Client{Transport: kill}},
					hello.Threads,
					provenance.StreamOptions{Source: fmt.Sprintf("w%d", i), RunID: hello.RunID, App: hello.App, Batch: 2, MaxResyncs: 1},
				)
				if err != nil {
					t.Fatal(err)
				}
				sinks = append(sinks, ups[i])
			}
			drv := epoch.NewDriver(rt.Graph(), epoch.Options{}, sinks...)
			rt.RegisterCommitHook(drv.CommitHook())
			if err := run(); err != nil {
				t.Fatal(err)
			}
			if err := drv.Close(); err != nil {
				t.Fatal(err)
			}
			want := exportAnalysisJSON(t, drv.Analysis())
			rep, err := journal.Recover(dir, journal.RecoverOptions{KeepDeltas: true})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Sealed || rep.Epoch != drv.Epoch() {
				t.Fatalf("journal sealed=%v at epoch %d, run folded %d", rep.Sealed, rep.Epoch, drv.Epoch())
			}

			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			c := &provenance.Client{BaseURL: ts.URL}
			for i, up := range ups {
				source := fmt.Sprintf("w%d", i)
				if err := up.Wait(ctx); err == nil {
					t.Fatalf("%s: the killed stream reported a clean flush", source)
				}
				off, found, err := c.IngestOffset(ctx, source)
				if err != nil || !found {
					t.Fatalf("%s: offset after the kill: found=%v err=%v", source, found, err)
				}
				prefix := int(off.NextEpoch - 1)
				if prefix == 0 || uint64(prefix) >= rep.Epoch {
					t.Fatalf("%s: stream died with %d of %d epochs on the aggregator; want a proper prefix", source, prefix, rep.Epoch)
				}
				st, err := provenance.UploadDeltas(ctx, c, source, hello, rep.Deltas, 64, &wire.Seal{FinalEpoch: rep.Epoch})
				if err != nil {
					t.Fatalf("%s: re-feed from epoch 1 over a %d-epoch prefix: %v", source, prefix, err)
				}
				if st.Duplicates != prefix || st.Degraded || !st.Sealed || st.NextEpoch != rep.Epoch+1 {
					t.Fatalf("%s: re-feed status = %+v, want %d duplicates, sealed at next=%d, not degraded",
						source, st, prefix, rep.Epoch+1)
				}
				got, err := c.Export(ctx, source)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: re-fed aggregator export != the uninterrupted run's own fold", source)
				}
			}
		})
	}
}
