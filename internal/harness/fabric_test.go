package harness

// Cross-workload fabric conformance sweep. Every workload, single- and
// multi-thread, is recorded once (the corpus) through inspector.New with
// a journal and a stream attached, the way inspector-run -journal
// -stream does; the aggregator that run streamed to must hold the
// recorder's own fold, byte for byte. The journal's own frames are then
// re-fed to fresh aggregators (inspector-serve -ingest machinery) three
// more ways — clean, through a fault-injected network (disconnects
// mid-body, duplicate deliveries, reordering, slow sinks), and as a
// kill+resume (a prefix re-feed, then the whole journal from epoch 1) —
// with the same export, the .cpg bytes of the recorder's fold, demanded
// of all three. Recovery and the aggregator read the frames with one
// applier, so the sweep checks the two transports around it.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/cpgfile/cpgtest"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/faultinject"
	"github.com/repro/inspector/internal/journal"
	"github.com/repro/inspector/internal/wire"
	"github.com/repro/inspector/internal/workloads"
	"github.com/repro/inspector/provenance"
)

// newAggregator stands up an ingest-mode server.
func newAggregator(t *testing.T) *httptest.Server {
	t.Helper()
	hub := provenance.NewIngestHub(provenance.IngestOptions{})
	ts := httptest.NewServer(provenance.NewServer(nil, provenance.ServerOptions{Ingest: hub}))
	t.Cleanup(ts.Close)
	return ts
}

// refeed posts a recovered journal's own frames to source through c,
// as inspector-recover -stream does, at most batch deltas per POST
// (0: the byte budget only).
func refeed(t *testing.T, c *provenance.Client, source string, rep *journal.Recovery, batch int) *provenance.IngestStatus {
	t.Helper()
	frames, err := rep.Frames()
	if err != nil {
		t.Fatal(err)
	}
	defer frames.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := provenance.Refeed(ctx, c, source, frames, batch)
	if err != nil {
		t.Fatalf("re-feed of %s: %v", source, err)
	}
	return st
}

// aggregatorExport re-feeds the sealed journal with the given client
// and fetches the final export bytes.
func aggregatorExport(t *testing.T, c *provenance.Client, rep *journal.Recovery, batch int) []byte {
	t.Helper()
	if st := refeed(t, c, "w", rep, batch); !st.Sealed || st.NextEpoch != rep.Epoch+1 {
		t.Fatalf("final status = %+v, want sealed at next=%d", st, rep.Epoch+1)
	}
	got, err := c.Export(context.Background(), "w")
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// recordingMatchesItsSinks checks the recording itself, which is the
// product assembly's delivery: the aggregator inspector.New streamed to
// holds the recorder's own fold, byte for byte, and the journal beside
// it recovers to the uninterrupted run — sealed, not degraded, at the
// run's epoch, the same graph (the fold's .cpg bytes, covering every
// vertex and sync-log entry of the recovered graph). One run id must name the run everywhere
// it is written: journal header, wire hello (as the aggregator bound
// it) and the .cpg header.
func recordingMatchesItsSinks(t *testing.T, r *recording, rep *journal.Recovery) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	id := r.hello.RunID
	c := &provenance.Client{BaseURL: corpus.agg.URL}
	got, err := c.Export(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if cpgtest.Sum(got) != r.foldSHA {
		t.Fatal("library: aggregator export != the runtime's own fold")
	}
	st, found, err := c.IngestOffset(ctx, id)
	if err != nil || !found || !st.Sealed {
		t.Fatalf("library: aggregator status %+v found=%v err=%v, want sealed", st, found, err)
	}

	if !rep.Sealed || rep.Degraded() || rep.Epoch != r.epoch {
		t.Fatalf("library: journal sealed=%v degraded=%v at epoch %d, run folded %d",
			rep.Sealed, rep.Degraded(), rep.Epoch, r.epoch)
	}
	coversGraph(t, "library: full recovery", rep.Analysis, rep.Graph)
	if cpgtest.SHA(t, rep.Analysis) != r.foldSHA {
		t.Fatal("library: full recovery diverges from the runtime's graph")
	}

	m, err := cpgfile.Open(r.cpg)
	if err != nil {
		t.Fatal(err)
	}
	hdr := m.Header()
	m.Close()
	if rep.Header.RunID != id || st.RunID != id || hdr.RunID != id {
		t.Fatalf("library: run id %q is %q in the journal header, %q in the wire hello, %q in the .cpg header",
			id, rep.Header.RunID, st.RunID, hdr.RunID)
	}
}

// TestFabricAggregatorMatchesLocalFold is the sweep: every workload at
// 1 and 4 threads, the library's own streaming plus three delivery
// scenarios, zero byte drift allowed.
func TestFabricAggregatorMatchesLocalFold(t *testing.T) {
	for _, app := range workloads.Names() {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s-t%d", app, threads), func(t *testing.T) {
				r := corpus.get(t, app, threads)
				rep, err := journal.Recover(r.journal, journal.RecoverOptions{})
				if err != nil {
					t.Fatal(err)
				}
				recordingMatchesItsSinks(t, r, rep)

				// Clean delivery.
				ts := newAggregator(t)
				got := aggregatorExport(t, &provenance.Client{BaseURL: ts.URL}, rep, 7)
				if cpgtest.Sum(got) != r.foldSHA {
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
				faulted := &provenance.Client{
					BaseURL:    ts.URL,
					HTTPClient: &http.Client{Transport: in.WrapRoundTripper(nil)},
					MaxRetries: 12,
					RetryBase:  time.Millisecond,
				}
				got = aggregatorExport(t, faulted, rep, 3)
				if cpgtest.Sum(got) != r.foldSHA {
					t.Fatalf("faulted (%s): aggregator export != local fold", in.Summary())
				}

				// Kill + resume: a prefix lands, the recorder dies, and the
				// journal-replay path resends everything from epoch 1. The
				// prefix dedups, the tail applies, the bytes match.
				ts = newAggregator(t)
				c := &provenance.Client{BaseURL: ts.URL}
				prefix := rep.Epoch / 2
				if prefix > 0 {
					pre, err := journal.Recover(r.journal, journal.RecoverOptions{MaxEpoch: prefix})
					if err != nil {
						t.Fatal(err)
					}
					if st := refeed(t, c, "w", pre, 5); st.Sealed || st.NextEpoch != prefix+1 {
						t.Fatalf("prefix re-feed status = %+v, want unsealed at next=%d", st, prefix+1)
					}
				}
				st := refeed(t, &provenance.Client{BaseURL: ts.URL}, "w", rep, 5)
				if uint64(st.Duplicates) != prefix || !st.Sealed {
					t.Fatalf("resume = %+v, want %d duplicates, sealed", st, prefix)
				}
				got, err = c.Export(context.Background(), "w")
				if err != nil {
					t.Fatal(err)
				}
				if cpgtest.Sum(got) != r.foldSHA {
					t.Fatal("kill+resume: aggregator export != local fold")
				}
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
			// Twelve uploaders on one fold, each behind its own kill switch:
			// inspector.Options has one Stream, so this is wired by hand.
			rt, run := bareRuntime(t, "word_count", threads)
			hello := wire.Hello{RunID: runID("word_count", threads), App: "word_count", Threads: rt.Graph().Threads()}
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
			want := cpgtest.Bytes(t, rt.Graph().AnalyzeAs(drv.Epoch()))
			rep, err := journal.Recover(dir, journal.RecoverOptions{})
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
				st := refeed(t, c, source, rep, 64)
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
