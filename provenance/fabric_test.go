package provenance

// Tests of the distributed fabric: ingest resume offsets, duplicate and
// reorder conformance, degraded sources, epoch push, and the
// StreamRecorder's retry/resume discipline. The load-bearing property
// throughout: the aggregator's export at epoch E is byte-identical to
// the recorder's own incremental fold at epoch E, no matter how the
// frames got there.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/core/cpgbench"
	"github.com/repro/inspector/internal/cpgfile/cpgtest"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/wire"
)

// fabricRun is a recorded workload: its hello, the epoch-delta stream,
// and the reference .cpg bytes after each epoch.
type fabricRun struct {
	hello   wire.Hello
	deltas  []*core.EpochDelta
	exports [][]byte
}

func (fr *fabricRun) finalEpoch() uint64 { return fr.deltas[len(fr.deltas)-1].Epoch }
func (fr *fabricRun) finalExport() []byte {
	return fr.exports[len(fr.exports)-1]
}

// recordFabric drives a deterministic random multithreaded workload,
// folding an epoch every few seals, and captures deltas plus reference
// exports.
func recordFabric(t testing.TB, threads, steps int, seed int64) *fabricRun {
	t.Helper()
	g := core.NewGraph(threads)
	recs := make([]*core.Recorder, threads)
	for i := range recs {
		rec, err := core.NewRecorder(g, i, 0)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
	}
	locks := []*core.SyncObject{
		g.NewSyncObject("m0", false),
		g.NewSyncObject("m1", false),
	}
	r := rand.New(rand.NewSource(seed))
	inc := core.NewIncrementalAnalyzer(g)
	run := &fabricRun{hello: wire.Hello{
		RunID:   fmt.Sprintf("fabric-%d-%d", threads, seed),
		App:     "fabric-test",
		Threads: threads,
	}}
	fold := func() {
		a, d := inc.FoldDelta()
		run.deltas = append(run.deltas, d)
		run.exports = append(run.exports, cpgtest.Bytes(t, a))
	}
	for s := 0; s < steps; s++ {
		rec := recs[r.Intn(threads)]
		for i := 0; i < 1+r.Intn(3); i++ {
			rec.OnRead(uint64(r.Intn(40)))
			rec.OnWrite(uint64(r.Intn(40)))
		}
		lock := locks[r.Intn(len(locks))]
		sc, err := rec.EndSub(core.SyncEvent{Kind: core.SyncRelease, Object: lock.Ref()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		rec.Release(lock, sc)
		rec.Acquire(lock)
		if s%3 == 2 {
			fold()
		}
	}
	for _, rec := range recs {
		if _, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
			t.Fatal(err)
		}
	}
	fold()
	return run
}

// newFabricServer serves an empty static set plus an ingest hub.
func newFabricServer(t *testing.T, opts IngestOptions) (*IngestHub, *httptest.Server) {
	t.Helper()
	hub := NewIngestHub(opts)
	ts := httptest.NewServer(NewServer(nil, ServerOptions{Ingest: hub}))
	t.Cleanup(ts.Close)
	return hub, ts
}

// post encodes and ships a delta range (nil seal) and fails the test on
// encode errors only — the ingest error is returned for inspection.
func post(t *testing.T, c *Client, source string, hello wire.Hello, deltas []*core.EpochDelta, seal *wire.Seal) (*IngestStatus, error) {
	t.Helper()
	frames, err := EncodeFrames(hello, deltas, seal)
	if err != nil {
		t.Fatal(err)
	}
	return c.Ingest(context.Background(), source, frames)
}

// TestIngestOffsetContract pins the resume-offset contract: unknown
// source is 404 (start at epoch 1); NextEpoch is always last applied +
// 1; duplicates are acknowledged without reapplying; gaps are 409 and
// apply nothing.
func TestIngestOffsetContract(t *testing.T) {
	_, ts := newFabricServer(t, IngestOptions{})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	run := recordFabric(t, 2, 24, 1)

	// Unknown source: 404 surfaces as found=false, not an error.
	if _, found, err := c.IngestOffset(ctx, "src"); err != nil || found {
		t.Fatalf("fresh offset = found=%v err=%v, want found=false err=nil", found, err)
	}

	// First two epochs land; the offset names the third.
	st, err := post(t, c, "src", run.hello, run.deltas[:2], nil)
	if err != nil {
		t.Fatal(err)
	}
	wantNext := run.deltas[1].Epoch + 1
	if st.NextEpoch != wantNext || st.Accepted != 2 || st.Duplicates != 0 {
		t.Fatalf("post status = %+v, want next=%d accepted=2", st, wantNext)
	}
	off, found, err := c.IngestOffset(ctx, "src")
	if err != nil || !found || off.NextEpoch != wantNext || off.RunID != run.hello.RunID {
		t.Fatalf("offset = %+v found=%v err=%v, want next=%d run=%s", off, found, err, wantNext, run.hello.RunID)
	}

	// Re-sending the same prefix is acknowledged, not reapplied.
	st, err = post(t, c, "src", run.hello, run.deltas[:2], nil)
	if err != nil || st.Accepted != 0 || st.Duplicates != 2 || st.NextEpoch != wantNext {
		t.Fatalf("duplicate post = %+v err=%v, want 0 accepted / 2 duplicates", st, err)
	}

	// A gap (skipping deltas[2]) is 409 and leaves the offset alone.
	if _, err := post(t, c, "src", run.hello, run.deltas[3:4], nil); serverStatus(err) != http.StatusConflict {
		t.Fatalf("gap post err = %v, want HTTP 409", err)
	}
	if off, _, _ := c.IngestOffset(ctx, "src"); off == nil || off.NextEpoch != wantNext {
		t.Fatalf("offset after gap = %+v, want next=%d unchanged", off, wantNext)
	}

	// A hello naming a different run cannot rebind the source.
	other := run.hello
	other.RunID = "impostor"
	if _, err := post(t, c, "src", other, nil, nil); serverStatus(err) != http.StatusConflict {
		t.Fatalf("run-conflict post err = %v, want HTTP 409", err)
	}
}

// rawBody is a record body built by hand: AppendFrame frames it as is.
type rawBody []byte

func (r rawBody) AppendWire(b []byte) ([]byte, error) { return append(b, r...), nil }

// gobFrame frames v the way a version-1 recorder did: a self-contained
// gob stream behind the kind byte.
func gobFrame(t *testing.T, kind byte, v any) []byte {
	t.Helper()
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(v); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.AppendFrame(nil, kind, rawBody(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestIngestRefusesMalformedPayloads pins the decode half of the trust
// boundary, before validation ever sees a delta: a version-1 (gob) or
// version-2 recorder is told so by version in a 400 and binds nothing; a delta
// body that lies about its shape is a 400 naming the field, and —
// unlike a delta that parses and then fails validation — leaves the
// source healthy at its last good epoch.
func TestIngestRefusesMalformedPayloads(t *testing.T) {
	hub, ts := newFabricServer(t, IngestOptions{})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	run := recordFabric(t, 2, 24, 5)

	_, err := c.Ingest(ctx, "old", gobFrame(t, wire.KindHeader, &run.hello))
	if serverStatus(err) != http.StatusBadRequest ||
		!strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("gob hello err = %v, want HTTP 400 naming versions 1 and 2", err)
	}
	if _, bound := hub.Source("old"); bound {
		t.Fatal("a refused hello bound a source")
	}
	// A version-2 recorder spelled each thunk's index: its hello is
	// refused by version too.
	v2, err := run.hello.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	v2[0] = 2
	hello2, err := wire.AppendFrame(nil, wire.KindHeader, rawBody(v2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Ingest(ctx, "v2", hello2)
	if serverStatus(err) != http.StatusBadRequest || !strings.Contains(err.Error(), "opens with 2") || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("version-2 hello err = %v, want HTTP 400 naming versions 2 and 3", err)
	}
	if _, bound := hub.Source("v2"); bound {
		t.Fatal("a refused version-2 hello bound a source")
	}

	if _, err := post(t, c, "w", run.hello, run.deltas[:2], nil); err != nil {
		t.Fatal(err)
	}
	// The next epoch with a lens count no body backs, correctly framed.
	body, err := EncodeFrames(run.hello, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	forged := binary.AppendUvarint(binary.AppendUvarint(nil, run.deltas[2].Epoch), 1<<40)
	if body, err = wire.AppendFrame(body, wire.KindDelta, rawBody(forged)); err != nil {
		t.Fatal(err)
	}
	_, err = c.Ingest(ctx, "w", body)
	if serverStatus(err) != http.StatusBadRequest || !strings.Contains(err.Error(), "delta.lens") {
		t.Fatalf("forged-count delta err = %v, want HTTP 400 naming delta.lens", err)
	}
	if st, err := post(t, c, "w", run.hello, run.deltas[2:3], nil); err != nil || st.Accepted != 1 || st.Degraded {
		t.Fatalf("genuine delta after the refused one = %+v err=%v, want it applied to a healthy source", st, err)
	}
}

// TestIngestRefusesWideHello: the aggregator's width bound is the one
// wire.Hello.ParseWire enforces for every reader — a hello naming no
// thread slot or more than wire.MaxThreads of them is a 400 that binds
// nothing, before a graph that wide exists.
func TestIngestRefusesWideHello(t *testing.T) {
	hub, ts := newFabricServer(t, IngestOptions{})
	c := &Client{BaseURL: ts.URL}
	for _, threads := range []uint64{0, wire.MaxThreads + 1, 1 << 26} {
		body := binary.AppendUvarint(nil, wire.Version)
		body = wire.AppendString(body, "wide-run")
		body = wire.AppendString(body, "")
		body = binary.AppendUvarint(body, threads)
		body = binary.AppendUvarint(body, 1)
		hello, err := wire.AppendFrame(nil, wire.KindHeader, rawBody(body))
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Ingest(context.Background(), "wide", hello)
		if serverStatus(err) != http.StatusBadRequest || !strings.Contains(err.Error(), "hello.threads") {
			t.Fatalf("%d-thread hello: err = %v, want HTTP 400 naming hello.threads", threads, err)
		}
	}
	if _, bound := hub.Source("wide"); bound {
		t.Fatal("a refused hello bound a source")
	}
}

// TestIngestSourceTableBound pins the hub's one capacity limit. Sources
// are never evicted, so once maxIngestSources names are bound the hello
// of one more is refused — 400, "retrying cannot help" — and binds
// nothing, while a source bound earlier keeps ingesting to its seal.
func TestIngestSourceTableBound(t *testing.T) {
	hub, ts := newFabricServer(t, IngestOptions{})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	run := recordFabric(t, 2, 24, 9)

	if _, err := post(t, c, "first", run.hello, run.deltas[:1], nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < maxIngestSources; i++ {
		if _, err := post(t, c, fmt.Sprintf("filler-%d", i), run.hello, nil, nil); err != nil {
			t.Fatalf("source %d of %d refused: %v", i+1, maxIngestSources, err)
		}
	}
	_, err := post(t, c, "one-too-many", run.hello, run.deltas[:1], nil)
	if serverStatus(err) != http.StatusBadRequest || !strings.Contains(err.Error(), "source limit reached (256)") {
		t.Fatalf("hello of source %d: err = %v, want HTTP 400 naming the 256-source limit", maxIngestSources+1, err)
	}
	if _, bound := hub.Source("one-too-many"); bound || len(hub.IDs()) != maxIngestSources {
		t.Fatalf("the refused hello bound a source (table holds %d)", len(hub.IDs()))
	}
	if _, found, err := c.IngestOffset(ctx, "one-too-many"); err != nil || found {
		t.Fatalf("offset of the refused source: found=%v err=%v, want 404", found, err)
	}

	// A full table refuses new names only.
	st, err := post(t, c, "first", run.hello, run.deltas[1:], &wire.Seal{FinalEpoch: run.finalEpoch()})
	if err != nil || !st.Sealed || st.Accepted != len(run.deltas)-1 {
		t.Fatalf("bound source under a full table: %+v err=%v, want the rest applied and sealed", st, err)
	}
	if got, err := c.Export(ctx, "first"); err != nil || !bytes.Equal(got, run.finalExport()) {
		t.Fatalf("bound source's export diverges from the local fold (err=%v)", err)
	}
}

// TestIngestExportMatchesLocalFold streams a full run (with seal) and
// requires the aggregator's export to be byte-identical to the
// recorder's local fold at the same epoch.
func TestIngestExportMatchesLocalFold(t *testing.T) {
	for _, threads := range []int{1, 4} {
		run := recordFabric(t, threads, 36, int64(threads)*13)
		_, ts := newFabricServer(t, IngestOptions{})
		c := &Client{BaseURL: ts.URL}
		ctx := context.Background()

		st, err := post(t, c, "w", run.hello, run.deltas, &wire.Seal{FinalEpoch: run.finalEpoch()})
		if err != nil {
			t.Fatal(err)
		}
		if !st.Sealed || st.NextEpoch != run.finalEpoch()+1 {
			t.Fatalf("final status = %+v, want sealed at next=%d", st, run.finalEpoch()+1)
		}
		got, err := c.Export(ctx, "w")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, run.finalExport()) {
			t.Fatalf("threads=%d: aggregator export (%d bytes) != local fold (%d bytes)",
				threads, len(got), len(run.finalExport()))
		}
		// The ingested source shows up in the listing like any CPG.
		list, err := c.List(ctx)
		if err != nil || len(list) != 1 || list[0].ID != "w" {
			t.Fatalf("list = %+v err=%v", list, err)
		}
	}
}

// TestIngestConformanceRandomSchedules replays a run through random
// retry schedules — arbitrary batch sizes, duplicated batches, replayed
// prefixes, interleaved gap attempts, reconnects at every boundary —
// and requires the final export to stay byte-identical to the clean
// in-process fold.
func TestIngestConformanceRandomSchedules(t *testing.T) {
	run := recordFabric(t, 2, 42, 7)
	n := len(run.deltas)
	for seed := int64(0); seed < 6; seed++ {
		_, ts := newFabricServer(t, IngestOptions{})
		r := rand.New(rand.NewSource(seed * 101))
		applied := 0 // deltas[:applied] are on the server
		for applied < n {
			// Reconnect: every POST may come from a fresh client.
			c := &Client{BaseURL: ts.URL}
			if r.Intn(4) == 0 && applied < n-1 {
				// A future batch must bounce without applying anything.
				start := applied + 1 + r.Intn(n-applied-1)
				if _, err := post(t, c, "w", run.hello, run.deltas[start:start+1], nil); serverStatus(err) != http.StatusConflict {
					t.Fatalf("seed %d: gap post err = %v, want 409", seed, err)
				}
				continue
			}
			// Any contiguous range starting at or before the offset is
			// legal; the prefix dedups, the tail applies.
			start := r.Intn(applied + 1)
			end := start + 1 + r.Intn(n-start)
			st, err := post(t, &Client{BaseURL: ts.URL}, "w", run.hello, run.deltas[start:end], nil)
			if err != nil {
				t.Fatalf("seed %d: post [%d,%d) with %d applied: %v", seed, start, end, applied, err)
			}
			if applied < end {
				applied = end
			}
			if want := run.deltas[applied-1].Epoch + 1; st.NextEpoch != want {
				t.Fatalf("seed %d: next epoch = %d, want %d", seed, st.NextEpoch, want)
			}
		}
		c := &Client{BaseURL: ts.URL}
		if _, err := post(t, c, "w", run.hello, nil, &wire.Seal{FinalEpoch: run.finalEpoch()}); err != nil {
			t.Fatal(err)
		}
		got, err := c.Export(context.Background(), "w")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, run.finalExport()) {
			t.Fatalf("seed %d: export diverged after randomized schedule", seed)
		}
		ts.Close()
	}
}

// TestIngestDegradedSource pins the trust boundary: a malformed delta is
// rejected with 400, the source latches degraded (further ingest is
// 409), and the export keeps serving — the last good epoch with
// truncation gaps marked, per the degraded-trace rules.
func TestIngestDegradedSource(t *testing.T) {
	run := recordFabric(t, 2, 24, 3)
	hub, ts := newFabricServer(t, IngestOptions{})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	if _, err := post(t, c, "w", run.hello, run.deltas[:2], nil); err != nil {
		t.Fatal(err)
	}
	// Forge the third delta: inflate a lens count so validation trips.
	forged := *run.deltas[2]
	forged.Lens = append([]int(nil), forged.Lens...)
	forged.Lens[0]++
	if _, err := post(t, c, "w", run.hello, []*core.EpochDelta{&forged}, nil); serverStatus(err) != http.StatusBadRequest {
		t.Fatalf("forged delta err = %v, want HTTP 400", err)
	}
	off, _, err := c.IngestOffset(ctx, "w")
	if err != nil || !off.Degraded {
		t.Fatalf("offset after poison = %+v err=%v, want degraded", off, err)
	}
	// The genuine delta is refused too: the source is poisoned for good.
	if _, err := post(t, c, "w", run.hello, run.deltas[2:3], nil); serverStatus(err) != http.StatusConflict {
		t.Fatalf("post after poison err = %v, want HTTP 409", err)
	}
	// The resume offset still names the last applied delta; the degraded
	// republish was one more fold, so the source's published epoch is one
	// past it — and every epoch surface reports that one number.
	applied := run.deltas[1].Epoch
	if off.NextEpoch != applied+1 {
		t.Fatalf("offset after poison: next epoch %d, want %d", off.NextEpoch, applied+1)
	}
	src, _ := hub.Source("w")
	published := src.Epoch()
	if published != applied+1 {
		t.Fatalf("published epoch after poison = %d, want %d (one degraded fold past %d)", published, applied+1, applied)
	}
	// Queries still serve, flagged degraded.
	res, err := c.Stats(ctx, "w")
	if err != nil || !res.Degraded || res.Epoch != published {
		t.Fatalf("stats after poison = %+v err=%v, want degraded result at epoch %d", res, err, published)
	}
	cpg, err := c.Export(ctx, "w")
	if err != nil {
		t.Fatalf("export after poison: %v", err)
	}
	if _, hdr := cpgtest.Decode(t, cpg); hdr.Epoch != published || !hdr.Degraded {
		t.Fatalf("export after poison: .cpg header %+v, want degraded at epoch %d", hdr, published)
	}
	// The push wire reports the source closed at that epoch, asked
	// without a wait or parked above it.
	for _, wait := range []time.Duration{0, 2 * time.Second} {
		est, err := c.WaitEpoch(ctx, "w", published+5, wait)
		if err != nil || est.Epoch != published || (wait > 0 && !est.Closed) {
			t.Fatalf("watch (wait %v) after poison = %+v err=%v, want epoch %d, closed once parked", wait, est, err, published)
		}
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ready ReadyStatus
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil || ready.Epochs["w"] != published {
		t.Fatalf("/readyz after poison = %+v err=%v, want w at epoch %d", ready, err, published)
	}
}

// TestWaitEpochPush exercises the long-poll: a watcher parked above the
// current epoch wakes when ingest publishes it, and a zero wait answers
// at once. (What a closed source answers is TestFeedWaitEpochContract's,
// and its mapping onto the wire TestIngestDegradedSource's.)
func TestWaitEpochPush(t *testing.T) {
	run := recordFabric(t, 2, 24, 5)
	_, ts := newFabricServer(t, IngestOptions{})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	if _, err := post(t, c, "w", run.hello, run.deltas[:1], nil); err != nil {
		t.Fatal(err)
	}
	target := run.deltas[1].Epoch
	done := make(chan *EpochStatus, 1)
	go func() {
		st, err := c.WaitEpoch(ctx, "w", target, 10*time.Second)
		if err != nil {
			t.Error(err)
		}
		done <- st
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := post(t, c, "w", run.hello, run.deltas[1:2], nil); err != nil {
		t.Fatal(err)
	}
	select {
	case st := <-done:
		if st == nil || st.Epoch < target || st.Closed {
			t.Fatalf("watch woke with %+v, want epoch >= %d, open", st, target)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never woke")
	}

	// A zero-wait poll answers immediately with the current epoch.
	st, err := c.WaitEpoch(ctx, "w", target+100, 0)
	if err != nil || st.Epoch != target || st.Closed {
		t.Fatalf("immediate poll = %+v err=%v, want epoch %d open", st, err, target)
	}
}

// TestIngestPublishesOncePerBatch pins the apply side's batching: a POST
// body is folded and published once, as the epoch of its last applied
// delta, whichever way the body ends — at its end, at a bad frame (the
// applied prefix is published before the 400), or at a poisoning delta
// (the prefix, then the degraded republish one epoch past it). Every
// published epoch is the recorder's epoch of that number, export for
// export.
func TestIngestPublishesOncePerBatch(t *testing.T) {
	run := recordFabric(t, 2, 48, 11)
	if len(run.deltas) < 12 {
		t.Fatalf("fixture folded %d epochs, want >= 12", len(run.deltas))
	}
	hub, ts := newFabricServer(t, IngestOptions{})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	if _, err := post(t, c, "w", run.hello, nil, nil); err != nil {
		t.Fatal(err)
	}
	src, _ := hub.Source("w")
	seen := src.publishes.Load()
	if seen != 0 {
		t.Fatalf("a hello-only body published %d epochs, want 0", seen)
	}
	// expect checks the publishes since the last call and that the newest
	// one is the recorder's epoch at deltas[last].
	expect := func(what string, publishes uint64, last int) {
		t.Helper()
		if got := src.publishes.Load() - seen; got != publishes {
			t.Fatalf("%s: %d publishes, want %d", what, got, publishes)
		}
		seen = src.publishes.Load()
		if e, want := src.Epoch(), run.deltas[last].Epoch; e != want {
			t.Fatalf("%s: published epoch %d, want %d", what, e, want)
		}
		got, err := c.Export(ctx, "w")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, run.exports[last]) {
			t.Fatalf("%s: export at epoch %d diverges from the recorder's", what, src.Epoch())
		}
	}

	// One body of five deltas: one publish, at the last delta's epoch. A
	// watcher parked at an intermediate epoch wakes with the batch's.
	woke := make(chan uint64, 1)
	go func() {
		e, err := src.WaitEpoch(ctx, run.deltas[2].Epoch)
		if err != nil {
			t.Error(err)
		}
		woke <- e
	}()
	time.Sleep(20 * time.Millisecond)
	if st, err := post(t, c, "w", run.hello, run.deltas[:5], nil); err != nil || st.Accepted != 5 {
		t.Fatalf("five-delta post = %+v err=%v, want 5 accepted", st, err)
	}
	expect("five-delta body", 1, 4)
	if e := <-woke; e != run.deltas[4].Epoch {
		t.Fatalf("watcher parked at epoch %d woke with %d, want the batch's %d", run.deltas[2].Epoch, e, run.deltas[4].Epoch)
	}

	// A body that fails at its fourth delta with a bad frame: the three
	// before it are applied and published.
	body, err := EncodeFrames(run.hello, run.deltas[5:9], nil)
	if err != nil {
		t.Fatal(err)
	}
	body[len(body)-1] ^= 0xff // the last payload byte: deltas[8] fails its CRC
	if _, err := c.Ingest(ctx, "w", body); serverStatus(err) != http.StatusBadRequest || !strings.Contains(err.Error(), "bad CRC") {
		t.Fatalf("bad-frame body err = %v, want HTTP 400 naming the CRC", err)
	}
	expect("body cut at a bad frame", 1, 7)

	// A body that fails at its third delta with a poisoning one: the two
	// before it are published, then the degraded fold one epoch past them.
	forged := *run.deltas[10]
	forged.Lens = append([]int(nil), forged.Lens...)
	forged.Lens[0]++
	if _, err := post(t, c, "w", run.hello, []*core.EpochDelta{run.deltas[8], run.deltas[9], &forged}, nil); serverStatus(err) != http.StatusBadRequest {
		t.Fatalf("poisoning body err = %v, want HTTP 400", err)
	}
	applied := run.deltas[9].Epoch
	if got := src.publishes.Load() - seen; got != 2 {
		t.Fatalf("poisoning body: %d publishes, want 2 (the prefix, then the degraded fold)", got)
	}
	if st := src.Status(); st.NextEpoch != applied+1 || !st.Degraded {
		t.Fatalf("status after poison = %+v, want next epoch %d, degraded", st, applied+1)
	}
	if e := src.Epoch(); e != applied+1 || !src.Engine().Analysis().Degraded() {
		t.Fatalf("published epoch after poison = %d (degraded %v), want %d degraded", e, src.Engine().Analysis().Degraded(), applied+1)
	}
}

// driveStream replays a deterministic workload through a live graph with
// the StreamRecorder's commit hook attached, mirroring what
// inspector-run -stream does.
func driveStream(t *testing.T, g *core.Graph, threads, steps int, seed int64, hook func(core.SubID)) {
	t.Helper()
	recs := make([]*core.Recorder, threads)
	for i := range recs {
		rec, err := core.NewRecorder(g, i, 0)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
	}
	locks := []*core.SyncObject{g.NewSyncObject("m0", false), g.NewSyncObject("m1", false)}
	r := rand.New(rand.NewSource(seed))
	for s := 0; s < steps; s++ {
		rec := recs[r.Intn(threads)]
		rec.OnRead(uint64(r.Intn(40)))
		rec.OnWrite(uint64(r.Intn(40)))
		lock := locks[r.Intn(len(locks))]
		sc, err := rec.EndSub(core.SyncEvent{Kind: core.SyncRelease, Object: lock.Ref()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		rec.Release(lock, sc)
		rec.Acquire(lock)
		hook(sc.ID)
	}
	for _, rec := range recs {
		sc, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0)
		if err != nil {
			t.Fatal(err)
		}
		hook(sc.ID)
	}
}

// TestStreamRecorderMidStream503Resume pins satellite 4: the streaming
// path rides the same backoff/Retry-After discipline as queries. The
// server sheds the first several POSTs with 503; the recorder must
// retry/resync through them and converge with zero epoch loss.
func TestStreamRecorderMidStream503Resume(t *testing.T) {
	hub := NewIngestHub(IngestOptions{})
	srv := NewServer(nil, ServerOptions{Ingest: hub})
	var sheds atomic.Int32
	sheds.Store(4)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && sheds.Add(-1) >= 0 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"shedding load"}`)
			return
		}
		srv.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, MaxRetries: 10, RetryBase: time.Millisecond}
	g := core.NewGraph(2)
	sr, err := NewStreamRecorder(g, c, StreamOptions{
		Source: "w", RunID: "run-503", App: "fabric-test", Batch: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	driveStream(t, g, 2, 30, 9, sr.CommitHook())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sr.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Zero epoch loss: the aggregator is sealed exactly at the
	// recorder's final epoch, and its export matches the recorder's own
	// final fold byte-for-byte.
	off, found, err := c.IngestOffset(context.Background(), "w")
	if err != nil || !found {
		t.Fatalf("offset = found=%v err=%v", found, err)
	}
	if !off.Sealed || off.NextEpoch != sr.Epoch()+1 {
		t.Fatalf("offset = %+v, want sealed at next=%d", off, sr.Epoch()+1)
	}
	got, err := c.Export(context.Background(), "w")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cpgtest.Bytes(t, sr.Analysis())) {
		t.Fatal("aggregator export != recorder's local fold after 503 storm")
	}
}

// TestStreamRecorderLatchesOnLostEpochs pins the v0 limitation: if the
// aggregator forgets acknowledged epochs (restart with no journal
// re-feed), the recorder reports a terminal error instead of silently
// producing a hole.
func TestStreamRecorderLatchesOnLostEpochs(t *testing.T) {
	// The first hub acknowledges some epochs, then the server "restarts"
	// with a fresh hub that knows nothing.
	hubA := NewIngestHub(IngestOptions{})
	hubB := NewIngestHub(IngestOptions{})
	srvA := NewServer(nil, ServerOptions{Ingest: hubA})
	srvB := NewServer(nil, ServerOptions{Ingest: hubB})
	var swapped atomic.Bool
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if swapped.Load() {
			srvB.ServeHTTP(w, r)
			return
		}
		srvA.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, MaxRetries: 2, RetryBase: time.Millisecond}
	g := core.NewGraph(1)
	sr, err := NewStreamRecorder(g, c, StreamOptions{Source: "w", RunID: "run-lost", MaxResyncs: 2})
	if err != nil {
		t.Fatal(err)
	}
	hook := sr.CommitHook()
	rec, err := core.NewRecorder(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	seal := func(page uint64) {
		t.Helper()
		rec.OnWrite(page)
		sc, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0)
		if err != nil {
			t.Fatal(err)
		}
		hook(sc.ID)
	}
	for i := 0; i < 6; i++ {
		seal(uint64(i))
	}
	// Let the sender ack a prefix against hub A, then swap the state
	// away.
	deadline := time.Now().Add(5 * time.Second)
	for sr.Pending() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sr.Pending() > 0 {
		t.Fatal("sender never drained against hub A")
	}
	swapped.Store(true)
	seal(7)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	closeErr := sr.Close(ctx)
	if closeErr == nil {
		t.Fatal("close succeeded although the aggregator lost acknowledged epochs")
	}
	if !strings.Contains(closeErr.Error(), "re-feed from the journal") {
		t.Fatalf("close err = %v, want the lost-epochs diagnosis", closeErr)
	}
}

// TestExportServesCPGForEverySourceKind is GET /export's contract over
// the four source kinds — a static engine, a live feed a follower
// publishes to, an ingested stream and a lazily decoded Store file:
// 200 with a loadable .cpg that is the source's pinned analysis encoded
// without run metadata, its header at the source's epoch. An analysis
// the encoder refuses is a 500 naming the error, never a partial file.
func TestExportServesCPGForEverySourceKind(t *testing.T) {
	run := recordFabric(t, 2, 24, 17)
	f := newLiveFixture(t)
	feed := NewFeed(f.g.Threads(), EngineOptions{})
	drv := epoch.NewDriver(f.g, epoch.Options{}, epoch.NewFollower(f.g, nil, feed.Observer()))
	hook := drv.CommitHook()
	for page := range uint64(3) {
		f.seal(t, page)
		hook(core.SubID{})
	}
	t.Cleanup(func() { drv.Close() })
	if _, err := feed.WaitEpoch(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	dir, _ := writeStoreDir(t, 1)
	store, err := OpenDir(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })

	served := map[string]Source{
		"static": StaticSource(NewEngine(cpgbench.BuildRandomGraph(2, 40, 24, 4, 5).Analyze(), EngineOptions{})),
		"live":   feed,
	}
	maps.Copy(served, store.Sources())
	hub := NewIngestHub(IngestOptions{})
	ts := httptest.NewServer(NewServerSources(served, ServerOptions{Ingest: hub}))
	t.Cleanup(ts.Close)
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	if _, err := post(t, c, "ingested", run.hello, run.deltas[:5], nil); err != nil {
		t.Fatal(err)
	}
	sources := maps.Clone(served)
	sources["ingested"], _ = hub.Source("ingested")
	if len(sources) != 4 {
		t.Fatalf("%d sources, want one of each kind", len(sources))
	}
	for id, src := range sources {
		got, err := c.Export(ctx, id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		_, hdr := cpgtest.Decode(t, got)
		if hdr.Epoch != src.Epoch() {
			t.Errorf("%s: .cpg header at epoch %d, source at %d", id, hdr.Epoch, src.Epoch())
		}
		if !bytes.Equal(got, cpgtest.Bytes(t, src.Engine().Analysis())) {
			t.Errorf("%s: export is not the source's pinned analysis", id)
		}
	}

	// Encode refuses a sync edge whose object is outside the analysis's
	// symbol table.
	g := core.NewGraph(1)
	rec, err := core.NewRecorder(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
			t.Fatal(err)
		}
	}
	ghost := []core.Edge{{From: core.SubID{Alpha: 0}, To: core.SubID{Alpha: 1}, Kind: core.EdgeSync, Object: "ghost"}}
	bad, err := core.NewAnalysisFromSections(g, []int{2}, 1, ghost, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts = httptest.NewServer(NewServer(map[string]*Engine{"bad": NewEngine(bad, EngineOptions{})}, ServerOptions{}))
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/v1/cpgs/bad/export")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body apiError
	if err := json.NewDecoder(resp.Body).Decode(&body); resp.StatusCode != http.StatusInternalServerError ||
		err != nil || !strings.Contains(body.Error, `sync-edge object "ghost"`) {
		t.Fatalf("export of an unencodable analysis: status %d, body %+v (%v), want 500 naming the ghost object",
			resp.StatusCode, body, err)
	}
}
