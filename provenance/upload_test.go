package provenance

// Tests of the uploader's group commit: a POST carries every pending
// delta up to the byte budget, and the seal rides the last body. The
// aggregator folds and publishes once per body, so the count of bodies
// is the count of folds and watcher wake-ups a stream costs.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/wire"
)

// postedBody is what one ingest POST carried.
type postedBody struct {
	// lastDelta is the offset of the body's last delta frame (-1: none),
	// i.e. the body's length before it took that delta.
	lastDelta int
	epochs    []uint64
	sealed    bool
}

// gatedAggregator is an in-process aggregator whose first ingest POST
// waits for open: whatever the recorder emits meanwhile queues behind
// it. It logs every ingest POST body it serves.
type gatedAggregator struct {
	c     *Client
	first chan struct{} // closed when the first POST has arrived
	gate  chan struct{}
	open  func() // releases the first POST (idempotent)
	ts    *httptest.Server

	mu     sync.Mutex
	bodies []postedBody
}

func newGatedAggregator(tb testing.TB) *gatedAggregator {
	tb.Helper()
	a := &gatedAggregator{first: make(chan struct{}), gate: make(chan struct{})}
	a.open = sync.OnceFunc(func() { close(a.gate) })
	arrived := sync.OnceFunc(func() { close(a.first) })
	srv := NewServer(nil, ServerOptions{Ingest: NewIngestHub(IngestOptions{})})
	a.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
				return
			}
			if err := a.log(body); err != nil {
				tb.Error(err)
			}
			arrived()
			<-a.gate
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		srv.ServeHTTP(w, r)
	}))
	tb.Cleanup(a.close)
	a.c = &Client{BaseURL: a.ts.URL}
	return a
}

// close releases the gate and shuts the server down (idempotent).
func (a *gatedAggregator) close() {
	a.open()
	a.ts.Close()
}

// log records one POST body's shape: the offset of its last delta
// frame, the epochs it carried, and whether it sealed.
func (a *gatedAggregator) log(body []byte) error {
	pb := postedBody{lastDelta: -1}
	for off := 0; off < len(body); {
		kind, payload, n, err := wire.ParseFrame(body[off:], 0)
		if err != nil {
			return fmt.Errorf("posted body, frame at %d: %w", off, err)
		}
		switch kind {
		case wire.KindDelta:
			e, _ := binary.Uvarint(payload) // a delta's binary form opens with its epoch
			pb.epochs = append(pb.epochs, e)
			pb.lastDelta = off
		case wire.KindSeal:
			pb.sealed = true
		}
		off += int(n)
	}
	a.mu.Lock()
	a.bodies = append(a.bodies, pb)
	a.mu.Unlock()
	return nil
}

// posted returns the bodies logged so far.
func (a *gatedAggregator) posted() []postedBody {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]postedBody(nil), a.bodies...)
}

// awaitFirst blocks until the first POST is parked at the gate.
func (a *gatedAggregator) awaitFirst(tb testing.TB) {
	tb.Helper()
	select {
	case <-a.first:
	case <-time.After(10 * time.Second):
		tb.Fatal("the uploader never posted")
	}
}

// exportOf renders an analysis the way the aggregator's export does.
func exportOf(tb testing.TB, a *core.Analysis) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := a.ExportJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// sealOne records one sub-computation on rec touching page and seals it.
func sealOne(tb testing.TB, rec *core.Recorder, page uint64) core.SubID {
	tb.Helper()
	rec.OnRead(page + 1)
	rec.OnWrite(page)
	sc, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return sc.ID
}

// gatedStream starts a one-thread StreamRecorder against a gated
// aggregator and seals its first epoch, so the sender is parked in its
// first POST when gatedStream returns.
func gatedStream(t *testing.T, source string) (*gatedAggregator, *StreamRecorder, *core.Recorder) {
	t.Helper()
	agg := newGatedAggregator(t)
	g := core.NewGraph(1)
	sr, err := NewStreamRecorder(g, agg.c, StreamOptions{Source: source, RunID: "run-" + source, Every: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := core.NewRecorder(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sr.CommitHook()(sealOne(t, rec, 0))
	agg.awaitFirst(t)
	return agg, sr, rec
}

// TestUploaderShipsBacklogInFewPosts pins the group commit: 512
// per-seal epochs queued behind a parked first POST ship in at most
// three POSTs once it returns (the parked one, the backlog, the seal
// with whatever came after), where a 64-delta batch needed ten. The
// source ends sealed at epoch 512 with the recorder's own fold.
func TestUploaderShipsBacklogInFewPosts(t *testing.T) {
	const epochs = 512
	agg, sr, rec := gatedStream(t, "backlog")
	hook := sr.CommitHook()
	for i := 2; i < epochs; i++ {
		hook(sealOne(t, rec, uint64(i%40)))
	}
	sealOne(t, rec, 7) // epoch 512 is Close's final cut
	agg.open()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sr.Close(ctx); err != nil {
		t.Fatal(err)
	}

	if n := len(agg.posted()); n > 3 {
		t.Fatalf("the stream took %d POSTs, want <= 3", n)
	}
	st, found, err := agg.c.IngestOffset(ctx, "backlog")
	if err != nil || !found || !st.Sealed || st.NextEpoch != epochs+1 || sr.Epoch() != epochs {
		t.Fatalf("offset = %+v found=%v err=%v (recorder at epoch %d), want sealed at epoch %d", st, found, err, sr.Epoch(), epochs)
	}
	got, err := agg.c.Export(ctx, "backlog")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, exportOf(t, sr.Analysis())) {
		t.Fatal("aggregator export != the recorder's fold")
	}
}

// TestUploaderSealRidesLastBody pins the drain at Finish: when Finish
// arrives with deltas still queued, the seal rides the body that ships
// them — no POST carries the seal alone.
func TestUploaderSealRidesLastBody(t *testing.T) {
	agg, sr, rec := gatedStream(t, "drain")
	hook := sr.CommitHook()
	for i := 1; i < 10; i++ {
		hook(sealOne(t, rec, uint64(i)))
	}
	if err := sr.Driver.Close(); err != nil { // Finish, while the first POST is parked
		t.Fatal(err)
	}
	agg.open()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sr.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	bodies := agg.posted()
	for i, b := range bodies {
		if b.sealed && len(b.epochs) == 0 {
			t.Fatalf("POST %d of %d carried only the seal", i+1, len(bodies))
		}
	}
	if last := bodies[len(bodies)-1]; len(bodies) != 2 || !last.sealed || last.epochs[len(last.epochs)-1] != sr.Epoch() {
		t.Fatalf("bodies = %+v, want 2: the parked one, then the queue through epoch %d with the seal", bodies, sr.Epoch())
	}
}

// bigDeltaPages is the page count of a bigDeltas sub-computation's read
// set. The pages are 2^42 apart, so each costs 7 bytes in the delta's
// page list: ~1 MiB per delta.
const bigDeltaPages = 150_000

// bigDeltas cuts n one-sub-computation epochs of ~1 MiB each on a
// one-thread graph. The sub-computations only read, so the fold derives
// no data edges and keeps no writer index for the pages.
func bigDeltas(tb testing.TB, n int) []*core.EpochDelta {
	tb.Helper()
	g := core.NewGraph(1)
	rec, err := core.NewRecorder(g, 0, 0)
	if err != nil {
		tb.Fatal(err)
	}
	inc := core.NewIncrementalAnalyzer(g)
	deltas := make([]*core.EpochDelta, n)
	for i := range deltas {
		for p := uint64(1); p <= bigDeltaPages; p++ {
			rec.OnRead(p << 42)
		}
		if _, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
			tb.Fatal(err)
		}
		deltas[i] = inc.Cut()
	}
	return deltas
}

// TestUploaderBodiesKeepByteBudget pins the byte budget: ~1 MiB deltas
// queued past it ship in several bodies, none of which took a delta once
// it held maxUploadBytes, and the aggregator gets every epoch, in order,
// sealed at the last.
func TestUploaderBodiesKeepByteBudget(t *testing.T) {
	deltas := bigDeltas(t, 18)
	agg := newGatedAggregator(t)
	u, err := NewUploader(agg.c, 1, StreamOptions{Source: "big", RunID: "run-big"})
	if err != nil {
		t.Fatal(err)
	}
	emit := func(d *core.EpochDelta) {
		if err := u.Emit(epoch.Epoch{Delta: d}); err != nil {
			t.Fatal(err)
		}
	}
	emit(deltas[0])
	agg.awaitFirst(t)
	for _, d := range deltas[1:] {
		emit(d)
	}
	final := deltas[len(deltas)-1].Epoch
	if err := u.Finish(final); err != nil {
		t.Fatal(err)
	}
	agg.open()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := u.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	bodies := agg.posted()
	var shipped []uint64
	for i, b := range bodies {
		if b.lastDelta >= maxUploadBytes {
			t.Fatalf("POST %d held %d bytes before its last delta, over the %d-byte budget", i+1, b.lastDelta, maxUploadBytes)
		}
		shipped = append(shipped, b.epochs...)
	}
	if len(bodies) < 3 {
		t.Fatalf("%d POSTs for %d ~1 MiB deltas: the budget never bound", len(bodies), len(deltas))
	}
	for i, e := range shipped {
		if e != uint64(i+1) {
			t.Fatalf("shipped epochs %v, want 1..%d in order, each once", shipped, final)
		}
	}
	if len(shipped) != len(deltas) {
		t.Fatalf("shipped %d epochs, want %d", len(shipped), len(deltas))
	}
	if st, found, err := agg.c.IngestOffset(ctx, "big"); err != nil || !found || !st.Sealed || st.NextEpoch != final+1 {
		t.Fatalf("offset = %+v found=%v err=%v, want sealed at epoch %d", st, found, err, final)
	}
}

// cutRun records a random two-thread run, one Cut per seal, and returns
// its hello, its deltas and the export of its fold.
func cutRun(t *testing.T, steps int, seed int64) (wire.Hello, []*core.EpochDelta, []byte) {
	t.Helper()
	g := core.NewGraph(2)
	inc := core.NewIncrementalAnalyzer(g)
	var deltas []*core.EpochDelta
	driveStream(t, g, 2, steps, seed, func(core.SubID) { deltas = append(deltas, inc.Cut()) })
	hello := wire.Hello{RunID: fmt.Sprintf("cut-%d", seed), App: "fabric-test", Threads: 2}
	return hello, deltas, exportOf(t, inc.FoldAs(deltas[len(deltas)-1].Epoch))
}

// TestUploadDeltasRefeedIsOnePost pins the journal re-feed's cost: a
// 10^4-epoch sequence whose first half the aggregator already holds
// ships, with the seal, in one POST that acknowledges the held half as
// duplicates and converges on the recorder's bytes.
func TestUploadDeltasRefeedIsOnePost(t *testing.T) {
	hello, deltas, want := cutRun(t, 9_998, 23) // + two final seals: 10^4 epochs
	if len(deltas) != 10_000 {
		t.Fatalf("recorded %d epochs, want 10000", len(deltas))
	}
	agg := newGatedAggregator(t)
	agg.open()
	ctx := context.Background()
	if _, err := UploadDeltas(ctx, agg.c, "w", hello, deltas[:5_000], 0, nil); err != nil {
		t.Fatal(err)
	}
	held := len(agg.posted())
	seal := &wire.Seal{FinalEpoch: deltas[len(deltas)-1].Epoch}
	st, err := UploadDeltas(ctx, agg.c, "w", hello, deltas, 0, seal)
	if err != nil {
		t.Fatal(err)
	}
	if posts := len(agg.posted()) - held; posts != 1 {
		t.Fatalf("re-feed took %d POSTs, want 1", posts)
	}
	if st.Duplicates != 5_000 || st.Accepted != 5_000 || !st.Sealed || st.NextEpoch != seal.FinalEpoch+1 {
		t.Fatalf("re-feed status = %+v, want 5000 accepted, 5000 duplicates, sealed at epoch %d", st, seal.FinalEpoch)
	}
	got, err := agg.c.Export(ctx, "w")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("aggregator export after the re-feed != the recorder's fold")
	}
}
