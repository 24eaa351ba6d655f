package inspector_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	inspector "github.com/repro/inspector"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/cpgfile/cpgtest"
	"github.com/repro/inspector/internal/journal"
	"github.com/repro/inspector/internal/wire"
	"github.com/repro/inspector/provenance"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	rt, err := inspector.New(inspector.Options{AppName: "api-test"})
	if err != nil {
		t.Fatal(err)
	}
	input, err := rt.MapInput("data.txt", []byte("hello provenance"))
	if err != nil {
		t.Fatal(err)
	}
	m := rt.NewMutex("m")

	rep, err := rt.Run(func(main *inspector.Thread) {
		out := main.Malloc(8)
		child := main.Spawn(func(w *inspector.Thread) {
			m.Lock(w)
			v := uint64(w.Load8(input))
			w.Store64(out, v*2)
			m.Unlock(w)
		})
		main.Join(child)
		m.Lock(main)
		if got := main.Load64(out); got != uint64('h')*2 {
			t.Errorf("out = %d", got)
		}
		m.Unlock(main)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults() == 0 || rep.TraceBytes == 0 || rep.SubComputations == 0 {
		t.Errorf("report looks empty: %+v", rep)
	}

	cpg := rt.CPG()
	analysis := cpg.Analyze()
	if err := analysis.Verify(); err != nil {
		t.Fatal(err)
	}
	// The child read the input page: provenance from input must exist.
	inputPage := uint64(input) / 4096
	var sawInputRead bool
	for _, sc := range cpg.Subs() {
		if sc.ID.Thread == 1 && sc.ReadSet.Contains(inputPage) {
			sawInputRead = true
		}
	}
	if !sawInputRead {
		t.Error("input page missing from child's read set")
	}
	// And a cross-thread data edge child -> main.
	var sawFlow bool
	for _, e := range analysis.Edges() {
		if e.Kind == inspector.EdgeData && e.From.Thread == 1 && e.To.Thread == 0 {
			sawFlow = true
		}
	}
	if !sawFlow {
		t.Error("no data edge from child to main")
	}

	if _, err := rt.DecodeTraces(); err != nil {
		t.Errorf("DecodeTraces: %v", err)
	}

	var dot bytes.Buffer
	if err := rt.WriteDOT(&dot); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "digraph CPG") {
		t.Error("DOT output malformed")
	}
	var file bytes.Buffer
	if err := rt.WriteCPG(&file); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(file.Bytes(), []byte(cpgfile.Magic)) {
		t.Error("WriteCPG did not write a .cpg file")
	}
}

func TestPublicAPINativeMode(t *testing.T) {
	rt, err := inspector.New(inspector.Options{AppName: "native-test", Native: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(func(main *inspector.Thread) {
		a := main.Malloc(8)
		main.Store64(a, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TraceBytes != 0 || rep.SubComputations != 0 {
		t.Errorf("native mode recorded provenance: %+v", rep)
	}
	if s, ok := rt.TakeSnapshot(); ok || s != nil {
		t.Error("native mode produced a snapshot")
	}
	if rt.Snapshots() != nil {
		t.Error("native mode has snapshot ring")
	}
}

func TestPublicAPISnapshotMode(t *testing.T) {
	rt, err := inspector.New(inspector.Options{
		AppName:            "snap-test",
		SnapshotMode:       true,
		SnapshotEverySyncs: 2,
		SnapshotSlots:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := rt.NewMutex("m")
	if _, err := rt.Run(func(main *inspector.Thread) {
		addr := main.Malloc(8)
		for i := 0; i < 20; i++ {
			m.Lock(main)
			main.Store64(addr, uint64(i))
			m.Unlock(main)
		}
	}); err != nil {
		t.Fatal(err)
	}
	snaps := rt.Snapshots()
	if len(snaps) == 0 {
		t.Fatal("no snapshots captured")
	}
	if len(snaps) > 3 {
		t.Errorf("ring exceeded slots: %d", len(snaps))
	}
	for i, s := range snaps {
		if err := s.Cut.Validate(rt.CPG()); err != nil {
			t.Errorf("snapshot %d: %v", i, err)
		}
	}
	// Manual snapshot on top: with snapshot mode on, ok is true and the
	// snapshot is never nil.
	if s, ok := rt.TakeSnapshot(); !ok || s == nil {
		t.Errorf("manual snapshot = %v, %v", s, ok)
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := []inspector.Options{
		{MaxThreads: -1},
		{PageSize: -4096},
		{PageSize: 32},   // below the minimum
		{PageSize: 100},  // not a power of two
		{PageSize: 4095}, // off by one
		{SnapshotSlots: -2},
	}
	for _, opts := range bad {
		rt, err := inspector.New(opts)
		if err == nil || rt != nil {
			t.Errorf("New(%+v) accepted nonsense options", opts)
			continue
		}
		if !errors.Is(err, inspector.ErrBadOptions) {
			t.Errorf("New(%+v) error %v does not wrap ErrBadOptions", opts, err)
		}
	}
	// Zero values and valid explicit settings still pass.
	good := []inspector.Options{
		{},
		{MaxThreads: 2, PageSize: 1024, SnapshotSlots: 0},
		{PageSize: 64},
		{SnapshotMode: true, SnapshotSlots: 2},
	}
	for _, opts := range good {
		if _, err := inspector.New(opts); err != nil {
			t.Errorf("New(%+v): %v", opts, err)
		}
	}
}

func TestRuntimeQuery(t *testing.T) {
	rt, err := inspector.New(inspector.Options{AppName: "query-test"})
	if err != nil {
		t.Fatal(err)
	}
	m := rt.NewMutex("m")
	if _, err := rt.Run(func(main *inspector.Thread) {
		addr := main.Malloc(8)
		main.Store64(addr, 1)
		child := main.Spawn(func(w *inspector.Thread) {
			m.Lock(w)
			w.Store64(addr, w.Load64(addr)+1)
			m.Unlock(w)
		})
		main.Join(child)
		m.Lock(main)
		_ = main.Load64(addr)
		m.Unlock(main)
	}); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	res, err := rt.Query(ctx, inspector.Query{Kind: inspector.QueryStats})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || res.Stats.SubComputations == 0 {
		t.Errorf("stats = %+v", res.Stats)
	}

	res, err = rt.Query(ctx, inspector.Query{Kind: inspector.QueryVerify})
	if err != nil || res.Valid == nil || !*res.Valid {
		t.Errorf("verify = %+v, %v", res, err)
	}

	// The same engine answers concurrent queries; results agree with the
	// direct core API.
	want, err := rt.CPG().Analyze().TaintedByCtx(ctx, inspector.SubID{Thread: 1, Alpha: 0})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := rt.Query(ctx, inspector.Query{Kind: inspector.QueryTaint, Target: "T1.0"})
			if err != nil || len(res.IDs) != len(want) {
				t.Errorf("concurrent taint = %d ids, %v (want %d)", len(res.IDs), err, len(want))
			}
		}()
	}
	wg.Wait()

	// Bad queries surface the provenance package's validation.
	if _, err := rt.Query(ctx, inspector.Query{Kind: "nope"}); err == nil {
		t.Error("unknown query kind accepted")
	}
}

func TestPublicAPIJournal(t *testing.T) {
	dir := t.TempDir()
	rt, err := inspector.New(inspector.Options{
		AppName:      "journal-test",
		MaxThreads:   4,
		Journal:      dir,
		JournalFsync: "always",
	})
	if err != nil {
		t.Fatal(err)
	}
	m := rt.NewMutex("m")
	if _, err := rt.Run(func(main *inspector.Thread) {
		out := main.Malloc(8)
		child := main.Spawn(func(w *inspector.Thread) {
			m.Lock(w)
			w.Store64(out, 7)
			m.Unlock(w)
		})
		main.Join(child)
		m.Lock(main)
		_ = main.Load64(out)
		m.Unlock(main)
	}); err != nil {
		t.Fatal(err)
	}

	rep, err := journal.Recover(dir, journal.RecoverOptions{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !rep.Sealed || rep.Degraded() {
		t.Fatalf("clean run's journal: sealed=%v degraded=%v", rep.Sealed, rep.Degraded())
	}
	if rep.Header.App != "journal-test" {
		t.Errorf("journal header app = %q", rep.Header.App)
	}
	var want, got bytes.Buffer
	if err := rt.CPG().EncodeJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := rep.Graph.EncodeJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("recovered graph diverges from the runtime's CPG")
	}
	// The run's .cpg is its final epoch: the recovery's bytes plus the
	// run metadata, its header at Epoch().
	var own bytes.Buffer
	if err := rt.WriteCPG(&own); err != nil {
		t.Fatal(err)
	}
	a, hdr := cpgtest.Decode(t, own.Bytes())
	if hdr.Epoch != rt.Epoch() || rep.Epoch != rt.Epoch() {
		t.Fatalf(".cpg header epoch %d, runtime epoch %d, journal epoch %d", hdr.Epoch, rt.Epoch(), rep.Epoch)
	}
	if !bytes.Equal(cpgtest.Bytes(t, a), cpgtest.Bytes(t, rep.Analysis)) {
		t.Fatal("the run's .cpg is not the journal's recovery at the final epoch")
	}
}

// TestFailingNewLeavesNothingBehind: an assembly that fails must not
// poison its journal directory — a journal file left behind makes
// journal.Create turn the corrected retry away as "mixing runs".
func TestFailingNewLeavesNothingBehind(t *testing.T) {
	dir := t.TempDir()
	opts := inspector.Options{
		Journal:  dir,
		Stream:   "http://127.0.0.1:1", // nothing listens: the retry's flush is cancelled below
		RunID:    "r",
		StreamID: "bad name!",
	}
	rt, err := inspector.New(opts)
	if rt != nil || err == nil {
		t.Fatalf("New with a bad stream source name = %v, %v", rt, err)
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("failed New left %v in the journal directory (err %v)", left, err)
	}
	if !errors.Is(err, inspector.ErrBadOptions) {
		t.Errorf("New with a bad stream source name: %v does not wrap ErrBadOptions", err)
	}
	opts.StreamID = "good-name"
	rt, err = inspector.New(opts)
	if err != nil {
		t.Fatalf("corrected retry on the same directory: %v", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rt.WaitStream(ctx) // stops the sender
}

// TestStreamTooWideFailsBeforeRecording pins New refusing a stream or
// journal whose hello could not carry the graph's width, as bad options:
// the run must not record a whole workload and fail at its first
// upload, and a refused journal leaves no file behind.
func TestStreamTooWideFailsBeforeRecording(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	for _, opts := range []inspector.Options{
		{Stream: "http://127.0.0.1:1", RunID: "r"}, // never contacted: New fails first
		{Journal: dir},
	} {
		opts.MaxThreads = wire.MaxThreads + 1
		if rt, err := inspector.New(opts); rt != nil || !errors.Is(err, inspector.ErrBadOptions) {
			t.Fatalf("New(%+v) = %v, %v; want an error wrapping ErrBadOptions", opts, rt, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "journal.isj")); !os.IsNotExist(err) {
		t.Errorf("a refused journal left journal.isj behind (stat: %v)", err)
	}
}

func TestJournalOptionsValidation(t *testing.T) {
	bad := []inspector.Options{
		{Journal: "x", Native: true},
		{JournalFsync: "sometimes"},
		{JournalFsync: "interval:0"},
		{JournalEverySeals: -1},
	}
	for _, opts := range bad {
		if _, err := inspector.New(opts); !errors.Is(err, inspector.ErrBadOptions) {
			t.Errorf("New(%+v) error %v does not wrap ErrBadOptions", opts, err)
		}
	}
}

// TestJournalAndStreamCarryOneFrame: with a journal and a stream, every
// epoch is framed once by the driver, so the delta frames the
// aggregator is POSTed are byte for byte the journal's records.
func TestJournalAndStreamCarryOneFrame(t *testing.T) {
	hub := provenance.NewServer(nil, provenance.ServerOptions{Ingest: provenance.NewIngestHub(provenance.IngestOptions{})})
	var mu sync.Mutex
	var bodies [][]byte // every POST body, in order
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			bodies = append(bodies, body)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		hub.ServeHTTP(w, r)
	}))
	defer ts.Close()

	dir := t.TempDir()
	rt, err := inspector.New(inspector.Options{
		AppName:      "one-frame",
		MaxThreads:   4,
		Journal:      dir,
		JournalFsync: "none",
		Stream:       ts.URL,
		RunID:        "one-frame-run",
	})
	if err != nil {
		t.Fatal(err)
	}
	m := rt.NewMutex("m")
	if _, err := rt.Run(func(main *inspector.Thread) {
		out := main.Malloc(8)
		var kids []*inspector.Thread
		for range 3 {
			kids = append(kids, main.Spawn(func(w *inspector.Thread) {
				for i := range 20 {
					m.Lock(w)
					w.Store64(out, w.Load64(out)+uint64(i))
					m.Unlock(w)
				}
			}))
		}
		for _, k := range kids {
			main.Join(k)
		}
	}); err != nil {
		t.Fatal(err)
	}

	file, err := os.ReadFile(journal.Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	journaled, n := deltaFrames(t, file[len(wire.Preamble()):])
	if n < 60 || uint64(n) != rt.Epoch() {
		t.Fatalf("journal holds %d delta frames over %d epochs, want one per epoch (at least 60)", n, rt.Epoch())
	}
	var posted []byte
	mu.Lock()
	defer mu.Unlock()
	for _, body := range bodies {
		frames, _ := deltaFrames(t, body)
		posted = append(posted, frames...)
	}
	if !bytes.Equal(posted, journaled) {
		t.Fatalf("the aggregator was POSTed %d bytes of delta frames, the journal holds %d", len(posted), len(journaled))
	}
}

// deltaFrames returns the delta frames of a frame stream, concatenated,
// and their count.
func deltaFrames(t *testing.T, stream []byte) (frames []byte, n int) {
	t.Helper()
	for len(stream) > 0 {
		kind, _, size, err := wire.ParseFrame(stream, 0)
		if err != nil {
			t.Fatalf("frame stream: %v", err)
		}
		if kind == wire.KindDelta {
			frames, n = append(frames, stream[:size]...), n+1
		}
		stream = stream[size:]
	}
	return frames, n
}
