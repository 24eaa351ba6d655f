package provenance

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/core/cpgbench"
	"github.com/repro/inspector/internal/wire"
)

// newTestServer serves the Figure 1 graph under id "fig1" and a larger
// random graph under id "dense".
func newTestServer(t *testing.T, opts ServerOptions) (*Server, *httptest.Server) {
	t.Helper()
	engines := map[string]*Engine{
		"fig1":  NewEngine(figure1(t), EngineOptions{}),
		"dense": NewEngine(cpgbench.BuildRandomGraph(4, 1000, 24, 2, 9).Analyze(), EngineOptions{}),
	}
	s := NewServer(engines, opts)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func TestServerEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, ServerOptions{})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	cpgs, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cpgs) != 2 || cpgs[0].ID != "dense" || cpgs[1].ID != "fig1" {
		t.Fatalf("list = %+v", cpgs)
	}
	if cpgs[1].SubComputations != 4 || cpgs[1].Threads != 2 {
		t.Errorf("fig1 info = %+v", cpgs[1])
	}

	// Every query kind round-trips the wire and matches local execution.
	local := NewEngine(figure1(t), EngineOptions{})
	page := uint64(101)
	queries := []Query{
		{Kind: KindStats},
		{Kind: KindVerify},
		{Kind: KindEdges},
		{Kind: KindEdges, EdgeKinds: []string{"data"}},
		{Kind: KindSlice, Target: "T0.1"},
		{Kind: KindTaint, Target: "T0.0"},
		{Kind: KindLineage, Target: "T0.1", Page: &page},
		{Kind: KindPath, From: "T0.0", To: "T0.1"},
	}
	for _, q := range queries {
		want, err := local.Execute(ctx, q)
		if err != nil {
			t.Fatalf("local %+v: %v", q, err)
		}
		got, err := c.Query(ctx, "fig1", q)
		if err != nil {
			t.Fatalf("remote %+v: %v", q, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("remote result diverges for %+v:\n got %+v\nwant %+v", q, got, want)
		}
	}

	// Stats endpoint matches the stats query.
	st, err := c.Stats(ctx, "fig1")
	if err != nil {
		t.Fatal(err)
	}
	wantSt, _ := local.Execute(ctx, Query{Kind: KindStats})
	if !reflect.DeepEqual(st, wantSt) {
		t.Errorf("GET stats = %+v, want %+v", st, wantSt)
	}
}

func TestServerErrors(t *testing.T) {
	_, ts := newTestServer(t, ServerOptions{})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	// Unknown CPG id: 404 surfaced with the server's message.
	if _, err := c.Query(ctx, "nope", Query{Kind: KindStats}); err == nil ||
		!strings.Contains(err.Error(), "unknown cpg") {
		t.Errorf("unknown cpg err = %v", err)
	}
	if _, err := c.Stats(ctx, "nope"); err == nil || !strings.Contains(err.Error(), "unknown cpg") {
		t.Errorf("unknown cpg stats err = %v", err)
	}

	// Malformed query: 400.
	if _, err := c.Query(ctx, "fig1", Query{Kind: "wat"}); err == nil ||
		!strings.Contains(err.Error(), "bad query") {
		t.Errorf("bad kind err = %v", err)
	}

	// Malformed body: 400.
	resp, err := http.Post(ts.URL+"/v1/cpgs/fig1/query", "application/json",
		strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated body status = %d", resp.StatusCode)
	}
}

func TestServerTimeoutCancelsTraversal(t *testing.T) {
	// A deadline far below the dense graph's slice cost must cancel the
	// in-flight closure traversal and surface 504 — the observable proof
	// that a request deadline reaches internal/core, not just the
	// response writer.
	_, ts := newTestServer(t, ServerOptions{Timeout: time.Nanosecond})
	c := &Client{BaseURL: ts.URL}

	var target core.SubID
	dense := cpgbench.BuildRandomGraph(4, 1000, 24, 2, 9)
	for _, sc := range dense.Subs() {
		if sc.ID.Thread == 0 {
			target = sc.ID
		}
	}
	_, err := c.Query(context.Background(), "dense", Query{Kind: KindSlice, Target: target.String()})
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Errorf("timed-out query err = %v", err)
	}
	var probe struct {
		Error string `json:"error"`
	}
	resp, herr := http.Get(ts.URL + "/v1/cpgs/dense/stats")
	if herr == nil {
		defer resp.Body.Close()
		_ = json.NewDecoder(resp.Body).Decode(&probe)
		if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusOK {
			t.Errorf("stats under deadline status = %d (%s)", resp.StatusCode, probe.Error)
		}
	}
}

// TestServerConcurrentClients holds the acceptance bar: at least 32
// in-flight queries against one shared immutable Analysis, race-free
// (CI runs this package under -race) and all agreeing with local
// execution.
func TestServerConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, ServerOptions{})
	ctx := context.Background()

	dense := cpgbench.BuildRandomGraph(4, 1000, 24, 2, 9)
	var target core.SubID
	for _, sc := range dense.Subs() {
		if sc.ID.Thread == 0 {
			target = sc.ID
		}
	}
	local := NewEngine(dense.Analyze(), EngineOptions{})
	page := uint64(3)
	queries := []Query{
		{Kind: KindSlice, Target: target.String()},
		{Kind: KindTaint, Target: "T1.0"},
		{Kind: KindLineage, Target: target.String(), Page: &page},
		{Kind: KindPath, From: "T1.0", To: target.String()},
		{Kind: KindEdges, EdgeKinds: []string{"data"}, Limit: 50},
		{Kind: KindStats},
		{Kind: KindVerify},
	}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		w, err := local.Execute(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}

	const clients = 48
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &Client{BaseURL: ts.URL}
			for j := 0; j < 4; j++ {
				qi := (i + j) % len(queries)
				got, err := c.Query(ctx, "dense", queries[qi])
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[qi]) {
					errs <- &mismatchError{}
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent remote result diverged from local" }

// TestServerBodiesAreCompact reads a body from every endpoint but the
// export (a .cpg, not JSON) and holds it to the re-encoding of what it
// decodes to: compact, HTML-escaped, one trailing newline — what
// json.NewEncoder(w).Encode writes.
func TestServerBodiesAreCompact(t *testing.T) {
	dir, _ := writeStoreDir(t, 1)
	store, err := OpenDir(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	sources := map[string]Source{
		"fig1":   StaticSource(NewEngine(figure1(t), EngineOptions{})),
		"gapped": StaticSource(NewEngine(degradedGraph(t).Analyze(), EngineOptions{})),
		"dense":  StaticSource(NewEngine(cpgbench.BuildRandomGraph(4, 200, 24, 2, 9).Analyze(), EngineOptions{})),
	}
	maps.Copy(sources, store.Sources())
	ts := httptest.NewServer(NewServerSources(sources, ServerOptions{Store: store, Ingest: NewIngestHub(IngestOptions{})}))
	t.Cleanup(ts.Close)

	d := func() *core.EpochDelta {
		_, d := core.NewIncrementalAnalyzer(core.NewGraph(2)).FoldDelta()
		return d
	}()
	frames, err := EncodeFrames(wire.Hello{RunID: "r", App: "compact", Threads: 2}, []*core.EpochDelta{d}, nil)
	if err != nil {
		t.Fatal(err)
	}
	query := func(q Query) string {
		body, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	page := uint64(101)
	type call struct {
		method, path, body string
		status             int
		into               func() any // a new value of the body's type
	}
	result := func() any { return new(Result) }
	apiErr := func() any { return new(apiError) }
	calls := []call{
		{"GET", "/healthz", "", 200, func() any {
			return new(struct {
				OK bool `json:"ok"`
			})
		}},
		{"GET", "/readyz", "", 200, func() any { return new(ReadyStatus) }},
		{"GET", "/v1/cpgs", "", 200, func() any { return new(CPGList) }},
		{"GET", "/v1/store", "", 200, func() any { return new(StoreStats) }},
		{"GET", "/v1/cpgs/fig1/epochs", "", 200, func() any { return new(EpochStatus) }},
		{"POST", "/v1/ingest/live", string(frames), 200, func() any { return new(IngestStatus) }},
		{"GET", "/v1/ingest/live", "", 200, func() any { return new(IngestStatus) }},
		{"GET", "/v1/cpgs/fig1/stats", "", 200, result},
		{"GET", "/v1/cpgs/gapped/stats", "", 200, result},
		{"POST", "/v1/cpgs/fig1/query", query(Query{Kind: KindVerify}), 200, result},
		{"POST", "/v1/cpgs/fig1/query", query(Query{Kind: KindEdges}), 200, result},
		{"POST", "/v1/cpgs/fig1/query", query(Query{Kind: KindSlice, Target: "T0.1"}), 200, result},
		{"POST", "/v1/cpgs/fig1/query", query(Query{Kind: KindTaint, Target: "T0.0"}), 200, result},
		{"POST", "/v1/cpgs/fig1/query", query(Query{Kind: KindLineage, Target: "T0.1", Page: &page}), 200, result},
		{"POST", "/v1/cpgs/fig1/query", query(Query{Kind: KindPath, From: "T0.0", To: "T0.1"}), 200, result},
		{"POST", "/v1/cpgs/dense/query", query(Query{Kind: KindEdges, Limit: 5}), 200, result},
		{"POST", "/v1/cpgs/gapped/query", query(Query{Kind: KindSlice, Target: "T0.0"}), 200, result},
		{"GET", "/v1/cpgs/nope/stats", "", 404, apiErr},
		{"POST", "/v1/cpgs/fig1/query", "{", 400, apiErr},
		{"POST", "/v1/cpgs/fig1/query", query(Query{Kind: "<bogus>"}), 400, apiErr},
		{"GET", "/v1/ingest/nope", "", 404, apiErr},
	}
	for _, c := range calls {
		req, err := http.NewRequestWithContext(context.Background(), c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s %s %.40q", c.method, c.path, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d: %s", name, resp.StatusCode, c.status, body)
			continue
		}
		v := c.into()
		if err := json.Unmarshal(body, v); err != nil {
			t.Errorf("%s: %v: %s", name, err, body)
			continue
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Errorf("%s: body is not its compact encoding\n got %q\nwant %q", name, body, want.Bytes())
		}
	}
}
