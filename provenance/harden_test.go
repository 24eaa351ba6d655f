package provenance

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/repro/inspector/internal/core"
)

// degradedGraph builds a tiny two-thread graph carrying one trace gap.
func degradedGraph(t *testing.T) *core.Graph {
	t.Helper()
	g := core.NewGraph(2)
	r0, err := core.NewRecorder(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r0.OnWrite(100)
	if _, err := r0.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
		t.Fatal(err)
	}
	g.AddGap(0, core.Gap{FromAlpha: 0, ToAlpha: 0, Kind: core.GapAuxLoss, Bytes: 64})
	return g
}

// TestDegradedOnTheWire checks the additive degraded annotations: every
// result from a gapped graph carries degraded=true, stats carry the gap
// summary, and the listing marks the graph — while a complete graph's
// documents stay free of all three.
func TestDegradedOnTheWire(t *testing.T) {
	engines := map[string]*Engine{
		"gapped": NewEngine(degradedGraph(t).Analyze(), EngineOptions{}),
		"whole":  NewEngine(figure1(t), EngineOptions{}),
	}
	ts := httptest.NewServer(NewServer(engines, ServerOptions{}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	cpgs, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]CPGInfo{}
	for _, info := range cpgs {
		byID[info.ID] = info
	}
	if !byID["gapped"].Degraded || byID["whole"].Degraded {
		t.Errorf("listing degraded flags wrong: %+v", byID)
	}

	st, err := c.Stats(ctx, "gapped")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Degraded {
		t.Error("stats result from gapped graph not marked degraded")
	}
	if st.Stats.GapThreads != 1 || st.Stats.GapIntervals != 1 || st.Stats.LostTraceBytes != 64 {
		t.Errorf("gap summary = %+v", st.Stats)
	}

	whole, err := c.Stats(ctx, "whole")
	if err != nil {
		t.Fatal(err)
	}
	if whole.Degraded || whole.Stats.GapIntervals != 0 {
		t.Errorf("complete graph carries gap annotations: %+v", whole)
	}
	// The raw document for a complete graph must not mention the new
	// fields at all — the omitempty contract lossless consumers pin.
	resp, err := http.Get(ts.URL + "/v1/cpgs/whole/stats")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{"degraded"} {
		if _, present := raw[key]; present {
			t.Errorf("lossless document leaks %q", key)
		}
	}
}

func TestHealthAndReady(t *testing.T) {
	liveSrc := NewLiveEngine(core.NewGraph(1), EngineOptions{})
	defer liveSrc.Close()
	srv := NewServerSources(map[string]Source{
		"fig1": StaticSource(NewEngine(figure1(t), EngineOptions{})),
		"live": liveSrc,
	}, ServerOptions{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	code, body := get("/readyz")
	if code != http.StatusOK {
		t.Fatalf("readyz = %d before SetReady(false)", code)
	}
	var rs ReadyStatus
	if err := json.Unmarshal(body, &rs); err != nil {
		t.Fatal(err)
	}
	if !rs.Ready || rs.Epochs["live"] == 0 {
		t.Errorf("ready status = %+v, want ready with live epoch", rs)
	}
	if _, static := rs.Epochs["fig1"]; static {
		t.Errorf("post-mortem graph reported an epoch: %+v", rs)
	}

	srv.SetReady(false)
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz after SetReady(false) = %d, want 503", code)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz must stay 200 while not ready")
	}
	srv.SetReady(true)
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("readyz did not flip back to 200")
	}
}

// panicSource explodes on queries, standing in for any handler bug.
type panicSource struct{ Source }

func (panicSource) Query(context.Context, Query) (*Result, error) {
	panic("injected handler panic")
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	srv := NewServerSources(map[string]Source{
		"boom": panicSource{StaticSource(NewEngine(figure1(t), EngineOptions{}))},
		"fig1": StaticSource(NewEngine(figure1(t), EngineOptions{})),
	}, ServerOptions{Logf: func(string, ...any) {}})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The panicking id answers 500 instead of killing the connection.
	resp, err := http.Get(ts.URL + "/v1/cpgs/boom/stats")
	if err != nil {
		t.Fatalf("panic escaped the middleware: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panicking handler answered %d, want 500", resp.StatusCode)
	}
	// The daemon survives: healthy ids and probes still serve.
	c := &Client{BaseURL: ts.URL}
	if _, err := c.Stats(context.Background(), "fig1"); err != nil {
		t.Errorf("healthy id broken after a panic elsewhere: %v", err)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("healthz broken after a panic: %v", err)
	} else {
		resp.Body.Close()
	}
}

// gateSource blocks queries until released, pinning a request
// in-flight for as long as a test needs.
type gateSource struct {
	Source
	gate chan struct{}
}

func (g gateSource) Query(ctx context.Context, q Query) (*Result, error) {
	<-g.gate
	return g.Source.Query(ctx, q)
}

func TestMaxInflightSheds(t *testing.T) {
	gate := make(chan struct{})
	srv := NewServerSources(map[string]Source{
		"slow": gateSource{Source: StaticSource(NewEngine(figure1(t), EngineOptions{})), gate: gate},
	}, ServerOptions{MaxInflight: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Occupy the only slot.
	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/cpgs/slow/stats")
		if err != nil {
			firstDone <- -1
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	// Wait until the first request holds the slot (it blocks on the gate
	// inside the handler, after admission). The poll must not resolve the
	// gated source itself — an unknown id exercises admission (the /v1
	// prefix) and answers 404 without touching a source, so it can never
	// block; once the slot is held it answers 503.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/cpgs/absent/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if ra := resp.Header.Get("Retry-After"); ra != "1" {
				t.Errorf("Retry-After = %q, want \"1\"", ra)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second /v1 request was never shed")
		}
		time.Sleep(time.Millisecond)
	}
	// Probes bypass the limit. (/readyz shares the same bypass but
	// resolves every source for epoch reporting, which this test's
	// deliberately blocking source would wedge — /healthz covers the
	// admission path.)
	resp0, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp0.Body.Close()
	if resp0.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d while at capacity, want 200", resp0.StatusCode)
	}
	close(gate)
	if code := <-firstDone; code != http.StatusOK {
		t.Errorf("in-flight request finished with %d", code)
	}
	// The slot is free again.
	resp, err := http.Get(ts.URL + "/v1/cpgs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("request after release = %d", resp.StatusCode)
	}
}

func TestClientRetriesBackoff(t *testing.T) {
	real := NewServer(map[string]*Engine{"fig1": NewEngine(figure1(t), EngineOptions{})}, ServerOptions{})
	var mu sync.Mutex
	failures := 2
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		shed := failures > 0
		if shed {
			failures--
		}
		mu.Unlock()
		if shed {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		real.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, MaxRetries: 3, RetryBase: time.Millisecond}
	res, err := c.Stats(context.Background(), "fig1")
	if err != nil {
		t.Fatalf("client did not ride out two 503s: %v", err)
	}
	if res.Stats == nil || res.Stats.SubComputations == 0 {
		t.Errorf("retried request returned a hollow result: %+v", res)
	}

	// Without retries the same failure surfaces immediately.
	mu.Lock()
	failures = 1
	mu.Unlock()
	if _, err := (&Client{BaseURL: ts.URL}).Stats(context.Background(), "fig1"); err == nil {
		t.Error("MaxRetries=0 client retried anyway")
	}

	// A canceled context stops the retry loop instead of sleeping on.
	mu.Lock()
	failures = 1 << 30
	mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Stats(ctx, "fig1"); !errors.Is(err, context.Canceled) && err == nil {
		t.Error("canceled retry loop returned success")
	}
}

// TestLiveEngineFoldPanic drives the live pipeline through a panicking
// fold: the last good epoch stays servable, later folds recover, and
// Close surfaces the first fold error instead of deadlocking.
func TestLiveEngineFoldPanic(t *testing.T) {
	g := core.NewGraph(1)
	var mu sync.Mutex
	boom := false
	l := NewLiveEngine(g, EngineOptions{}, func() {
		mu.Lock()
		defer mu.Unlock()
		if boom {
			boom = false
			panic("injected fold panic")
		}
	})
	if l.Engine() == nil {
		t.Fatal("no engine after construction")
	}
	first := l.Epoch()

	// Seal a vertex, then make the next fold panic.
	r, err := core.NewRecorder(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.OnWrite(1)
	if _, err := r.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	boom = true
	mu.Unlock()
	l.Notify()
	// Wait until the notified fold has consumed the panic — otherwise
	// Close's final fold could be the panicking one, in which case the
	// last good epoch (legitimately) stays and this test would assert
	// the wrong thing.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		consumed := !boom
		mu.Unlock()
		if consumed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fold hook never ran")
		}
		time.Sleep(time.Millisecond)
	}
	// The panicking fold published nothing; the final fold via Close
	// recovers, serves the complete graph, and Close still surfaces the
	// recorded error.
	cerr := l.Close()
	if cerr == nil || !strings.Contains(cerr.Error(), "fold panicked") {
		t.Fatalf("Close() = %v, want fold panic error", cerr)
	}
	if l.Epoch() < first {
		t.Errorf("epoch went backwards after a fold panic")
	}
	res, err := l.Engine().Execute(context.Background(), Query{Kind: KindStats})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SubComputations != 1 {
		t.Errorf("final epoch saw %d subs, want 1 (fold after panic must recover)", res.Stats.SubComputations)
	}
}

// TestClientBackoffHonorsCancel pins the select in Client.do: a context
// canceled while the client sleeps between retries ends the wait
// immediately with ctx's error — the backoff timer cannot hold a caller
// hostage for the duration of a long Retry-After hint.
func TestClientBackoffHonorsCancel(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Always shed, steering every attempt into the backoff sleep,
		// and stretch it: without cancellation the test would sit here
		// for minutes.
		w.Header().Set("Retry-After", "120")
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{BaseURL: ts.URL, MaxRetries: 5, RetryBase: time.Millisecond}
	done := make(chan error, 1)
	go func() {
		_, err := c.Stats(ctx, "fig1")
		done <- err
	}()
	// Let the first attempt fail and the client enter its backoff wait,
	// then cancel mid-sleep.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client still sleeping 5s after cancellation (Retry-After hint won over ctx.Done)")
	}
}

// TestClientResponseCap pins the client's response bound: a body of
// exactly maxResponseBytes is read whole, and one byte more is an error
// naming the cap — never the truncated prefix with a nil error, which
// would let a "remote = local bytes" check pass on a prefix.
func TestClientResponseCap(t *testing.T) {
	chunk := make([]byte, 1<<20)
	for i := range chunk {
		chunk[i] = byte('a' + i%26)
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := maxResponseBytes
		if r.PathValue("id") == "over" {
			n++
		}
		for n > 0 {
			k, err := w.Write(chunk[:min(n, len(chunk))])
			if err != nil {
				return
			}
			n -= k
		}
	})
	mux := http.NewServeMux()
	mux.Handle("GET /v1/cpgs/{id}/export", h)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	got, err := c.Export(ctx, "exact")
	if err != nil || len(got) != maxResponseBytes {
		t.Fatalf("export of exactly %d bytes: got %d bytes, err=%v", maxResponseBytes, len(got), err)
	}
	got, err = c.Export(ctx, "over")
	if err == nil || !strings.Contains(err.Error(), "64 MiB cap") {
		t.Fatalf("export of %d bytes: got %d bytes, err=%v; want an error naming the 64 MiB cap", maxResponseBytes+1, len(got), err)
	}
}
