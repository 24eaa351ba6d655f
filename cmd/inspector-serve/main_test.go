package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/repro/inspector"
	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/workloads"
	"github.com/repro/inspector/provenance"
)

// writeCPG records a tiny two-thread execution and writes its .cpg file.
func writeCPG(t *testing.T, path string) {
	t.Helper()
	if err := cpgfile.Write(path, buildGraph(t).Analyze(), cpgfile.Meta{}); err != nil {
		t.Fatal(err)
	}
}

// buildGraph records a tiny two-thread execution.
func buildGraph(t *testing.T) *core.Graph {
	t.Helper()
	g := core.NewGraph(2)
	lock := g.NewSyncObject("lock", false)
	rel := core.SyncEvent{Kind: core.SyncRelease, Object: lock.Ref()}
	r0, err := core.NewRecorder(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := core.NewRecorder(g, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r0.OnWrite(100)
	s0, err := r0.EndSub(rel, 0)
	if err != nil {
		t.Fatal(err)
	}
	r0.Release(lock, s0)
	r1.Acquire(lock)
	r1.OnRead(100)
	if _, err := r1.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r0.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildServerFromCPGFiles(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "alpha.cpg")
	b := filepath.Join(dir, "beta.cpg")
	writeCPG(t, a)
	writeCPG(t, b)

	srv, err := buildServer(config{cpgPaths: multiFlag{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	ids := srv.IDs()
	if len(ids) != 2 || ids[0] != "alpha" || ids[1] != "beta" {
		t.Fatalf("ids = %v", ids)
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &provenance.Client{BaseURL: ts.URL}
	res, err := c.Query(context.Background(), "alpha", provenance.Query{
		Kind: provenance.KindTaint, Target: "T0.0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) == 0 {
		t.Error("no taint flow served from a -cpg graph")
	}
}

// TestBuildServerFromCPGDir pins the -cpgdir path: columnar files served
// lazily through the Store, with /v1/store reporting cache counters and
// query answers matching the eager -cpg path.
func TestBuildServerFromCPGDir(t *testing.T) {
	dir := t.TempDir()
	a := buildGraph(t).Analyze()
	for _, id := range []string{"alpha", "beta"} {
		if err := cpgfile.Write(filepath.Join(dir, id+".cpg"), a, cpgfile.Meta{RunID: id}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := buildServer(config{cpgDir: dir, residentBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ids := srv.IDs()
	if len(ids) != 2 || ids[0] != "alpha" || ids[1] != "beta" {
		t.Fatalf("ids = %v", ids)
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &provenance.Client{BaseURL: ts.URL}
	for i := 0; i < 2; i++ { // second round hits the result cache
		res, err := c.Query(context.Background(), "alpha", provenance.Query{
			Kind: provenance.KindTaint, Target: "T0.0",
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.IDs) == 0 {
			t.Error("no taint flow served from cpgdir-loaded graph")
		}
	}
	resp, err := http.Get(ts.URL + "/v1/store")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st provenance.StoreStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.CPGs != 2 {
		t.Errorf("/v1/store cpgs = %d, want 2", st.CPGs)
	}
	if st.ResultCache.Hits == 0 {
		t.Errorf("repeated query did not hit the result cache: %+v", st.ResultCache)
	}
}

func TestBuildServerErrors(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "x.cpg")
	writeCPG(t, a)

	if _, err := buildServer(config{}); err == nil {
		t.Error("empty server accepted")
	}
	// Two files with the same base name collide.
	sub := filepath.Join(dir, "sub")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	b := filepath.Join(sub, "x.cpg")
	writeCPG(t, b)
	if _, err := buildServer(config{cpgPaths: multiFlag{a, b}}); err == nil {
		t.Error("duplicate ids accepted")
	}
	// Missing file.
	if _, err := buildServer(config{cpgPaths: multiFlag{filepath.Join(dir, "absent.cpg")}}); err == nil {
		t.Error("missing file accepted")
	}
}

// TestBuildServerIngestStream is the acceptance check for serving a run
// while it records: the recorder streams to a daemon built with -ingest,
// the source is queryable mid-run (every response carries an epoch, the
// vertex count grows), the sealed stream serves the same stats as the
// run's own .cpg served by -cpg, and -max-results caps an ingested
// source's pages.
func TestBuildServerIngestStream(t *testing.T) {
	if testing.Short() {
		t.Skip("records a workload")
	}
	const id, pageCap = "histogram-t2-s1", 3
	cfg := config{ingest: true}
	cfg.server.Timeout = 10 * time.Second
	cfg.engine.MaxResults = pageCap
	srv, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &provenance.Client{BaseURL: ts.URL}
	ctx := context.Background()

	w, err := workloads.Get("histogram")
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workloads.Config{Threads: 2, Size: workloads.Small, Seed: 1}
	rec, err := inspector.New(inspector.Options{
		AppName: "histogram", MaxThreads: w.MaxThreads(wcfg), Stream: ts.URL, RunID: id,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Park the first committing thread until the mid-run stats are in:
	// the epoch its commit sealed is already queued (the driver's hook is
	// registered first), and the thread still has sub-computations to
	// seal, so the final graph is strictly larger than the mid-run one.
	observed := make(chan struct{})
	var park sync.Once
	rec.Unwrap().RegisterCommitHook(func(core.SubID) { park.Do(func() { <-observed }) })
	recorded := make(chan error, 1)
	go func() {
		err := w.Run(rec.Unwrap(), wcfg)
		recorded <- errors.Join(err, rec.Close(), rec.WaitStream(ctx))
	}()

	var mid *provenance.Result
	deadline := time.Now().Add(30 * time.Second)
	for {
		// The source 404s until the recorder's hello arrives.
		mid, err = c.Stats(ctx, id)
		if err == nil && mid.Stats.SubComputations > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no sealed sub-computations observable during the streamed run (last: %+v, %v)", mid, err)
		}
		time.Sleep(time.Millisecond)
	}
	if mid.Epoch == 0 {
		t.Error("mid-run stats carry no epoch")
	}
	close(observed)
	if err := <-recorded; err != nil {
		t.Fatal(err)
	}

	final, err := c.Stats(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if final.Epoch <= mid.Epoch || final.Stats.SubComputations <= mid.Stats.SubComputations {
		t.Fatalf("final epoch %d/%d subs did not grow past mid-run %d/%d",
			final.Epoch, final.Stats.SubComputations, mid.Epoch, mid.Stats.SubComputations)
	}

	// The page cap holds on an ingested source.
	res, err := c.Query(ctx, id, provenance.Query{Kind: provenance.KindEdges})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= pageCap {
		t.Fatalf("only %d edges: the page cap is not exercised", res.Total)
	}
	if len(res.Edges) != pageCap || res.NextCursor == "" {
		t.Errorf("capped page has %d edges (want %d), cursor %q", len(res.Edges), pageCap, res.NextCursor)
	}

	// The sealed stream must agree with the same recording's .cpg served
	// post-mortem, listing included.
	path := filepath.Join(t.TempDir(), id+".cpg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(rec.WriteCPG(f), f.Close()); err != nil {
		t.Fatal(err)
	}
	post, err := buildServer(config{cpgPaths: multiFlag{path}})
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(post)
	defer pts.Close()
	pc := &provenance.Client{BaseURL: pts.URL}
	want, err := pc.Stats(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if *final.Stats != *want.Stats {
		t.Fatalf("streamed final stats %+v != post-mortem stats %+v", final.Stats, want.Stats)
	}
	cpgs, err := pc.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cpgs) != 1 || cpgs[0].ID != id || cpgs[0].SubComputations != want.Stats.SubComputations {
		t.Fatalf("post-mortem list = %+v, stats %+v", cpgs, want.Stats)
	}
}

// TestCorruptGobRefused is the check for artifacts -cpg cannot serve: a
// bit-flipped .cpg fails startup naming the file and the damaged section,
// a gob file from an older build is refused by magic, and -lenient
// skips both while the healthy graph still serves.
func TestCorruptGobRefused(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.cpg")
	writeCPG(t, good)
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.cpg")
	data[len(data)-2] ^= 0x10 // inside the last section, stats
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(map[string]int{"Threads": 2}); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "stale.gob")
	if err := os.WriteFile(stale, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = buildServer(config{cpgPaths: multiFlag{good, bad}})
	var ce *cpgfile.CorruptError
	if !errors.As(err, &ce) || ce.Section != "stats" || !strings.Contains(err.Error(), bad) {
		t.Errorf("flipped .cpg: err = %v, want a *cpgfile.CorruptError for the stats section naming %s", err, bad)
	}
	_, err = buildServer(config{cpgPaths: multiFlag{good, stale}})
	if !errors.Is(err, cpgfile.ErrBadMagic) || !strings.Contains(err.Error(), stale) {
		t.Errorf("gob file: err = %v, want ErrBadMagic naming %s", err, stale)
	}

	srv, err := buildServer(config{cpgPaths: multiFlag{good, bad, stale}, lenient: true})
	if err != nil {
		t.Fatalf("-lenient still refused: %v", err)
	}
	if ids := srv.IDs(); len(ids) != 1 || ids[0] != "good" {
		t.Errorf("lenient server ids = %v, want [good]", ids)
	}
}

// gateSource holds queries until released, pinning one request
// in-flight so the drain test can observe it.
type gateSource struct {
	provenance.Source
	gate chan struct{}
}

func (g gateSource) Query(ctx context.Context, q provenance.Query) (*provenance.Result, error) {
	<-g.gate
	return g.Source.Query(ctx, q)
}

// TestServeGracefulDrain drives the daemon loop through its shutdown
// path: SIGTERM stops accepting, the in-flight request completes, and
// serve returns nil (the process would exit 0).
func TestServeGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	srv := provenance.NewServerSources(map[string]provenance.Source{
		"slow": gateSource{
			Source: provenance.StaticSource(provenance.NewEngine(buildGraph(t).Analyze(), provenance.EngineOptions{})),
			gate:   gate,
		},
	}, provenance.ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(filepath.Join(t.TempDir(), "serve.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	sig := make(chan os.Signal, 1)
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- serve(ln, func() (*provenance.Server, error) { return srv, nil },
			sig, 30*time.Second, out)
	}()
	base := "http://" + ln.Addr().String()

	// Wait until the real server is installed. /readyz would resolve the
	// gated source's Engine() and block, so probe a path that answers
	// without touching sources: the boot handler 503s it, the real server
	// 404s it.
	waitStatus(t, base+"/v1/cpgs/absent/stats", 404)

	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/v1/cpgs/slow/stats")
		if err != nil {
			reqDone <- -1
			return
		}
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	// Give the request time to reach the handler and block on the gate.
	time.Sleep(50 * time.Millisecond)

	sig <- syscall.SIGTERM
	select {
	case err := <-serveDone:
		t.Fatalf("serve returned before the in-flight request finished: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	if code := <-reqDone; code != http.StatusOK {
		t.Errorf("in-flight request finished with %d during drain", code)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("drained serve returned %v, want nil", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after drain")
	}
}

// TestServeNotReadyWhileLoading checks the startup window: with the
// listener up but CPGs still loading, /healthz answers 200 and /readyz
// answers 503 with {"ready":false}; once loading finishes, /readyz flips
// to 200 with {"ready":true}.
func TestServeNotReadyWhileLoading(t *testing.T) {
	loading := make(chan struct{})
	srv := provenance.NewServer(map[string]*provenance.Engine{
		"g": provenance.NewEngine(buildGraph(t).Analyze(), provenance.EngineOptions{}),
	}, provenance.ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(filepath.Join(t.TempDir(), "serve.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	sig := make(chan os.Signal, 1)
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- serve(ln, func() (*provenance.Server, error) {
			<-loading // a big .cpg decoding
			return srv, nil
		}, sig, time.Second, out)
	}()
	base := "http://" + ln.Addr().String()

	// readyz answers with the documented ReadyStatus body on both sides
	// of the flip.
	readyz := func() (int, provenance.ReadyStatus) {
		t.Helper()
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		rs := provenance.ReadyStatus{Ready: true} // a body without "ready" must not pass for not-ready
		dec := json.NewDecoder(resp.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rs); err != nil {
			t.Errorf("readyz body (status %d) is not a ReadyStatus: %v", resp.StatusCode, err)
		}
		return resp.StatusCode, rs
	}

	waitStatus(t, base+"/healthz", 200)
	if code, rs := readyz(); code != http.StatusServiceUnavailable || rs.Ready {
		t.Errorf("readyz while loading = %d %+v, want 503 and ready=false", code, rs)
	}
	close(loading)
	waitStatus(t, base+"/readyz", 200)
	if code, rs := readyz(); code != http.StatusOK || !rs.Ready {
		t.Errorf("readyz once loaded = %d %+v, want 200 and ready=true", code, rs)
	}
	sig <- syscall.SIGTERM
	if err := <-serveDone; err != nil {
		t.Errorf("serve returned %v", err)
	}
}

// waitStatus polls url until it answers with the wanted status.
func waitStatus(t *testing.T, url string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never answered %d (last: %v %v)", url, want, resp, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
