package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/provenance"
)

// The serving phase is a closed loop of one client. One client and the
// server it waits for already keep this 2-core box busy; a second client
// made query_p50_ms swing by 12% between back-to-back phases of one
// process, against 3% with one.

// serveWindows is how many consecutive windows the serving phase is cut
// into. query_p50_x is made of the windows' median latencies, each
// net of the steal in its window: a neighbour's burst is voted out with
// the windows it hit, where it would drag a pooled median toward the upper
// quantiles.
const serveWindows = 5

// quickQueries is the serving phase of the quick path, per window.
const quickQueries = 8

// dashboardShare of the queries repeat one of a few fixed "dashboard"
// queries, so the result cache has something to hit. A quarter of the
// traffic on eight queries does not average out, and a slice of a late
// sub-computation costs many times one of an early one, so the dashboard's
// kinds and positions are the same under every seed (dashboardSeed); only
// the graphs underneath follow the seed.
const (
	dashboardShare = 0.25
	dashboardSeed  = 20160627
)

var dashboardKinds = []provenance.Kind{
	provenance.KindStats, provenance.KindStats, provenance.KindSlice, provenance.KindSlice,
	provenance.KindTaint, provenance.KindLineage, provenance.KindPath, provenance.KindEdges,
}

// servedGraph is one file of the served directory with the in-memory
// analysis it was written from, the reference served results are held to.
type servedGraph struct {
	id  string
	ref *provenance.Engine
}

// serving is the directory-backed store behind a loopback HTTP server.
type serving struct {
	graphs    []servedGraph
	store     *provenance.Store
	ts        *httptest.Server
	dashboard []request
	// subs is the seed graph's (file 0's) sub-computation count: the
	// per-sub byte metrics' divisor and the seal clock's capacity.
	subs int
}

func (s *serving) close() {
	s.ts.Close()
	s.store.Close()
}

// setup is everything before the first timed rep: record the program
// under Files seeds, write the .cpg directory, open it as a store, start
// the server, and fix the dashboard queries.
func (b *bench) setup() (*serving, error) {
	dir := b.scratch("cpgdir")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &serving{}
	for i := 0; i < b.sc.Files; i++ {
		cfg := b.cfg
		cfg.Seed = b.seed + int64(i)
		rt, _, err := b.runRecord(cfg, false)
		if err != nil {
			return nil, err
		}
		a := rt.Graph().Analyze()
		id := fmt.Sprintf("%s-s%d", b.sc.App, cfg.Seed)
		if err := writeCPG(filepath.Join(dir, id+".cpg"), a, cpgfile.Meta{RunID: id, App: b.sc.App}); err != nil {
			return nil, err
		}
		s.graphs = append(s.graphs, servedGraph{id: id, ref: provenance.NewEngine(a, provenance.EngineOptions{})})
		if i == 0 {
			s.subs = a.NumVertices()
		}
	}
	opts := provenance.StoreOptions{ResidentBudget: b.sc.Budget}
	if b.sc.NoCache {
		opts.ResultCacheCapacity = -1
	}
	store, err := provenance.OpenDir(dir, opts)
	if err != nil {
		return nil, err
	}
	s.store = store
	s.ts = httptest.NewServer(provenance.NewServerSources(store.Sources(), provenance.ServerOptions{Store: store}))
	rng := rand.New(rand.NewSource(dashboardSeed))
	for _, kind := range dashboardKinds {
		s.dashboard = append(s.dashboard, s.requestOf(rng, kind))
	}
	return s, nil
}

// request is one query against one served graph.
type request struct {
	graph int
	q     provenance.Query
}

// queryKinds is the mix, in the order the per-layer engine metrics name
// them; "edges" is a filtered listing.
var queryKinds = []provenance.Kind{
	provenance.KindSlice, provenance.KindTaint, provenance.KindPath,
	provenance.KindLineage, provenance.KindStats, provenance.KindEdges,
}

func randomSub(rng *rand.Rand, lens []int) core.SubID {
	t := rng.Intn(len(lens))
	for lens[t] == 0 {
		t = rng.Intn(len(lens))
	}
	return core.SubID{Thread: t, Alpha: uint64(rng.Intn(lens[t]))}
}

// randomRequest draws one query of a random kind on a random graph.
func (s *serving) randomRequest(rng *rand.Rand) request {
	return s.requestOf(rng, queryKinds[rng.Intn(len(queryKinds))])
}

func (s *serving) requestOf(rng *rand.Rand, kind provenance.Kind) request {
	gi := rng.Intn(len(s.graphs))
	a := s.graphs[gi].ref.Analysis()
	lens := a.ThreadLens()
	target := randomSub(rng, lens)
	q := provenance.Query{Kind: kind}
	switch kind {
	case provenance.KindSlice, provenance.KindTaint:
		q.Target = target.String()
	case provenance.KindPath:
		q.From, q.To = randomSub(rng, lens).String(), target.String()
	case provenance.KindLineage:
		q.Target = target.String()
		var page uint64
		if sc, ok := a.Graph().Sub(target); ok && sc.ReadSet.Len() > 0 {
			pages := sc.ReadSet.Sorted()
			page = pages[rng.Intn(len(pages))]
		}
		q.Page = &page
	case provenance.KindEdges:
		lo := target.Alpha
		hi := lo + 32
		q.EdgeKinds = []string{"data"}
		q.Thread, q.AlphaMin, q.AlphaMax = &target.Thread, &lo, &hi
		q.Limit = 256
	}
	return request{graph: gi, q: q}
}

// served is one answered request kept for verification.
type served struct {
	req request
	res *provenance.Result
}

// serveResult is one closed-loop serving phase.
type serveResult struct {
	lat    []float64 // ms, client-observed, every query
	p50    []float64 // ms, per window: the median latency, net of steal
	stolen []float64 // per window: the share of the CPU time stolen
	wall   time.Duration
}

// serve runs the closed-loop client for the given time (or, under quick,
// for a fixed few queries), window by window, then verifies the sampled
// answers against Engine.Execute on the in-memory analyses.
func (b *bench) serve(s *serving, serveFor time.Duration) serveResult {
	var res serveResult
	var kept []served
	ctx := context.Background()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &provenance.Client{BaseURL: s.ts.URL, HTTPClient: &http.Client{Transport: tr}}
	rng := rand.New(rand.NewSource(b.seed*7919 + 1))
	// The phase starts from a collected heap, whatever the record side
	// left: where every query decodes a graph the collector runs every few
	// queries, and how often depends on the live heap it starts from.
	runtime.GC()
	t0 := time.Now()
	for w := 1; w <= serveWindows; w++ {
		until := t0.Add(serveFor * time.Duration(w) / serveWindows)
		first, c0 := len(res.lat), readCPU()
		for n := 0; b.quick && n < quickQueries || !b.quick && time.Now().Before(until); n++ {
			req := s.randomRequest(rng)
			if rng.Float64() < dashboardShare {
				req = s.dashboard[rng.Intn(len(s.dashboard))]
			}
			q0 := time.Now()
			got, err := client.Query(ctx, s.graphs[req.graph].id, req.q)
			res.lat = append(res.lat, ms(time.Since(q0)))
			b.op("query", err)
			if err == nil && len(res.lat)%b.sc.VerifyEvery == 0 {
				kept = append(kept, served{req, got})
			}
		}
		if len(res.lat) > first {
			got := readCPU().since(c0).got()
			res.p50 = append(res.p50, median(res.lat[first:])*got)
			res.stolen = append(res.stolen, 1-got)
		}
	}
	res.wall = time.Since(t0)
	for _, k := range kept {
		if err := b.verify(ctx, s, k); err != nil {
			b.fail(1, "served result", err)
		}
	}
	return res
}

// sameResult compares two results in wire form, where an empty list and
// an absent one are the same answer.
func sameResult(a, b *provenance.Result) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// verify holds one served answer to Engine.Execute on the same analysis.
func (b *bench) verify(ctx context.Context, s *serving, k served) error {
	want, err := s.graphs[k.req.graph].ref.Execute(ctx, k.req.q)
	if err != nil {
		return err
	}
	if b.breakRef {
		broken := *want
		broken.Total++
		want = &broken
	}
	if !sameResult(k.res, want) {
		return fmt.Errorf("%s query on %s differs from Engine.Execute", k.req.q.Kind, s.graphs[k.req.graph].id)
	}
	return nil
}
