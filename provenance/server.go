package provenance

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// CPGInfo describes one graph a server exposes (the GET /v1/cpgs
// listing). Epoch is 0 (omitted) for post-mortem graphs and the newest
// published epoch for live ones, so monitors can watch a live graph
// grow from the listing alone. Degraded is omitted (false) for complete
// recordings; true marks graphs carrying trace-loss gaps.
type CPGInfo struct {
	ID              string `json:"id"`
	SubComputations int    `json:"sub_computations"`
	Threads         int    `json:"threads"`
	Edges           int    `json:"edges"`
	Epoch           uint64 `json:"epoch,omitempty"`
	Degraded        bool   `json:"degraded,omitempty"`
}

// ReadyStatus is the GET /readyz response body. Epochs maps each
// live-served CPG id to its newest published epoch (post-mortem graphs,
// whose epoch is 0, are omitted), so monitors read live analysis
// progress straight from the readiness probe.
type ReadyStatus struct {
	Ready  bool              `json:"ready"`
	Epochs map[string]uint64 `json:"epochs,omitempty"`
}

// CPGList is the GET /v1/cpgs response body.
type CPGList struct {
	Version string    `json:"version"`
	CPGs    []CPGInfo `json:"cpgs"`
}

// apiError is the JSON error body every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

// ServerOptions configure the HTTP query service.
type ServerOptions struct {
	// Timeout bounds each request's query execution; the deadline
	// cancels the in-flight graph traversal. 0 means no server-imposed
	// deadline (client disconnects still cancel).
	Timeout time.Duration
	// MaxInflight bounds concurrently executing /v1/ requests; excess
	// requests are shed with 503 and a one-second Retry-After instead of
	// queueing until the process falls over. 0 means unlimited. Health
	// probes (/healthz, /readyz) always bypass the limit.
	MaxInflight int
	// Logf receives panic-recovery log lines (nil = log.Printf).
	Logf func(format string, args ...any)
	// Store, when the server fronts a CPG store (OpenFiles, OpenDir),
	// additionally exposes GET /v1/store with the store's resident-set
	// and result-cache counters. The store's sources still register
	// through NewServerSources like any others.
	Store *Store
	// Ingest, when set, turns the server into an aggregator: recorders
	// stream epoch-delta frames to POST /v1/ingest/{source}, and the
	// resulting per-source live CPGs are served alongside the static
	// sources (listing, stats, queries, epochs, export).
	Ingest *IngestHub
}

// Source is one served CPG. A request resolves its source once and asks
// it for everything, so each kind — a completed analysis (StaticSource),
// a graph still growing behind a Feed (LiveEngine, IngestSource), a
// lazily decoded file (Store.Sources) — answers its own cheapest way and
// no handler asks which kind it holds.
type Source interface {
	// Engine pins the newest epoch's engine: cursors, totals and ordering
	// all refer to that epoch's immutable Analysis, however far a live
	// fold moves on meanwhile. A lazy source materializes its graph here.
	Engine() *Engine
	// Query executes q against the newest epoch (through the source's
	// result cache, if it has one).
	Query(ctx context.Context, q Query) (*Result, error)
	// Info describes the CPG for the listing without materializing it.
	// The Server fills in the ID.
	Info() CPGInfo
	// Epoch is the newest published epoch (0 for a post-mortem graph),
	// without materializing.
	Epoch() uint64
	// WaitEpoch follows Feed.WaitEpoch; a source that cannot advance is
	// closed (ErrLiveClosed) from the start.
	WaitEpoch(ctx context.Context, min uint64) (uint64, error)
}

// staticSource pins one completed engine forever.
type staticSource struct{ e *Engine }

func (s staticSource) Engine() *Engine { return s.e }
func (s staticSource) Query(ctx context.Context, q Query) (*Result, error) {
	return s.e.Execute(ctx, q)
}
func (s staticSource) Info() CPGInfo { return s.e.info() }
func (s staticSource) Epoch() uint64 { return s.e.Epoch() }
func (s staticSource) WaitEpoch(context.Context, uint64) (uint64, error) {
	return s.e.Epoch(), ErrLiveClosed
}

// StaticSource wraps a completed Engine as a Source.
func StaticSource(e *Engine) Source { return staticSource{e: e} }

// info describes the engine's analysis for the listing (stats are
// cached, so repeated listings of one epoch stay O(1)).
func (e *Engine) info() CPGInfo {
	return infoOf(e.stats(), e.Epoch(), e.a.Degraded())
}

// infoOf is the listing entry of an analysis with these stats.
func infoOf(st Stats, epoch uint64, degraded bool) CPGInfo {
	return CPGInfo{
		SubComputations: st.SubComputations,
		Threads:         st.Threads,
		Edges:           st.ControlEdges + st.SyncEdges + st.DataEdges,
		Epoch:           epoch,
		Degraded:        degraded,
	}
}

// Server is the provenance/v1 HTTP API over a set of graphs:
//
//	GET  /v1/cpgs             list the served graphs
//	GET  /v1/cpgs/{id}/stats  summary of one graph
//	POST /v1/cpgs/{id}/query  execute a Query (JSON body) against one graph
//
// Each id is backed by a Source: a static source for a completed
// (post-mortem) graph, or a LiveEngine for an execution still being
// recorded. A request resolves its source exactly once, so every request
// is pinned to one immutable epoch Analysis — concurrent clients need no
// synchronization, cursors stay valid within the epoch that issued them,
// and responses carry the epoch id. inspector-serve wraps this in a
// daemon; httptest wraps it in tests; cpg-query -remote speaks to
// either.
type Server struct {
	sources map[string]Source
	ids     []string
	opts    ServerOptions
	mux     *http.ServeMux
	// notReady, while set, makes /readyz answer 503 — the daemon flips
	// it once its listener is up and every CPG is loaded. Construction
	// starts ready (embedders already hold loaded sources).
	notReady atomic.Bool
	// inflight is the /v1/ admission semaphore (nil = unlimited).
	inflight chan struct{}
}

// NewServer builds the handler over completed engines, keyed by CPG id
// (the id segment of the URL paths) — the post-mortem form. Use
// NewServerSources to mix in live graphs.
func NewServer(engines map[string]*Engine, opts ServerOptions) *Server {
	sources := make(map[string]Source, len(engines))
	for id, eng := range engines {
		sources[id] = StaticSource(eng)
	}
	return NewServerSources(sources, opts)
}

// NewServerSources builds the handler over engine sources, keyed by CPG
// id. The listing is sorted by id.
func NewServerSources(sources map[string]Source, opts ServerOptions) *Server {
	s := &Server{sources: sources, opts: opts, mux: http.NewServeMux()}
	for id := range sources {
		s.ids = append(s.ids, id)
	}
	sort.Strings(s.ids)
	if opts.MaxInflight > 0 {
		s.inflight = make(chan struct{}, opts.MaxInflight)
	}
	s.mux.HandleFunc("GET /v1/cpgs", s.handleList)
	s.mux.HandleFunc("GET /v1/cpgs/{id}/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/cpgs/{id}/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/cpgs/{id}/epochs", s.handleEpochs)
	s.mux.HandleFunc("GET /v1/cpgs/{id}/export", s.handleExport)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	if opts.Ingest != nil {
		s.mux.HandleFunc("POST /v1/ingest/{source}", s.handleIngest)
		s.mux.HandleFunc("GET /v1/ingest/{source}", s.handleIngestOffset)
	}
	if opts.Store != nil {
		s.mux.HandleFunc("GET /v1/store", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, opts.Store.Stats())
		})
	}
	return s
}

// SetReady flips the /readyz verdict. The daemon serves not-ready
// during startup (listener up, CPGs still loading) and flips to ready
// once every graph is queryable.
func (s *Server) SetReady(ready bool) { s.notReady.Store(!ready) }

// ServeHTTP implements http.Handler. It is the hardening envelope
// around the route mux: a panicking handler is logged and answered with
// 500 instead of killing the daemon's connection goroutine silently,
// and when MaxInflight is set, excess /v1/ requests are shed with
// 503 + Retry-After before they touch a graph.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	defer func() {
		if rec := recover(); rec != nil {
			s.logf("provenance: panic serving %s %s: %v", r.Method, r.URL.Path, rec)
			if !sw.wrote {
				writeJSON(sw, http.StatusInternalServerError, apiError{Error: "internal error"})
			}
		}
	}()
	if s.inflight != nil && strings.HasPrefix(r.URL.Path, "/v1/") {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			sw.Header().Set("Retry-After", "1")
			writeJSON(sw, http.StatusServiceUnavailable, apiError{Error: "server at capacity"})
			return
		}
	}
	s.mux.ServeHTTP(sw, r)
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// statusWriter remembers whether a header has been written, so the
// panic recovery knows if a 500 can still be sent.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (sw *statusWriter) WriteHeader(status int) {
	sw.wrote = true
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(b)
}

// handleHealth is the liveness probe: the process can answer HTTP.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		OK bool `json:"ok"`
	}{OK: true})
}

// handleReady is the readiness probe: 503 until the daemon marks its
// CPGs loaded, then 200 with live epoch progress per source.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.notReady.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ReadyStatus{Ready: false})
		return
	}
	st := ReadyStatus{Ready: true}
	for _, id := range s.IDs() {
		src, ok := s.source(id)
		if !ok {
			continue
		}
		if e := src.Epoch(); e > 0 {
			if st.Epochs == nil {
				st.Epochs = make(map[string]uint64)
			}
			st.Epochs[id] = e
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// IDs returns the served CPG ids, sorted. With an ingest hub attached
// the listing is dynamic: sources a recorder has streamed since the
// server started are included.
func (s *Server) IDs() []string {
	out := make([]string, len(s.ids))
	copy(out, s.ids)
	if s.opts.Ingest != nil {
		for _, id := range s.opts.Ingest.IDs() {
			if _, clash := s.sources[id]; !clash {
				out = append(out, id)
			}
		}
		sort.Strings(out)
	}
	return out
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	// The listing is assembled per request: live sources advance between
	// requests, and each entry must describe one pinned epoch.
	ids := s.IDs()
	infos := make([]CPGInfo, 0, len(ids))
	for _, id := range ids {
		src, ok := s.source(id)
		if !ok {
			continue
		}
		info := src.Info()
		info.ID = id
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, CPGList{Version: Version, CPGs: infos})
}

// source looks an id up across the static sources and (when
// aggregating) the ingest hub. Static registrations win name clashes;
// the ingest path refuses to bind a statically served name.
func (s *Server) source(id string) (Source, bool) {
	if src, ok := s.sources[id]; ok {
		return src, true
	}
	if s.opts.Ingest != nil {
		if src, ok := s.opts.Ingest.Source(id); ok {
			return src, true
		}
	}
	return nil, false
}

// resolve finds the request's source.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request) (Source, bool) {
	src, ok := s.source(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown cpg " + r.PathValue("id")})
		return nil, false
	}
	return src, true
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	src, ok := s.resolve(w, r)
	if !ok {
		return
	}
	s.execute(w, r, src, Query{Kind: KindStats})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	src, ok := s.resolve(w, r)
	if !ok {
		return
	}
	var q Query
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&q); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad query body: " + err.Error()})
		return
	}
	s.execute(w, r, src, q)
}

// execute runs one query under the request context (plus the
// server-imposed deadline) and writes the wire result.
func (s *Server) execute(w http.ResponseWriter, r *http.Request, src Source, q Query) {
	ctx := r.Context()
	if s.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.Timeout)
		defer cancel()
	}
	res, err := src.Query(ctx, q)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, res)
	case errors.Is(err, ErrBadQuery):
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout,
			apiError{Error: fmt.Sprintf("query exceeded the %v server deadline", s.opts.Timeout)})
	case errors.Is(err, context.Canceled):
		// The client went away; the traversal already stopped and
		// nothing can be written back.
	default:
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	}
}

// writeJSON answers with v's compact provenance/v1 document: what
// json.NewEncoder(w).Encode(v) writes.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the status line is out; a write error has no recourse
}
