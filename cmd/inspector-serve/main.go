// Command inspector-serve is the provenance query daemon: it serves
// Concurrent Provenance Graphs from two kinds of source — .cpg files
// (written by inspector-run -cpg or inspector-recover -cpg) and epoch
// streams (pushed by inspector-run -stream) — over the provenance/v1
// HTTP API to any number of concurrent clients. It records nothing
// itself: the recorder is a different binary.
//
// Usage:
//
//	inspector-serve -cpg run.cpg [-cpg other.cpg] [-addr :7070]
//	inspector-serve -cpgdir cpgs/ [-resident-budget 67108864] [-result-cache 1024]
//	inspector-serve -ingest [-addr :7070]
//
//	GET  /v1/cpgs              list the served graphs
//	GET  /v1/cpgs/{id}/stats   summary of one graph
//	POST /v1/cpgs/{id}/query   run a provenance/v1 Query (JSON body)
//
// Each -cpg file is decoded at startup and served under the id of its
// base name without the extension (run.cpg -> "run"). A crashed run is
// served the same way: inspector-recover -journal DIR -cpg f.cpg writes
// the durable prefix with its epoch and gap marks, so the listing says
// degraded. -cpgdir serves every *.cpg file in a directory without
// loading them up front: files are mmapped, listed from their stats
// sections, decoded only when queried, and evicted LRU once the decoded
// graphs exceed -resident-budget bytes — thousands of CPGs serve under
// a fixed memory ceiling. Repeated queries are answered from a
// content-addressed result cache (-result-cache entries); GET /v1/store
// reports hit/miss/eviction counters. -timeout bounds each request's
// graph traversal (the deadline
// cancels the traversal inside the engine, not just the response), and
// -max-results caps any single result page — clients follow the
// next_cursor contract for the rest.
//
// With -ingest the daemon is the fabric's aggregator, and the way to
// serve a run while it records: recorders running elsewhere
// (inspector-run -stream URL) POST their CRC-checksummed epoch-delta
// frames to /v1/ingest/{source}. Each source folds into its own live
// CPG served under the same query API: every response carries the
// epoch it was answered from (each request pins one epoch, so cursors
// stay valid within it), and once the stream seals the final epoch
// serves the complete graph. GET /v1/ingest/{source}
// reports the resume offset a reconnecting recorder continues from, and
// GET /v1/cpgs/{id}/epochs?min=N&wait=30s long-polls the epoch push
// (cpg-query watch consumes it; the server caps one wait at 30s). The
// hub tracks at most 256 sources. A source that sends a malformed delta
// is latched degraded: the forged epoch is refused atomically and the
// last good epoch keeps serving, gap-marked.
//
// The daemon is hardened for unattended operation: GET /healthz answers
// as soon as the listener is up, GET /readyz answers 503 until every CPG
// is loaded (and reports live epoch progress once ready), -max-inflight
// sheds excess concurrent queries with 503 + Retry-After, a panicking
// handler is answered with 500 instead of killing the process, and
// SIGTERM/SIGINT drain in-flight requests (bounded by -drain-timeout)
// before exiting 0. -lenient skips unreadable -cpg files instead of
// refusing to start.
//
// cpg-query -remote http://host:port is the matching client:
//
//	cpg-query -remote http://localhost:7070 -id run slice T0.3
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/provenance"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "inspector-serve:", err)
		os.Exit(1)
	}
}

// multiFlag collects repeated -cpg flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

// config is everything buildServer assembles a Server from; run's flags
// fill it field by field.
type config struct {
	cpgPaths       multiFlag
	cpgDir         string
	residentBudget int64
	resultCache    int
	lenient        bool

	ingest bool
	server provenance.ServerOptions
	engine provenance.EngineOptions
}

func run(args []string) error {
	fs := flag.NewFlagSet("inspector-serve", flag.ContinueOnError)
	var c config
	fs.Var(&c.cpgPaths, "cpg", ".cpg file to decode at startup and serve (repeatable)")
	fs.StringVar(&c.cpgDir, "cpgdir", "", "directory of columnar .cpg files to serve lazily with bounded memory (id = file basename)")
	fs.Int64Var(&c.residentBudget, "resident-budget", 64<<20, "with -cpgdir: max estimated bytes of decoded graphs resident at once (0 = unlimited)")
	fs.IntVar(&c.resultCache, "result-cache", 0, "with -cpgdir: query result cache capacity in entries (0 = default 1024, negative = disabled)")
	addr := fs.String("addr", ":7070", "listen address")
	fs.DurationVar(&c.server.Timeout, "timeout", 30*time.Second, "per-request query deadline (0 = none)")
	fs.IntVar(&c.engine.MaxResults, "max-results", 10000, "result page cap; clients page with cursors (0 = unlimited)")
	fs.BoolVar(&c.lenient, "lenient", false, "skip unreadable -cpg files (log and serve the rest) instead of refusing to start")
	fs.IntVar(&c.server.MaxInflight, "max-inflight", 0, "max concurrently executing /v1/ requests; excess shed with 503 + Retry-After (0 = unlimited)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "on SIGTERM/SIGINT, wait this long for in-flight requests before exiting (0 = wait forever)")
	fs.BoolVar(&c.ingest, "ingest", false, "aggregator mode: accept streamed epoch deltas on POST /v1/ingest/{source} (from inspector-run -stream) and serve each source's live CPG")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	// Bind before loading anything: /healthz answers (and /readyz says
	// not-ready) while big CPG files decode, so orchestrators probing the
	// daemon distinguish "starting" from "dead". -addr :0 (tests, smoke
	// scripts) still prints the actual port with the announce line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)
	build := func() (*provenance.Server, error) { return buildServer(c) }
	return serve(ln, build, sig, *drainTimeout, os.Stdout)
}

// bootHandler answers during startup: /healthz reports liveness as soon
// as the listener is up; everything else answers 503 until the fully
// built Server is installed — /readyz with the provenance.ReadyStatus
// body the built server's own not-ready answer carries.
type bootHandler struct {
	real atomic.Pointer[provenance.Server]
}

func (b *bootHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if srv := b.real.Load(); srv != nil {
		srv.ServeHTTP(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Path == "/healthz" {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, `{"ok":true}`)
		return
	}
	body := `{"error":"starting up"}`
	if r.URL.Path == "/readyz" {
		body = `{"ready":false}`
	}
	w.Header().Set("Retry-After", "1")
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, body)
}

// serve is the daemon loop: listener up first, then CPGs loaded and the
// real server installed, then wait for a fatal serve error or a shutdown
// signal — on signal, in-flight requests drain (bounded by drainTimeout)
// and the daemon exits cleanly. Factored out of run so tests drive it
// with their own listener and signal channel.
func serve(ln net.Listener, build func() (*provenance.Server, error),
	sig <-chan os.Signal, drainTimeout time.Duration, out *os.File) error {
	boot := &bootHandler{}
	hs := &http.Server{Handler: boot}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	srv, err := build()
	if err != nil {
		hs.Close()
		return err
	}
	boot.real.Store(srv)
	srv.SetReady(true)
	fmt.Fprintf(out, "inspector-serve: serving %v on %s\n", srv.IDs(), ln.Addr())

	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		fmt.Fprintf(out, "inspector-serve: %v: draining in-flight requests (limit %v)\n", s, drainTimeout)
		srv.SetReady(false) // readiness probes steer new traffic away first
		ctx := context.Background()
		if drainTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, drainTimeout)
			defer cancel()
		}
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		<-serveErr // http.ErrServerClosed: the accept loop has exited
		fmt.Fprintln(out, "inspector-serve: drained, exiting")
		return nil
	}
}

// buildServer assembles the engine sources from .cpg files and, with
// -ingest, the hub that recorders stream into. File sources are
// immutable; an ingested source publishes a new immutable epoch per
// fold, and each request pins one epoch — either way the handler is
// safe for arbitrary client concurrency.
//
// A file that does not decode — torn, flipped, or not a .cpg at all —
// fails startup with the offending path and section named; with lenient
// it is logged and skipped so the healthy graphs still serve.
func buildServer(c config) (*provenance.Server, error) {
	sopts, eopts := c.server, c.engine
	if c.ingest {
		sopts.Ingest = provenance.NewIngestHub(provenance.IngestOptions{Engine: eopts})
	}
	sources := map[string]provenance.Source{}
	if c.cpgDir != "" {
		store, err := provenance.OpenDir(c.cpgDir, provenance.StoreOptions{
			ResidentBudget:      c.residentBudget,
			ResultCacheCapacity: c.resultCache,
			Engine:              eopts,
			Lenient:             c.lenient,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "inspector-serve: "+format+"\n", args...)
			},
		})
		if err != nil {
			return nil, err
		}
		for id, src := range store.Sources() {
			if _, dup := sources[id]; dup {
				return nil, fmt.Errorf("duplicate cpg id %q (from %s)", id, c.cpgDir)
			}
			sources[id] = src
		}
		sopts.Store = store
		fmt.Fprintf(os.Stderr, "inspector-serve: cpgdir %s: serving %d CPG files lazily (resident budget %d bytes)\n",
			c.cpgDir, store.Len(), c.residentBudget)
	}
	for _, path := range c.cpgPaths {
		id := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		if _, dup := sources[id]; dup {
			return nil, fmt.Errorf("duplicate cpg id %q (from %s)", id, path)
		}
		a, _, err := cpgfile.Load(path)
		if err != nil {
			if c.lenient {
				fmt.Fprintf(os.Stderr, "inspector-serve: skipping cpg %v (-lenient)\n", err)
				continue
			}
			return nil, fmt.Errorf("cpg %w", err)
		}
		sources[id] = provenance.StaticSource(provenance.NewEngine(a, eopts))
	}
	if len(sources) == 0 && sopts.Ingest == nil {
		return nil, fmt.Errorf("nothing to serve (need -cpg, -cpgdir, or -ingest)")
	}
	return provenance.NewServerSources(sources, sopts), nil
}
