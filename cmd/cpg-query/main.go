// Command cpg-query runs provenance queries against a Concurrent
// Provenance Graph saved by inspector-run -cpg (the columnar .cpg
// format, internal/cpgfile), or against a running inspector-serve
// daemon.
//
// Usage:
//
//	cpg-query -cpg run.cpg stats
//	cpg-query -cpg run.cpg verify
//	cpg-query -cpg run.cpg [-format json] slice T1.3
//	cpg-query -cpg run.cpg [-format json] taint T0.0
//	cpg-query -cpg run.cpg lineage <page> T1.3
//	cpg-query -cpg run.cpg [-format json] edges [control|sync|data]
//	cpg-query -cpg run.cpg [-format json] path T0.0 T1.3
//	cpg-query -remote http://localhost:7070 [-id run] slice T1.3
//	cpg-query -remote http://localhost:7070 [-id run] watch
//
// watch follows a live or ingested CPG's epoch push: it long-polls
// GET /v1/cpgs/{id}/epochs, prints one line per epoch advance, and
// exits when the source closes (the run finished or the stream was
// sealed). Remote only — a local file has no epochs to push.
//
// path prints one dependency chain between two sub-computations — the
// "why does B depend on A" debugging query of the paper's §VIII case
// studies. -format json switches any subcommand's output to JSON for
// downstream tooling.
//
// Every subcommand is a thin rendering of one provenance.Query: with
// -cpg the query executes in process (local engine), with -remote it is
// sent to an inspector-serve daemon speaking the same provenance/v1
// wire format, and the two modes produce identical bytes. -id selects
// the graph when the daemon serves several (defaults to the only one).
//
// Exit codes: 0 success, 1 query error (unreadable graph, failed
// verification, no dependency chain, server error), 2 usage error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/provenance"
)

// newFlagSet builds the command's flag set.
func newFlagSet() *flag.FlagSet {
	return flag.NewFlagSet("cpg-query", flag.ContinueOnError)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cpg-query:", err)
		os.Exit(exitCode(err))
	}
}

// usageError marks errors in how the command was invoked, as opposed to
// errors answering a well-formed query.
type usageError struct{ err error }

func (u *usageError) Error() string { return u.err.Error() }
func (u *usageError) Unwrap() error { return u.err }

// usagef builds a usageError.
func usagef(format string, args ...any) error {
	return &usageError{err: fmt.Errorf(format, args...)}
}

// exitCode maps an error to the process exit status: 2 for usage
// errors, 1 for query errors, 0 for success.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	var u *usageError
	if errors.As(err, &u) {
		return 2
	}
	return 1
}

// writeJSON renders v the way every JSON subcommand always has.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// printEdges renders an edge list in the selected format.
func printEdges(w io.Writer, edges []provenance.Edge, asJSON bool) error {
	if asJSON {
		return writeJSON(w, append([]provenance.Edge{}, edges...)) // [] when empty
	}
	for _, e := range edges {
		switch e.Kind {
		case "sync":
			fmt.Fprintf(w, "%v -> %v [%v via %s]\n", e.From, e.To, e.Kind, e.Object)
		case "data":
			fmt.Fprintf(w, "%v -> %v [%v pages=%v]\n", e.From, e.To, e.Kind, e.Pages)
		default:
			fmt.Fprintf(w, "%v -> %v [%v]\n", e.From, e.To, e.Kind)
		}
	}
	return nil
}

// printIDs renders a sub-computation list in the selected format.
func printIDs(w io.Writer, ids []string, asJSON bool) error {
	if asJSON {
		return writeJSON(w, append([]string{}, ids...)) // [] when empty
	}
	for _, id := range ids {
		fmt.Fprintln(w, id)
	}
	return nil
}

func run(args []string, w io.Writer) error {
	fs := newFlagSet()
	cpgPath := fs.String("cpg", "", ".cpg file written by inspector-run -cpg")
	format := fs.String("format", "text", "output format: text|json")
	remote := fs.String("remote", "", "inspector-serve base URL (query remotely instead of -cpg)")
	cpgID := fs.String("id", "", "served CPG id for -remote (defaults to the only one)")
	if err := fs.Parse(args); err != nil {
		return &usageError{err: err}
	}
	if (*cpgPath == "" && *remote == "") || fs.NArg() < 1 {
		return usagef("usage: cpg-query {-cpg file.cpg | -remote url [-id cpg]} [-format json] <stats|verify|slice|taint|lineage|edges|path|watch> [args]")
	}
	asJSON := false
	switch *format {
	case "text":
	case "json":
		asJSON = true
	default:
		return usagef("unknown format %q (want text or json)", *format)
	}

	if fs.Arg(0) == "watch" {
		if *remote == "" {
			return usagef("watch follows a live server; use -remote, not -cpg")
		}
		if fs.NArg() != 1 {
			return usagef("usage: cpg-query -remote url [-id cpg] watch")
		}
		return runWatch(context.Background(), *remote, *cpgID, w, asJSON)
	}
	q, err := buildQuery(fs.Arg(0), fs.Args()[1:])
	if err != nil {
		return err
	}

	ctx := context.Background()
	var res *provenance.Result
	if *remote != "" {
		res, err = runRemote(ctx, *remote, *cpgID, q)
	} else {
		res, err = runLocal(ctx, *cpgPath, q)
	}
	if err != nil {
		return err
	}
	return render(w, q, res, asJSON)
}

// buildQuery translates one subcommand invocation into a provenance
// Query, validating arguments up front so malformed invocations fail as
// usage errors in both local and remote mode.
func buildQuery(cmd string, args []string) (provenance.Query, error) {
	switch cmd {
	case "stats":
		return provenance.Query{Kind: provenance.KindStats}, nil
	case "verify":
		return provenance.Query{Kind: provenance.KindVerify}, nil
	case "slice", "taint":
		if len(args) < 1 {
			return provenance.Query{}, usagef("usage: cpg-query %s <subID>", cmd)
		}
		if _, err := provenance.ParseSubID(args[0]); err != nil {
			return provenance.Query{}, &usageError{err: err}
		}
		kind := provenance.KindSlice
		if cmd == "taint" {
			kind = provenance.KindTaint
		}
		return provenance.Query{Kind: kind, Target: args[0]}, nil
	case "lineage":
		if len(args) < 2 {
			return provenance.Query{}, usagef("usage: cpg-query lineage <page> <subID>")
		}
		page, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return provenance.Query{}, usagef("bad page %q: %v", args[0], err)
		}
		if _, err := provenance.ParseSubID(args[1]); err != nil {
			return provenance.Query{}, &usageError{err: err}
		}
		return provenance.Query{Kind: provenance.KindLineage, Page: &page, Target: args[1]}, nil
	case "edges":
		q := provenance.Query{Kind: provenance.KindEdges}
		if len(args) > 0 {
			if _, err := provenance.ParseEdgeKind(args[0]); err != nil {
				return provenance.Query{}, usagef("unknown edge kind %q", args[0])
			}
			q.EdgeKinds = []string{args[0]}
		}
		return q, nil
	case "path":
		if len(args) < 2 {
			return provenance.Query{}, usagef("usage: cpg-query path <fromID> <toID>")
		}
		for _, arg := range args[:2] {
			if _, err := provenance.ParseSubID(arg); err != nil {
				return provenance.Query{}, &usageError{err: err}
			}
		}
		return provenance.Query{Kind: provenance.KindPath, From: args[0], To: args[1]}, nil
	default:
		return provenance.Query{}, usagef("unknown command %q", cmd)
	}
}

// runLocal executes the query in process over a local .cpg file.
func runLocal(ctx context.Context, cpgPath string, q provenance.Query) (*provenance.Result, error) {
	a, _, err := cpgfile.Load(cpgPath)
	if err != nil {
		return nil, err
	}
	eng := provenance.NewEngine(a, provenance.EngineOptions{})
	return eng.Execute(ctx, q)
}

// runRemote sends the query to an inspector-serve daemon, following the
// cursor chain so the rendered output covers the full result set even
// when the server caps page sizes.
func runRemote(ctx context.Context, baseURL, id string, q provenance.Query) (*provenance.Result, error) {
	// A few retries ride out a daemon that is draining or shedding load
	// (503 + Retry-After) without the caller scripting a retry loop.
	c := &provenance.Client{BaseURL: baseURL, MaxRetries: 3}
	id, err := resolveID(ctx, c, id)
	if err != nil {
		return nil, err
	}
	res, err := c.Query(ctx, id, q)
	if err != nil {
		return nil, err
	}
	for res.NextCursor != "" {
		q.Cursor = res.NextCursor
		next, err := c.Query(ctx, id, q)
		if err != nil {
			return nil, err
		}
		res.IDs = append(res.IDs, next.IDs...)
		res.Edges = append(res.Edges, next.Edges...)
		res.Lineages = append(res.Lineages, next.Lineages...)
		res.NextCursor = next.NextCursor
	}
	return res, nil
}

// resolveID picks the served CPG when the daemon hosts exactly one and
// the caller named none.
func resolveID(ctx context.Context, c *provenance.Client, id string) (string, error) {
	if id != "" {
		return id, nil
	}
	cpgs, err := c.List(ctx)
	if err != nil {
		return "", err
	}
	if len(cpgs) != 1 {
		ids := make([]string, len(cpgs))
		for i, info := range cpgs {
			ids[i] = info.ID
		}
		return "", fmt.Errorf("server hosts %d CPGs %v; pick one with -id", len(cpgs), ids)
	}
	return cpgs[0].ID, nil
}

// runWatch follows one CPG's epoch push until the source closes: one
// line per advance, so a shell pipeline can react to new epochs as the
// remote run records them.
func runWatch(ctx context.Context, baseURL, id string, w io.Writer, asJSON bool) error {
	c := &provenance.Client{BaseURL: baseURL, MaxRetries: 3}
	id, err := resolveID(ctx, c, id)
	if err != nil {
		return err
	}
	report := func(st *provenance.EpochStatus) error {
		if asJSON {
			return writeJSON(w, st)
		}
		if st.Closed {
			fmt.Fprintf(w, "closed (final epoch %d)\n", st.Epoch)
		} else {
			fmt.Fprintf(w, "epoch %d\n", st.Epoch)
		}
		return nil
	}
	st, err := c.WaitEpoch(ctx, id, 0, 0)
	if err != nil {
		return err
	}
	if err := report(st); err != nil {
		return err
	}
	for !st.Closed {
		// 25s keeps each poll under the server's 30s watch cap, so a
		// quiet source answers with its current epoch instead of a
		// proxy-killed connection.
		next, err := c.WaitEpoch(ctx, id, st.Epoch+1, 25*time.Second)
		if err != nil {
			return err
		}
		if next.Epoch > st.Epoch || next.Closed {
			if err := report(next); err != nil {
				return err
			}
		}
		st = next
	}
	return nil
}

// render writes one result in the exact shapes the subcommands have
// always printed.
func render(w io.Writer, q provenance.Query, res *provenance.Result, asJSON bool) error {
	switch res.Kind {
	case provenance.KindStats:
		st := res.Stats
		if st == nil {
			return errors.New("malformed stats result")
		}
		if asJSON {
			doc := map[string]any{
				"sub_computations": st.SubComputations,
				"threads":          st.Threads,
				"thunks":           st.Thunks,
				"read_set_pages":   st.ReadSetPages,
				"write_set_pages":  st.WriteSetPages,
				"control_edges":    st.ControlEdges,
				"sync_edges":       st.SyncEdges,
				"data_edges":       st.DataEdges,
			}
			// Live (epoch > 0) answers say which epoch they describe, and
			// degraded graphs carry their loss summary; post-mortem output
			// for complete recordings is byte-identical to what it always
			// was.
			if res.Epoch > 0 {
				doc["epoch"] = res.Epoch
			}
			if res.Degraded {
				doc["degraded"] = true
				doc["gap_threads"] = st.GapThreads
				doc["gap_intervals"] = st.GapIntervals
				doc["lost_trace_bytes"] = st.LostTraceBytes
			}
			return writeJSON(w, doc)
		}
		fmt.Fprintf(w, "sub-computations: %d across %d threads\n", st.SubComputations, st.Threads)
		fmt.Fprintf(w, "thunks:           %d\n", st.Thunks)
		fmt.Fprintf(w, "read-set pages:   %d   write-set pages: %d\n", st.ReadSetPages, st.WriteSetPages)
		fmt.Fprintf(w, "edges:            %d control, %d sync, %d data\n",
			st.ControlEdges, st.SyncEdges, st.DataEdges)
		if res.Epoch > 0 {
			fmt.Fprintf(w, "epoch:            %d (live analysis)\n", res.Epoch)
		}
		if res.Degraded {
			fmt.Fprintf(w, "trace gaps:       %d intervals on %d threads, %d bytes lost (degraded)\n",
				st.GapIntervals, st.GapThreads, st.LostTraceBytes)
		}
		return nil

	case provenance.KindVerify:
		if res.Valid == nil {
			return errors.New("malformed verify result")
		}
		if !*res.Valid {
			// Distinguish "the invariant is violated" from "its witnesses
			// fall inside a trace gap": the latter is a property of a
			// degraded recording, not a wrong graph, and exits 0.
			if res.Degraded && strings.Contains(res.Detail, "unverifiable") {
				if asJSON {
					return writeJSON(w, map[string]any{"valid": false, "unverifiable": true, "detail": res.Detail})
				}
				fmt.Fprintf(w, "CPG unverifiable across a trace gap: %s\n", res.Detail)
				return nil
			}
			return errors.New(res.Detail)
		}
		if asJSON {
			return writeJSON(w, map[string]bool{"valid": true})
		}
		fmt.Fprintln(w, "CPG is a valid happens-before DAG")
		return nil

	case provenance.KindSlice, provenance.KindTaint:
		return printIDs(w, res.IDs, asJSON)

	case provenance.KindEdges:
		return printEdges(w, res.Edges, asJSON)

	case provenance.KindPath:
		if len(res.Edges) == 0 {
			return fmt.Errorf("no dependency chain %v -> %v (%v does not depend on %v)",
				q.From, q.To, q.To, q.From)
		}
		return printEdges(w, res.Edges, asJSON)

	case provenance.KindLineage:
		if asJSON {
			type lineageJSON struct {
				Page     uint64   `json:"page"`
				Reader   string   `json:"reader"`
				Writer   string   `json:"writer"`
				Upstream []string `json:"upstream,omitempty"`
			}
			out := make([]lineageJSON, 0, len(res.Lineages))
			for _, l := range res.Lineages {
				out = append(out, lineageJSON{Page: l.Page, Reader: l.Reader, Writer: l.Writer, Upstream: l.Upstream})
			}
			return writeJSON(w, out)
		}
		if len(res.Lineages) == 0 {
			fmt.Fprintln(w, "no recorded writer for that page at that vertex")
			return nil
		}
		for _, l := range res.Lineages {
			fmt.Fprintf(w, "page %d read by %v was written by %v", l.Page, l.Reader, l.Writer)
			if len(l.Upstream) > 0 {
				fmt.Fprintf(w, " (upstream sources: %s)", strings.Join(l.Upstream, ", "))
			}
			fmt.Fprintln(w)
		}
		return nil

	default:
		return fmt.Errorf("unexpected result kind %q", res.Kind)
	}
}
