package core

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/repro/inspector/internal/vclock"
	"github.com/repro/inspector/internal/vtime"
	"github.com/repro/inspector/internal/wire"
)

// MarshalJSON renders a PageSet as a sorted array of page IDs.
func (s PageSet) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.Sorted())
}

// The wire types below are the rendered form of the graph: the JSON and
// DOT exports are for people and downstream tools, nothing here reads
// them back (the snapshot a run is reloaded from is the .cpg file,
// internal/cpgfile). They mirror the in-memory structures field for
// field but materialize every interned ref as its string — refs are
// process-local, strings are the contract. Field names and order
// reproduce the pre-columnar export exactly, so the JSON artifacts are
// byte-identical to the seed implementation's.

// wireThunk is the serialized Thunk, with materialized site labels.
type wireThunk struct {
	Index        uint64
	Site         string
	Taken        bool
	Indirect     bool
	Target       string
	Instructions uint64
}

// wireSyncEvent is the serialized SyncEvent, with a materialized object
// name.
type wireSyncEvent struct {
	Kind   SyncOpKind
	Object string
}

// wireSub is the serialized SubComputation. Page sets are sorted slices
// (never nil: the JSON form renders empty sets as []); Thunks stays nil
// for branchless sub-computations (rendered as null).
type wireSub struct {
	ID            SubID
	Clock         vclock.Clock
	ReadSet       []uint64
	WriteSet      []uint64
	Thunks        []wireThunk
	End           wireSyncEvent
	Start, Finish vtime.Cycles
	Instructions  uint64
}

// Dump is the serializable form of a Graph.
type Dump struct {
	Threads   int
	Subs      []*wireSub
	SyncEdges []Edge
	// Gaps records per-thread trace-loss intervals. Nil for complete
	// recordings, which keeps the JSON artifact byte-identical to the
	// pre-gap format (omitempty) — only degraded graphs carry the field.
	Gaps []ThreadGaps `json:",omitempty"`
}

// Dump extracts the graph's full state in wire form. A restored graph's
// thunk column is decoded here, one vertex's list at a time, into this
// Dump only: nothing is cached on the graph, so concurrent renders share
// no state. The error reports a column that does not load or parse.
func (g *Graph) Dump() (*Dump, error) {
	subs := g.Subs()
	var col wire.Cursor
	if g.column != nil {
		b, err := g.column.bytes()
		if err != nil {
			return nil, err
		}
		col = wire.NewCursor(b)
	}
	out := make([]*wireSub, len(subs))
	for i, sc := range subs {
		ws := &wireSub{
			ID:           sc.ID,
			Clock:        sc.Clock,
			ReadSet:      sc.ReadSet.Sorted(),
			WriteSet:     sc.WriteSet.Sorted(),
			End:          wireSyncEvent{Kind: sc.End.Kind, Object: g.ObjectName(sc.End.Object)},
			Start:        sc.Start,
			Finish:       sc.Finish,
			Instructions: sc.Instructions,
		}
		path, n := sc.path, sc.NumThunks()
		if g.column != nil {
			var b []byte
			b, n, _ = walkThunks(&col)
			path = string(b)
		}
		if n > 0 {
			ws.Thunks = make([]wireThunk, 0, n)
			thunksIn(path, func(_ int, th Thunk) bool {
				ws.Thunks = append(ws.Thunks, wireThunk{
					Index:        th.Index,
					Site:         g.SiteName(th.Site),
					Taken:        th.Taken,
					Indirect:     th.Indirect,
					Target:       g.SiteName(th.Target),
					Instructions: th.Instructions,
				})
				return true
			})
		}
		out[i] = ws
	}
	if g.column != nil {
		if err := col.Done(); err != nil {
			return nil, fmt.Errorf("core: restored thunk column: %w", err)
		}
	}
	return &Dump{
		Threads:   g.Threads(),
		Subs:      out,
		SyncEdges: g.SyncEdges(),
		Gaps:      g.Gaps(),
	}, nil
}

// EncodeJSON renders the graph as JSON (for debugging and downstream
// tools).
func (g *Graph) EncodeJSON(w io.Writer) error {
	d, err := g.Dump()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("core: encode CPG json: %w", err)
	}
	return nil
}

// WriteDOT renders the analyzed CPG in Graphviz DOT form: one cluster
// per thread, solid edges for program order, dashed for schedule
// dependencies, bold for data dependencies. It draws a.Subs() and the
// edges AllEdges yields, the prefix and the edges every query of a
// sees.
func (a *Analysis) WriteDOT(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("digraph CPG {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n")
	// a.Subs() is in (thread, alpha) order: each thread's vertices are
	// one run, drawn as one cluster.
	cur := -1
	for _, sc := range a.Subs() {
		if t := sc.ID.Thread; t != cur {
			if cur >= 0 {
				p("  }\n")
			}
			cur = t
			p("  subgraph cluster_t%d {\n    label=\"thread %d\";\n", t, t)
		}
		p("    %q [label=\"%s\\nR:%d W:%d\\nend:%s %s\"];\n",
			sc.ID.String(), sc.ID.String(),
			sc.ReadSet.Len(), sc.WriteSet.Len(),
			sc.End.Kind, a.g.ObjectName(sc.End.Object))
	}
	if cur >= 0 {
		p("  }\n")
	}
	for e := range a.AllEdges {
		switch e.Kind {
		case EdgeControl:
			p("  %q -> %q;\n", e.From.String(), e.To.String())
		case EdgeSync:
			p("  %q -> %q [style=dashed, label=%q];\n", e.From.String(), e.To.String(), e.Object)
		case EdgeData:
			p("  %q -> %q [style=bold, color=blue, label=\"%d pages\"];\n",
				e.From.String(), e.To.String(), len(e.Pages))
		}
	}
	p("}\n")
	if err != nil {
		return fmt.Errorf("core: write DOT: %w", err)
	}
	return nil
}
