package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/repro/inspector/internal/vclock"
	"github.com/repro/inspector/internal/vtime"
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

// Dump extracts the graph's full state in wire form.
func (g *Graph) Dump() *Dump {
	subs := g.Subs()
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
		if len(sc.Thunks) > 0 {
			ws.Thunks = make([]wireThunk, len(sc.Thunks))
			for j, th := range sc.Thunks {
				ws.Thunks[j] = wireThunk{
					Index:        th.Index,
					Site:         g.SiteName(th.Site),
					Taken:        th.Taken,
					Indirect:     th.Indirect,
					Target:       g.SiteName(th.Target),
					Instructions: th.Instructions,
				}
			}
		}
		out[i] = ws
	}
	return &Dump{
		Threads:   g.Threads(),
		Subs:      out,
		SyncEdges: g.SyncEdges(),
		Gaps:      g.Gaps(),
	}
}

// EncodeJSON renders the graph as JSON (for debugging and downstream
// tools).
func (g *Graph) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(g.Dump()); err != nil {
		return fmt.Errorf("core: encode CPG json: %w", err)
	}
	return nil
}

// WriteDOT renders the CPG in Graphviz DOT form: one cluster per thread,
// solid edges for program order, dashed for schedule dependencies,
// bold for data dependencies.
func (g *Graph) WriteDOT(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("digraph CPG {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n")
	threads := make(map[int][]*SubComputation)
	for _, sc := range g.Subs() {
		threads[sc.ID.Thread] = append(threads[sc.ID.Thread], sc)
	}
	var order []int
	for t := range threads {
		order = append(order, t)
	}
	sort.Ints(order)
	for _, t := range order {
		p("  subgraph cluster_t%d {\n    label=\"thread %d\";\n", t, t)
		for _, sc := range threads[t] {
			p("    %q [label=\"%s\\nR:%d W:%d\\nend:%s %s\"];\n",
				sc.ID.String(), sc.ID.String(),
				sc.ReadSet.Len(), sc.WriteSet.Len(),
				sc.End.Kind, g.ObjectName(sc.End.Object))
		}
		p("  }\n")
	}
	for _, e := range g.Edges() {
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
