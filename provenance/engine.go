package provenance

import (
	"context"
	"sync"

	"github.com/repro/inspector/internal/core"
)

// EngineOptions configure an Engine.
type EngineOptions struct {
	// MaxResults caps the page size of any listing result (ids, edges,
	// lineages). 0 means unlimited. A Query.Limit above the cap is
	// clamped to it; results beyond the page are reachable through the
	// cursor.
	MaxResults int

	// FoldWorkerHook, when set, runs at the start of every fold
	// derivation worker of a LiveEngine with the worker's index (fault
	// injection: the slow-fold point fires here). A panic escaping the
	// hook surfaces like any fold panic — the last good epoch stays
	// served. Engines over completed analyses ignore it.
	FoldWorkerHook func(worker int)
}

// Engine executes Queries against one completed Analysis. It performs
// only reads, so one Engine serves any number of concurrent goroutines —
// the property inspector-serve builds on.
type Engine struct {
	a    *core.Analysis
	opts EngineOptions

	// statsOnce caches the graph summary: the Analysis is immutable, so
	// repeated stats queries (monitoring clients poll them) cost O(1)
	// after the first.
	statsOnce sync.Once
	statsVal  Stats
}

// NewEngine wraps an Analysis, which is immutable: it answers for the
// prefix it was built over and never sees later recording. A graph still
// being recorded is served through a Feed that publishes one Engine per
// folded epoch (NewLiveEngine), not by re-analyzing per query.
func NewEngine(a *core.Analysis, opts EngineOptions) *Engine {
	return &Engine{a: a, opts: opts}
}

// Analysis returns the wrapped Analysis.
func (e *Engine) Analysis() *core.Analysis { return e.a }

// Epoch returns the analysis epoch this engine serves: 0 for a
// post-mortem batch analysis, ≥ 1 for a live fold (see LiveEngine).
func (e *Engine) Epoch() uint64 { return e.a.Epoch() }

// Execute answers one query. Malformed queries fail with an error
// wrapping ErrBadQuery; a canceled or expired context surfaces as that
// context's error with the traversal stopped early.
func (e *Engine) Execute(ctx context.Context, q Query) (*Result, error) {
	res := &Result{Version: Version, Kind: q.Kind, Epoch: e.a.Epoch(), Degraded: e.a.Degraded()}
	offset, err := decodeCursor(q.Cursor)
	if err != nil {
		return nil, err
	}
	kinds, err := parseEdgeKinds(q.EdgeKinds)
	if err != nil {
		return nil, err
	}

	switch q.Kind {
	case KindStats:
		st := e.stats() // a copy: callers must not reach the cache
		res.Stats = &st
		res.Total = 1

	case KindVerify:
		valid := true
		if err := e.a.VerifyCtx(ctx); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			valid = false
			res.Detail = err.Error()
		}
		res.Valid = &valid
		res.Total = 1

	case KindEdges:
		// Filter on the core representation and materialize wire form
		// (string conversions) only for the returned page, so paging
		// through a huge listing costs one scan per page, not one full
		// re-materialization.
		var matched []core.Edge
		for _, edge := range e.a.Edges() {
			if !edgeKindIn(edge.Kind, kinds) || !q.matchEdge(edge) {
				continue
			}
			matched = append(matched, edge)
		}
		res.Total = len(matched)
		page, next := paginate(matched, offset, e.pageLimit(q.Limit))
		res.Edges, res.NextCursor = wireEdges(page), next

	case KindSlice, KindTaint:
		id, err := requireSubID(q.Target, "target")
		if err != nil {
			return nil, err
		}
		var ids []core.SubID
		if q.Kind == KindSlice {
			ids, err = e.a.AncestorsCtx(ctx, id, kinds...)
		} else {
			// Taint is forward *data* flow by definition; the kind
			// filter does not apply.
			ids, err = e.a.TaintedByCtx(ctx, id)
		}
		if err != nil {
			return nil, err
		}
		matched := ids[:0:0]
		for _, id := range ids {
			if q.matchID(id) {
				matched = append(matched, id)
			}
		}
		res.Total = len(matched)
		page, next := paginate(matched, offset, e.pageLimit(q.Limit))
		out := make([]string, len(page))
		for i, id := range page {
			out[i] = id.String()
		}
		if len(out) == 0 {
			out = nil
		}
		res.IDs, res.NextCursor = out, next

	case KindLineage:
		id, err := requireSubID(q.Target, "target")
		if err != nil {
			return nil, err
		}
		if q.Page == nil {
			return nil, badQueryf("lineage query needs a page")
		}
		lins, err := e.a.PageLineageCtx(ctx, *q.Page, id)
		if err != nil {
			return nil, err
		}
		res.Total = len(lins)
		page, next := paginate(lins, offset, e.pageLimit(q.Limit))
		out := make([]LineageEntry, 0, len(page))
		for _, l := range page {
			entry := LineageEntry{
				Page:      l.Page,
				Reader:    q.Target,
				Writer:    l.Writer.String(),
				ViaObject: l.ViaObject,
			}
			for _, u := range l.Upstream {
				entry.Upstream = append(entry.Upstream, u.String())
			}
			out = append(out, entry)
		}
		if len(out) == 0 {
			out = nil
		}
		res.Lineages, res.NextCursor = out, next

	case KindPath:
		from, err := requireSubID(q.From, "from")
		if err != nil {
			return nil, err
		}
		to, err := requireSubID(q.To, "to")
		if err != nil {
			return nil, err
		}
		chain, err := e.a.PathCtx(ctx, from, to, kinds...)
		if err != nil {
			return nil, err
		}
		res.Total = len(chain)
		page, next := paginate(chain, offset, e.pageLimit(q.Limit))
		res.Edges, res.NextCursor = wireEdges(page), next

	default:
		return nil, badQueryf("unknown query kind %q", q.Kind)
	}
	return res, nil
}

// stats summarizes the wrapped graph (the same aggregation the stats
// subcommand always printed), computed once and cached — the Analysis
// never changes.
func (e *Engine) stats() Stats {
	e.statsOnce.Do(func() { e.statsVal = Stats(e.a.Stats()) })
	return e.statsVal
}

// pageLimit resolves a query's limit against the engine cap. 0 means
// unlimited.
func (e *Engine) pageLimit(limit int) int {
	if limit < 0 {
		limit = 0
	}
	if e.opts.MaxResults > 0 && (limit == 0 || limit > e.opts.MaxResults) {
		return e.opts.MaxResults
	}
	return limit
}

// paginate slices one page out of the deterministic full sequence and
// returns the cursor to the next page ("" on the last).
func paginate[T any](items []T, offset, limit int) ([]T, string) {
	if offset >= len(items) {
		return nil, ""
	}
	items = items[offset:]
	if limit <= 0 || len(items) <= limit {
		return items, ""
	}
	return items[:limit], encodeCursor(offset + limit)
}

// requireSubID parses a mandatory SubID field.
func requireSubID(s, field string) (core.SubID, error) {
	if s == "" {
		return core.SubID{}, badQueryf("missing %s sub-computation id", field)
	}
	id, err := ParseSubID(s)
	if err != nil {
		return core.SubID{}, badQueryf("%v", err)
	}
	return id, nil
}

// parseEdgeKinds maps the wire names to core kinds.
func parseEdgeKinds(names []string) ([]core.EdgeKind, error) {
	if len(names) == 0 {
		return nil, nil
	}
	out := make([]core.EdgeKind, 0, len(names))
	for _, n := range names {
		k, err := ParseEdgeKind(n)
		if err != nil {
			return nil, badQueryf("%v", err)
		}
		out = append(out, k)
	}
	return out, nil
}

// edgeKindIn reports whether k passes the kind filter (empty = all).
func edgeKindIn(k core.EdgeKind, kinds []core.EdgeKind) bool {
	if len(kinds) == 0 {
		return true
	}
	for _, want := range kinds {
		if k == want {
			return true
		}
	}
	return false
}

// hasVertexFilter reports whether the query constrains vertices.
func (q *Query) hasVertexFilter() bool {
	return q.Thread != nil || q.AlphaMin != nil || q.AlphaMax != nil
}

// matchID applies the thread/alpha-window filter to one vertex.
func (q *Query) matchID(id core.SubID) bool {
	if q.Thread != nil && id.Thread != *q.Thread {
		return false
	}
	if q.AlphaMin != nil && id.Alpha < *q.AlphaMin {
		return false
	}
	if q.AlphaMax != nil && id.Alpha > *q.AlphaMax {
		return false
	}
	return true
}

// matchEdge applies the vertex filter (an edge passes when either
// endpoint does) and the page window (data edges carrying a page inside
// it; edges without pages drop when a window is set).
func (q *Query) matchEdge(e core.Edge) bool {
	if q.hasVertexFilter() && !q.matchID(e.From) && !q.matchID(e.To) {
		return false
	}
	if q.PageMin != nil || q.PageMax != nil {
		hit := false
		for _, p := range e.Pages {
			if (q.PageMin == nil || p >= *q.PageMin) && (q.PageMax == nil || p <= *q.PageMax) {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// wireEdge converts a core edge to wire form.
func wireEdge(e core.Edge) Edge {
	return Edge{
		From:   e.From.String(),
		To:     e.To.String(),
		Kind:   e.Kind.String(),
		Object: e.Object,
		Pages:  e.Pages,
	}
}

// wireEdges converts one result page (nil in, nil out, so empty pages
// keep omitting the field on the wire).
func wireEdges(edges []core.Edge) []Edge {
	if len(edges) == 0 {
		return nil
	}
	out := make([]Edge, len(edges))
	for i, e := range edges {
		out[i] = wireEdge(e)
	}
	return out
}
