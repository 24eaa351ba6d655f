package provenance

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/repro/inspector/internal/core"
)

// Version identifies the wire format. Every Result carries it, the HTTP
// API serves under the /v1 prefix, and clients reject responses from a
// different major version.
const Version = "provenance/v1"

// Kind selects what a Query asks.
type Kind string

// Query kinds.
const (
	// KindEdges lists CPG edges, optionally filtered.
	KindEdges Kind = "edges"
	// KindSlice is the backward program slice of Target (§VIII
	// debugging): everything that may have affected it.
	KindSlice Kind = "slice"
	// KindTaint is forward information flow from Target (§VIII DIFT):
	// everything that transitively consumed its writes.
	KindTaint Kind = "taint"
	// KindLineage explains a page read: the writers of Page visible to
	// Target and their upstream data sources.
	KindLineage Kind = "lineage"
	// KindPath returns one shortest dependency chain From -> To.
	KindPath Kind = "path"
	// KindStats summarizes the graph (vertex/edge/page-set counts).
	KindStats Kind = "stats"
	// KindVerify checks the CPG's structural invariants.
	KindVerify Kind = "verify"
)

// ErrBadQuery tags validation failures: the query itself is malformed
// (unknown kind, missing target, bad cursor). The HTTP server maps it to
// 400; everything else is an execution error.
var ErrBadQuery = errors.New("provenance: bad query")

// badQueryf wraps ErrBadQuery with detail.
func badQueryf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadQuery, fmt.Sprintf(format, args...))
}

// Query is one provenance question in wire form (provenance/v1). The
// zero value of every optional field means "no constraint"; pointers
// distinguish "unset" from a meaningful zero (thread 0, page 0).
type Query struct {
	// Kind selects the question.
	Kind Kind `json:"kind"`

	// Target is the subject sub-computation ("T<thread>.<alpha>") for
	// slice, taint, and lineage queries.
	Target string `json:"target,omitempty"`
	// From and To bound a path query.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Page is the page a lineage query asks about.
	Page *uint64 `json:"page,omitempty"`

	// EdgeKinds restricts the edge kinds considered ("control", "sync",
	// "data"). Empty means all. For slice and path it restricts the
	// traversal; for edges it filters the listing. Taint ignores it:
	// forward taint is data-edge flow by definition.
	EdgeKinds []string `json:"edge_kinds,omitempty"`
	// Thread restricts results to one thread: IDs on that thread, edges
	// touching it.
	Thread *int `json:"thread,omitempty"`
	// AlphaMin/AlphaMax window the sub-computation index: IDs inside the
	// window, edges with an endpoint inside it.
	AlphaMin *uint64 `json:"alpha_min,omitempty"`
	AlphaMax *uint64 `json:"alpha_max,omitempty"`
	// PageMin/PageMax keep only data edges carrying a page in the
	// window (control and sync edges carry no pages and are dropped
	// when a page window is set). Ignored for ID results.
	PageMin *uint64 `json:"page_min,omitempty"`
	PageMax *uint64 `json:"page_max,omitempty"`

	// Limit caps the result page size. 0 means the engine's MaxResults
	// (unlimited if that is 0 too); the engine clamps to MaxResults.
	Limit int `json:"limit,omitempty"`
	// Cursor resumes a paginated listing where the previous Result's
	// NextCursor left off. Opaque; valid only for the same query shape
	// against the same Analysis.
	Cursor string `json:"cursor,omitempty"`
}

// Edge is one CPG edge in wire form.
type Edge struct {
	From   string   `json:"from"`
	To     string   `json:"to"`
	Kind   string   `json:"kind"`
	Object string   `json:"object,omitempty"`
	Pages  []uint64 `json:"pages,omitempty"`
}

// LineageEntry is one provenance explanation for a page read.
type LineageEntry struct {
	Page      uint64   `json:"page"`
	Reader    string   `json:"reader"`
	Writer    string   `json:"writer"`
	Upstream  []string `json:"upstream,omitempty"`
	ViaObject string   `json:"via_object,omitempty"`
}

// Stats summarizes one graph. The gap fields are additive and omitted
// (zero) for complete recordings, so documents for lossless runs are
// byte-identical to what pre-degradation consumers pinned.
type Stats struct {
	SubComputations int `json:"sub_computations"`
	Threads         int `json:"threads"`
	Thunks          int `json:"thunks"`
	ReadSetPages    int `json:"read_set_pages"`
	WriteSetPages   int `json:"write_set_pages"`
	ControlEdges    int `json:"control_edges"`
	SyncEdges       int `json:"sync_edges"`
	DataEdges       int `json:"data_edges"`
	// GapThreads / GapIntervals / LostTraceBytes summarize trace loss:
	// how many threads carry gaps, the total gap interval count, and the
	// trace bytes the PT layer reported lost. All zero (omitted) for a
	// complete recording.
	GapThreads     int    `json:"gap_threads,omitempty"`
	GapIntervals   int    `json:"gap_intervals,omitempty"`
	LostTraceBytes uint64 `json:"lost_trace_bytes,omitempty"`
}

// Result is the answer to one Query, in wire form (provenance/v1).
// Exactly one of the payload fields is populated, matching Kind.
type Result struct {
	// Version is always "provenance/v1".
	Version string `json:"version"`
	// Kind echoes the query.
	Kind Kind `json:"kind"`
	// Epoch identifies the analysis prefix the result was computed over:
	// 0 (omitted on the wire) for a post-mortem batch analysis, ≥ 1 for
	// an epoch of a live, still-recording execution. The field is
	// additive and backward compatible — provenance/v1 consumers that
	// predate it see the same documents for post-mortem graphs. Cursors
	// are only valid against the epoch that issued them; a client that
	// sees the epoch advance between pages should restart the listing.
	Epoch uint64 `json:"epoch,omitempty"`
	// Degraded marks results computed over a graph with trace-loss gaps:
	// the answer is sound for what was recorded, but dependencies inside
	// a gap are invisible. Omitted (false) for complete recordings, so
	// lossless documents are unchanged on the wire.
	Degraded bool `json:"degraded,omitempty"`

	// IDs answers slice and taint queries, ordered by (thread, alpha).
	IDs []string `json:"ids,omitempty"`
	// Edges answers edges and path queries. For path it is one
	// continuous chain (empty when no chain exists).
	Edges []Edge `json:"edges,omitempty"`
	// Lineages answers lineage queries.
	Lineages []LineageEntry `json:"lineages,omitempty"`
	// Stats answers stats queries.
	Stats *Stats `json:"stats,omitempty"`
	// Valid answers verify queries; Detail carries the violated
	// invariant when false.
	Valid  *bool  `json:"valid,omitempty"`
	Detail string `json:"detail,omitempty"`

	// Total counts the full (post-filter, pre-pagination) result set.
	Total int `json:"total"`
	// NextCursor resumes the listing when the page was truncated; empty
	// on the final page.
	NextCursor string `json:"next_cursor,omitempty"`
}

// ParseSubID parses the wire form "T<thread>.<alpha>" of a
// sub-computation ID.
func ParseSubID(s string) (core.SubID, error) {
	if !strings.HasPrefix(s, "T") {
		return core.SubID{}, fmt.Errorf("bad sub-computation id %q (want T<thread>.<alpha>)", s)
	}
	parts := strings.SplitN(s[1:], ".", 2)
	if len(parts) != 2 {
		return core.SubID{}, fmt.Errorf("bad sub-computation id %q", s)
	}
	th, err := strconv.Atoi(parts[0])
	if err != nil {
		return core.SubID{}, fmt.Errorf("bad thread in %q: %w", s, err)
	}
	alpha, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil {
		return core.SubID{}, fmt.Errorf("bad alpha in %q: %w", s, err)
	}
	return core.SubID{Thread: th, Alpha: alpha}, nil
}

// ParseEdgeKind maps the wire name of an edge kind to its core value.
func ParseEdgeKind(s string) (core.EdgeKind, error) {
	switch s {
	case "control":
		return core.EdgeControl, nil
	case "sync":
		return core.EdgeSync, nil
	case "data":
		return core.EdgeData, nil
	default:
		return 0, fmt.Errorf("unknown edge kind %q", s)
	}
}

// cursor is the opaque pagination token: "v1:<offset>" into the
// deterministic result sequence. It stays sound because a completed
// Analysis never changes.
const cursorPrefix = "v1:"

func encodeCursor(offset int) string {
	return cursorPrefix + strconv.Itoa(offset)
}

func decodeCursor(s string) (int, error) {
	if s == "" {
		return 0, nil
	}
	rest, ok := strings.CutPrefix(s, cursorPrefix)
	if !ok {
		return 0, badQueryf("unrecognized cursor %q", s)
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, badQueryf("unrecognized cursor %q", s)
	}
	return n, nil
}
