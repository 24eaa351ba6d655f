package core

import (
	"cmp"
	"fmt"
	"strconv"
	"sync"

	"github.com/repro/inspector/internal/vclock"
	"github.com/repro/inspector/internal/vtime"
)

// SubID names a sub-computation vertex: thread slot t and index α in the
// thread's execution sequence Lt.
type SubID struct {
	Thread int
	Alpha  uint64
}

// String renders like "T2.5". Query results render one per vertex they
// name, so it appends into a stack buffer instead of going through fmt.
func (id SubID) String() string {
	var buf [48]byte
	b := append(buf[:0], 'T')
	b = strconv.AppendInt(b, int64(id.Thread), 10)
	b = append(b, '.')
	return string(strconv.AppendUint(b, id.Alpha, 10))
}

// Less orders SubIDs lexicographically (thread, then alpha).
func (id SubID) Less(other SubID) bool {
	if id.Thread != other.Thread {
		return id.Thread < other.Thread
	}
	return id.Alpha < other.Alpha
}

// Thunk is one branch-delimited instruction run within a sub-computation
// (Lt[α].∆[β]). It records the control-path decision that terminated it.
// Sites and targets are interned refs into the owning Graph's Interner
// (16 bytes of string header replaced by 4 bytes each); Graph.SiteName
// recovers the labels, and exports materialize them transparently.
type Thunk struct {
	// Index is β, the thunk counter within the sub-computation.
	Index uint64
	// Site labels the branch site that ended the thunk.
	Site SiteRef
	// Taken is the conditional outcome (conditional sites).
	Taken bool
	// Indirect marks an indirect transfer; Target names its destination
	// (ref 0, the empty string, when unresolved).
	Indirect bool
	Target   SiteRef
	// Instructions counts instructions retired within the thunk.
	Instructions uint64
}

// SyncOpKind classifies the synchronization operation that ended a
// sub-computation, in the acquire/release model of §IV.
type SyncOpKind uint8

// Synchronization operation kinds.
const (
	// SyncNone marks sub-computations ended by thread termination.
	SyncNone SyncOpKind = iota
	// SyncAcquire is lock(), sem_wait(), cond_wait() wake-up, barrier
	// departure, or thread start.
	SyncAcquire
	// SyncRelease is unlock(), sem_post(), cond_signal(), barrier
	// arrival, or thread exit.
	SyncRelease
)

// String names the kind.
func (k SyncOpKind) String() string {
	switch k {
	case SyncAcquire:
		return "acquire"
	case SyncRelease:
		return "release"
	default:
		return "none"
	}
}

// SyncEvent describes the synchronization call at a sub-computation
// boundary. Object is the interned name of the synchronization object
// (Graph.ObjectName recovers the string).
type SyncEvent struct {
	Kind   SyncOpKind
	Object ObjRef
}

// SubComputation is a CPG vertex.
type SubComputation struct {
	ID SubID
	// Clock is Lt[α].C: the thread clock captured when the
	// sub-computation started, positioning it in the partial order.
	Clock vclock.Clock
	// ReadSet and WriteSet are the page-granularity access sets.
	ReadSet  PageSet
	WriteSet PageSet
	// Thunks is the recorded control path (∆).
	Thunks []Thunk
	// End is the synchronization event that terminated it.
	End SyncEvent
	// Start and Finish are virtual times bounding the execution.
	Start, Finish vtime.Cycles
	// Instructions counts instructions retired.
	Instructions uint64
}

// EdgeKind classifies CPG edges.
type EdgeKind uint8

// Edge kinds.
const (
	// EdgeControl is intra-thread program order.
	EdgeControl EdgeKind = iota + 1
	// EdgeSync is a release -> acquire schedule dependency.
	EdgeSync
	// EdgeData is an update-use data dependency.
	EdgeData
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeControl:
		return "control"
	case EdgeSync:
		return "sync"
	case EdgeData:
		return "data"
	default:
		return "unknown"
	}
}

// Edge is one CPG edge, in query/export form: Object carries the
// materialized synchronization-object name. The in-graph sync-edge logs
// store interned refs (syncEdgeRec); edges are materialized when derived.
type Edge struct {
	From, To SubID
	Kind     EdgeKind
	// Object names the synchronization object for sync edges.
	Object string
	// Pages lists the shared pages for data edges.
	Pages []uint64
}

// syncEdgeRec is the stored form of a schedule-dependency edge.
type syncEdgeRec struct {
	From, To SubID
	Object   ObjRef
}

// graphShard holds one thread slot's vertex sequence and the sync edges
// whose acquiring side is that thread. Both are appended only by the
// owning thread's Recorder, so the shard mutex is uncontended on the
// recording path; it exists to order appends against concurrent readers
// (queries, the epoch fold). The trailing pad keeps adjacent
// shards off each other's cache lines.
type graphShard struct {
	mu        sync.RWMutex
	seq       []*SubComputation
	syncEdges []syncEdgeRec
	// gaps records intervals of trace loss on this thread (see gaps.go);
	// empty for complete recordings.
	gaps []Gap
	_    [56]byte
}

// Graph is the Concurrent Provenance Graph under construction or analysis.
// Methods are safe for concurrent use by the recording threads; each
// thread's appends touch only its own shard (the algorithm's
// decentralization property, §IV-B, reflected in the store layout).
type Graph struct {
	threads  int
	interner *Interner
	shards   []graphShard
}

// NewGraph creates an empty CPG for up to threads thread slots.
func NewGraph(threads int) *Graph {
	g := &Graph{
		threads:  threads,
		interner: NewInterner(),
		shards:   make([]graphShard, threads),
	}
	// Ref 0 is the empty string, so zero-valued SiteRef/ObjRef fields
	// materialize as "".
	g.interner.Intern("")
	return g
}

// Threads returns the thread-slot capacity.
func (g *Graph) Threads() int { return g.threads }

// InternSite interns a branch-site label (or indirect target).
func (g *Graph) InternSite(label string) SiteRef { return SiteRef(g.interner.Intern(label)) }

// SiteName returns the label for an interned site ref.
func (g *Graph) SiteName(ref SiteRef) string { return g.interner.Name(uint32(ref)) }

// InternObject interns a synchronization-object name.
func (g *Graph) InternObject(name string) ObjRef { return ObjRef(g.interner.Intern(name)) }

// ObjectName returns the name for an interned object ref.
func (g *Graph) ObjectName(ref ObjRef) string { return g.interner.Name(uint32(ref)) }

// Symbols returns the graph's symbol table in ref order (the .cpg file
// embeds it so offline consumers can resolve refs without the graph).
func (g *Graph) Symbols() []string { return g.interner.Snapshot() }

// shard returns the shard for thread t, or nil if out of range.
func (g *Graph) shard(t int) *graphShard {
	if t < 0 || t >= len(g.shards) {
		return nil
	}
	return &g.shards[t]
}

// add appends a completed sub-computation to its thread's shard. The
// recorder guarantees alphas are dense per thread. This is the EndSub
// append path: it takes only the owning shard's (uncontended) lock.
func (g *Graph) add(sc *SubComputation) error {
	sh := g.shard(sc.ID.Thread)
	if sh == nil {
		return fmt.Errorf("core: thread slot %d out of range [0,%d)", sc.ID.Thread, g.threads)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if uint64(len(sh.seq)) != sc.ID.Alpha {
		return fmt.Errorf("core: thread %d alpha %d out of order (have %d)",
			sc.ID.Thread, sc.ID.Alpha, len(sh.seq))
	}
	sh.seq = append(sh.seq, sc)
	return nil
}

// addSyncEdge records a release -> acquire schedule dependency in the
// acquiring thread's edge log.
func (g *Graph) addSyncEdge(from, to SubID, object ObjRef) {
	sh := g.shard(to.Thread)
	if sh == nil {
		return
	}
	sh.mu.Lock()
	sh.syncEdges = append(sh.syncEdges, syncEdgeRec{From: from, To: to, Object: object})
	sh.mu.Unlock()
}

// Sub returns the vertex with the given ID.
func (g *Graph) Sub(id SubID) (*SubComputation, bool) {
	sh := g.shard(id.Thread)
	if sh == nil {
		return nil, false
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if id.Alpha >= uint64(len(sh.seq)) {
		return nil, false
	}
	return sh.seq[id.Alpha], true
}

// ThreadSeq returns thread t's sub-computation sequence Lt.
func (g *Graph) ThreadSeq(t int) []*SubComputation {
	sh := g.shard(t)
	if sh == nil {
		return nil
	}
	sh.mu.RLock()
	out := make([]*SubComputation, len(sh.seq))
	copy(out, sh.seq)
	sh.mu.RUnlock()
	return out
}

// Subs returns every vertex, ordered by (thread, alpha).
func (g *Graph) Subs() []*SubComputation {
	out := make([]*SubComputation, 0, g.NumSubs())
	for t := range g.shards {
		sh := &g.shards[t]
		sh.mu.RLock()
		out = append(out, sh.seq...)
		sh.mu.RUnlock()
	}
	return out
}

// NumSubs returns the vertex count.
func (g *Graph) NumSubs() int {
	n := 0
	for t := range g.shards {
		sh := &g.shards[t]
		sh.mu.RLock()
		n += len(sh.seq)
		sh.mu.RUnlock()
	}
	return n
}

// shardLen returns thread t's current sequence length.
func (g *Graph) shardLen(t int) int {
	sh := g.shard(t)
	if sh == nil {
		return 0
	}
	sh.mu.RLock()
	n := len(sh.seq)
	sh.mu.RUnlock()
	return n
}

// threadTail appends thread t's sub-computations with alpha in [lo, hi),
// clamped to the shard's current length, to dst. The incremental fold
// uses it to pull exactly the vertices sealed since the previous epoch.
func (g *Graph) threadTail(dst []*SubComputation, t, lo, hi int) []*SubComputation {
	sh := g.shard(t)
	if sh == nil {
		return dst
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if hi > len(sh.seq) {
		hi = len(sh.seq)
	}
	if lo >= hi {
		return dst
	}
	return append(dst, sh.seq[lo:hi]...)
}

// syncEdgeTail appends thread t's sync-edge log entries from index `from`
// on to dst. Logs are append-only, so successive calls with the previous
// return length see each entry exactly once.
func (g *Graph) syncEdgeTail(dst []syncEdgeRec, t, from int) []syncEdgeRec {
	sh := g.shard(t)
	if sh == nil {
		return dst
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if from >= len(sh.syncEdges) {
		return dst
	}
	return append(dst, sh.syncEdges[from:]...)
}

// ControlEdges derives the intra-thread program-order edges, ordered by
// (thread, alpha) by construction.
func (g *Graph) ControlEdges() []Edge {
	var out []Edge
	for t := range g.shards {
		sh := &g.shards[t]
		sh.mu.RLock()
		n := len(sh.seq)
		sh.mu.RUnlock()
		for i := 1; i < n; i++ {
			out = append(out, Edge{
				From: SubID{Thread: t, Alpha: uint64(i - 1)},
				To:   SubID{Thread: t, Alpha: uint64(i)},
				Kind: EdgeControl,
			})
		}
	}
	return out
}

// SyncEdges returns the recorded schedule-dependency edges with
// materialized object names, sorted by (From, To, Kind, Object).
func (g *Graph) SyncEdges() []Edge {
	out := []Edge{} // non-nil even when empty: the JSON dump renders []
	for t := range g.shards {
		sh := &g.shards[t]
		sh.mu.RLock()
		for _, rec := range sh.syncEdges {
			out = append(out, Edge{
				From:   rec.From,
				To:     rec.To,
				Kind:   EdgeSync,
				Object: g.ObjectName(rec.Object),
			})
		}
		sh.mu.RUnlock()
	}
	sortEdges(out, nil)
	return out
}

// HappensBefore reports whether a happens-before b using the recorded
// vector clocks (same-thread order included).
func (g *Graph) HappensBefore(a, b SubID) bool {
	if a.Thread == b.Thread {
		return a.Alpha < b.Alpha
	}
	sa, ok := g.Sub(a)
	if !ok {
		return false
	}
	sb, ok := g.Sub(b)
	if !ok {
		return false
	}
	switch sa.Clock.Compare(sb.Clock) {
	case vclock.Before:
		return true
	case vclock.Equal:
		// Equal clocks across threads can only happen for initial
		// zero-clock subs; order them by thread slot for determinism.
		return false
	default:
		return false
	}
}

// Concurrent reports whether neither vertex happens-before the other.
func (g *Graph) Concurrent(a, b SubID) bool {
	return !g.HappensBefore(a, b) && !g.HappensBefore(b, a) && a != b
}

// Edges returns control, sync, and data edges combined.
func (g *Graph) Edges() []Edge {
	out := g.ControlEdges()
	out = append(out, g.SyncEdges()...)
	out = append(out, g.DataEdges()...)
	return out
}

// edgeCmp is the canonical edge order: (From, To, Kind, Object). The
// object tiebreaker is unreachable for edges derived from one graph (a
// single acquire binds to one fresh sub-computation, so (From, To, Kind)
// is unique) but keeps the order total for hand-built inputs. sortEdges
// (edgesort.go) and the sorted-run merges of the fold and the store all
// implement it. It takes pointers: an Edge is 80 bytes, and the merges
// compare arena entries in place.
func edgeCmp(a, b *Edge) int {
	switch {
	case a.From != b.From:
		return lessToCmp(a.From.Less(b.From))
	case a.To != b.To:
		return lessToCmp(a.To.Less(b.To))
	case a.Kind != b.Kind:
		return cmp.Compare(a.Kind, b.Kind)
	}
	return cmp.Compare(a.Object, b.Object)
}

// lessToCmp turns a strict-order answer about two unequal keys into a
// three-way result.
func lessToCmp(less bool) int {
	if less {
		return -1
	}
	return 1
}

func edgeLess(a, b *Edge) bool { return edgeCmp(a, b) < 0 }
