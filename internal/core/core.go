package core

import (
	"cmp"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

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
	// Index is β, the thunk counter within the sub-computation: the
	// thunk's position in its control path, which no encoding spells.
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
	// path is the recorded control path (∆), kept in the spelling it
	// travels in: each thunk's AppendThunks element, back to back, with
	// no count. The recorder writes it once; AppendWire, the .cpg column
	// and ParseWire copy it, and Thunks decodes it. nThunks counts its
	// elements and maxRef is the largest site or target ref they name,
	// so neither a count nor a ref check walks it. A string, because a
	// published path never changes; with the two 32-bit words it takes
	// the 24 bytes a []Thunk header took.
	path    string
	nThunks uint32
	maxRef  SiteRef
	// End is the synchronization event that terminated it.
	End SyncEvent
	// Start and Finish are virtual times bounding the execution.
	Start, Finish vtime.Cycles
	// Instructions counts instructions retired.
	Instructions uint64
}

// Thunks yields the control path, thunk by thunk, decoded from its
// bytes: for _, th := range sc.Thunks.
func (sc *SubComputation) Thunks(yield func(int, Thunk) bool) { thunksIn(sc.path, yield) }

// NumThunks returns the control path's length.
func (sc *SubComputation) NumThunks() int { return int(sc.nThunks) }

// SetThunks replaces the control path with thunks, encoded — for a
// vertex built by hand rather than recorded. A thunk's index is its
// position in thunks: Index is not read, and Thunks numbers the path 0,
// 1, 2, … . A path holds at most 2^32-1 thunks.
func (sc *SubComputation) SetThunks(thunks []Thunk) {
	var path []byte
	var maxRef SiteRef
	for i := range thunks {
		th := &thunks[i]
		path = appendThunk(path, th.Site, thunkFlags(th.Taken, th.Indirect), th.Target, th.Instructions)
		maxRef = max(maxRef, th.Site, th.Target)
	}
	sc.path, sc.nThunks, sc.maxRef = string(path), uint32(len(thunks)), maxRef
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
	// nSeq, nSync and nGaps publish the three lengths, stored after each
	// append under mu: an epoch cut reads them without taking the lock
	// and locks only a shard that has something new to copy.
	nSeq, nSync, nGaps atomic.Int64
	_                  [32]byte
}

// Graph is the Concurrent Provenance Graph under construction or analysis.
// Methods are safe for concurrent use by the recording threads; each
// thread's appends touch only its own shard (the algorithm's
// decentralization property, §IV-B, reflected in the store layout).
type Graph struct {
	threads  int
	interner *Interner
	shards   []graphShard
	// column is a restored graph's control path, one list for every
	// vertex (RestoreThunkColumn); nil while vertices carry their own.
	column *thunkColumn
	// applyNext is validateDelta's per-thread scratch; ApplyDelta's
	// callers serialize it.
	applyNext []uint64
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
	if g.column != nil {
		return fmt.Errorf("core: %v appended to a graph whose thunk column is sealed", sc.ID)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if uint64(len(sh.seq)) != sc.ID.Alpha {
		return fmt.Errorf("core: thread %d alpha %d out of order (have %d)",
			sc.ID.Thread, sc.ID.Alpha, len(sh.seq))
	}
	sh.seq = append(sh.seq, sc)
	sh.nSeq.Store(int64(len(sh.seq)))
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
	sh.nSync.Store(int64(len(sh.syncEdges)))
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
	return int(sh.nSeq.Load())
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

// logTails reads thread t's sync-edge log and gap-list lengths — what
// an epoch cut records — and appends the log entries from index
// syncFrom on to sync and the gaps from gapFrom on to d, as stored (no
// name lookup), taking the shard lock only if there are any. Logs are
// append-only, so successive calls with the previous lengths see each
// entry exactly once.
func (g *Graph) logTails(t int, d *EpochDelta, sync *runs[DeltaSyncEdge], syncFrom, gapFrom int) (syncLen, gapLen int) {
	sh := g.shard(t)
	if sh == nil {
		return 0, 0
	}
	syncLen, gapLen = int(sh.nSync.Load()), int(sh.nGaps.Load())
	if syncLen <= syncFrom && gapLen <= gapFrom {
		return syncLen, gapLen
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, rec := range sh.syncEdges[min(syncFrom, syncLen):syncLen] {
		sync.add(DeltaSyncEdge(rec))
	}
	for _, gp := range sh.gaps[min(gapFrom, gapLen):gapLen] {
		d.Gaps = append(d.Gaps, DeltaGap{Thread: t, Gap: gp})
	}
	return syncLen, gapLen
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
