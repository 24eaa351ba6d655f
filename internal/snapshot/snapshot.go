// Package snapshot implements INSPECTOR's live snapshot facility (§VI):
// periodic consistent cuts of the Concurrent Provenance Graph stored in a
// bounded ring of slots, so provenance can be analyzed on-the-fly while
// the program runs and the trace's space footprint stays bounded.
//
// A cut selects, for each thread, a prefix of its completed
// sub-computations. The cut is *consistent* (Chandy-Lamport [15]) iff for
// every synchronization edge release -> acquire, inclusion of the acquire
// implies inclusion of the release. Each thread nominates its latest
// completed synchronization event; the cut then retreats acquires whose
// releases are missing until the property holds (a monotone fixpoint, so
// it terminates).
//
// The PT side mirrors the paper's perf integration: in snapshot mode the
// AUX ring constantly overwrites old data, and the facility captures the
// current window per process into the slot (4 MiB by default), exactly
// like the SIGUSR2-triggered snapshot handler perf exposes.
package snapshot

import (
	"errors"
	"fmt"
	"sync"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/perf"
)

// DefaultSlotSize is the per-slot PT window budget (the paper's 4 MB).
const DefaultSlotSize = 4 << 20

// Cut is a consistent frontier: Frontier[t] = number of included
// sub-computations of thread t (a prefix length, not an index).
type Cut struct {
	// Seq is the synchronization sequence number that triggered the cut.
	Seq uint64
	// Frontier maps thread slot -> included prefix length.
	Frontier map[int]uint64
}

// Contains reports whether the cut includes sub-computation id.
func (c *Cut) Contains(id core.SubID) bool {
	return id.Alpha < c.Frontier[id.Thread]
}

// Size returns the number of included sub-computations.
func (c *Cut) Size() int {
	var n uint64
	for _, f := range c.Frontier {
		n += f
	}
	return int(n)
}

// Snapshot is one captured slot: the consistent cut plus the PT windows.
type Snapshot struct {
	Cut Cut
	// Subs are the included sub-computations (copies of graph vertices).
	Subs []*core.SubComputation
	// SyncEdges are the schedule edges fully inside the cut.
	SyncEdges []core.Edge
	// Symbols is the graph's interned symbol table at capture time, so an
	// offline consumer can resolve the SiteRef/ObjRef fields the vertices
	// carry without the live graph.
	Symbols []string
	// PTWindows holds the captured AUX window per process.
	PTWindows map[int32][]byte
	// TruncatedPT reports PT bytes dropped to fit the slot budget.
	TruncatedPT uint64
}

// SiteName resolves an interned site ref against the captured symbols.
func (s *Snapshot) SiteName(ref core.SiteRef) string {
	if int(ref) >= len(s.Symbols) {
		return ""
	}
	return s.Symbols[ref]
}

// ObjectName resolves an interned object ref against the captured symbols.
func (s *Snapshot) ObjectName(ref core.ObjRef) string {
	if int(ref) >= len(s.Symbols) {
		return ""
	}
	return s.Symbols[ref]
}

// Bytes estimates the slot's storage footprint.
func (s *Snapshot) Bytes() int {
	n := 0
	for _, w := range s.PTWindows {
		n += len(w)
	}
	// Sub-computation metadata is small relative to PT data; count the
	// page sets at 8 bytes per page entry.
	for _, sc := range s.Subs {
		n += 8 * (sc.ReadSet.Len() + sc.WriteSet.Len())
	}
	return n
}

// Options configure a Snapshotter.
type Options struct {
	// Slots is the ring capacity (number of retained snapshots).
	// Default 4.
	Slots int
	// SlotSize caps PT bytes per snapshot. Default 4 MiB.
	SlotSize int
	// EverySyncs triggers an automatic snapshot each N synchronization
	// boundaries; 0 disables automatic capture (manual TakeSnapshot
	// only).
	EverySyncs uint64
}

// Source is the runtime surface the snapshotter needs; implemented by
// *threading.Runtime.
type Source interface {
	Graph() *core.Graph
	Session() *perf.Session
	SyncSeq() uint64
}

// Snapshotter owns the snapshot ring for one runtime.
type Snapshotter struct {
	src  Source
	opts Options

	mu    sync.Mutex
	ring  []*Snapshot
	next  int
	taken uint64
}

// ErrNoSource is returned when constructing without a runtime.
var ErrNoSource = errors.New("snapshot: nil source")

// New creates a snapshotter over the runtime. Pass the runtime's
// RegisterSnapshotHook output through Hook to enable automatic capture.
func New(src Source, opts Options) (*Snapshotter, error) {
	if src == nil {
		return nil, ErrNoSource
	}
	if opts.Slots <= 0 {
		opts.Slots = 4
	}
	if opts.SlotSize <= 0 {
		opts.SlotSize = DefaultSlotSize
	}
	return &Snapshotter{
		src:  src,
		opts: opts,
		ring: make([]*Snapshot, 0, opts.Slots),
	}, nil
}

// Hook returns the callback to register with the runtime's snapshot
// hooks: it captures automatically every EverySyncs boundaries.
func (s *Snapshotter) Hook() func() {
	return func() {
		if s.opts.EverySyncs == 0 {
			return
		}
		if s.src.SyncSeq()%s.opts.EverySyncs == 0 {
			s.TakeSnapshot()
		}
	}
}

// TakeSnapshot captures a consistent cut now and stores it in the ring,
// overwriting the oldest slot when full (the paper's reusable-slot ring).
func (s *Snapshotter) TakeSnapshot() *Snapshot {
	g := s.src.Graph()
	cut := ComputeCut(g)
	cut.Seq = s.src.SyncSeq()

	snap := &Snapshot{Cut: cut, Symbols: g.Symbols(), PTWindows: make(map[int32][]byte)}
	for _, sc := range g.Subs() {
		if cut.Contains(sc.ID) {
			snap.Subs = append(snap.Subs, sc)
		}
	}
	for _, e := range g.SyncEdges() {
		if cut.Contains(e.From) && cut.Contains(e.To) {
			snap.SyncEdges = append(snap.SyncEdges, e)
		}
	}
	// Capture PT windows within the slot budget.
	budget := s.opts.SlotSize
	sess := s.src.Session()
	for _, pid := range sess.PIDs() {
		stream, ok := sess.Stream(pid)
		if !ok {
			continue
		}
		win := stream.Aux().SnapshotWindow()
		if len(win) > budget {
			snap.TruncatedPT += uint64(len(win) - budget)
			win = win[len(win)-budget:]
		}
		budget -= len(win)
		snap.PTWindows[pid] = win
		if budget <= 0 {
			break
		}
	}

	s.mu.Lock()
	if len(s.ring) < s.opts.Slots {
		s.ring = append(s.ring, snap)
	} else {
		s.ring[s.next%len(s.ring)] = snap
		s.next++
	}
	s.taken++
	s.mu.Unlock()
	return snap
}

// Snapshots returns the current ring contents, oldest first.
func (s *Snapshotter) Snapshots() []*Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Snapshot, 0, len(s.ring))
	if len(s.ring) < s.opts.Slots {
		out = append(out, s.ring...)
		return out
	}
	for i := 0; i < len(s.ring); i++ {
		out = append(out, s.ring[(s.next+i)%len(s.ring)])
	}
	return out
}

// Taken returns the cumulative snapshot count (including overwritten).
func (s *Snapshotter) Taken() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.taken
}

// ComputeCut builds a consistent cut from the graph's current state:
// start from every thread's full completed prefix, then retreat any
// acquire whose release lies outside the cut until the closure property
// holds.
func ComputeCut(g *core.Graph) Cut {
	frontier := make(map[int]uint64)
	for _, sc := range g.Subs() {
		if sc.ID.Alpha+1 > frontier[sc.ID.Thread] {
			frontier[sc.ID.Thread] = sc.ID.Alpha + 1
		}
	}
	edges := g.SyncEdges()
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			// Acquire included but release missing: retreat the
			// acquirer's frontier to exclude the acquire.
			if e.To.Alpha < frontier[e.To.Thread] && e.From.Alpha >= frontier[e.From.Thread] {
				frontier[e.To.Thread] = e.To.Alpha
				changed = true
			}
		}
	}
	return Cut{Frontier: frontier}
}

// Validate checks the Chandy-Lamport property of a cut against the
// graph: every included acquire's release is included.
func (c *Cut) Validate(g *core.Graph) error {
	for _, e := range g.SyncEdges() {
		if c.Contains(e.To) && !c.Contains(e.From) {
			return fmt.Errorf("snapshot: inconsistent cut: %v in cut but its release %v (object %s) is not",
				e.To, e.From, e.Object)
		}
	}
	return nil
}
