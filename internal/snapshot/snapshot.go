// Package snapshot implements INSPECTOR's live snapshot facility (§VI):
// periodic consistent cuts of the Concurrent Provenance Graph stored in a
// bounded ring of slots, so provenance can be analyzed on-the-fly while
// the program runs and the trace's space footprint stays bounded.
//
// A snapshot is a retained epoch. The Ring is a sink of the epoch
// pipeline: every fold already captures, per thread, a prefix of its
// completed sub-computations closed under happens-before
// (core.IncrementalAnalyzer), and the Ring keeps the folds its cadence
// or a forced Take selects. A cut is *consistent* (Chandy-Lamport [15])
// iff for every synchronization edge release -> acquire, inclusion of
// the acquire implies inclusion of the release; a happens-before-closed
// prefix is, a fortiori, and Cut.Validate states the property so tests
// hold the fold's frontier to it.
//
// The PT side mirrors the paper's perf integration: in snapshot mode the
// AUX ring constantly overwrites old data, and the facility captures the
// current window per process into the slot (4 MiB by default), exactly
// like the SIGUSR2-triggered snapshot handler perf exposes.
package snapshot

import (
	"fmt"
	"slices"
	"sync"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/perf"
)

// DefaultSlotSize is the per-slot PT window budget (the paper's 4 MB).
const DefaultSlotSize = 4 << 20

// Cut is a consistent frontier: Frontier[t] = number of included
// sub-computations of thread t (a prefix length, not an index).
type Cut struct {
	// Epoch is the fold whose cut this is; journal record Epoch and wire
	// frame Epoch of the same run carry the same prefix.
	Epoch uint64
	// Frontier maps thread slot -> included prefix length.
	Frontier []int
}

// Contains reports whether the cut includes sub-computation id.
func (c *Cut) Contains(id core.SubID) bool {
	return id.Thread < len(c.Frontier) && id.Alpha < uint64(c.Frontier[id.Thread])
}

// Size returns the number of included sub-computations.
func (c *Cut) Size() int {
	n := 0
	for _, f := range c.Frontier {
		n += f
	}
	return n
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

// Snapshot is one captured slot: a retained epoch plus the PT windows.
type Snapshot struct {
	Cut Cut
	// Analysis is the epoch's immutable analysis over exactly the cut:
	// provenance.NewEngine queries it, cpgfile.Encode exports it.
	Analysis *core.Analysis
	// PTWindows holds the captured AUX window per process.
	PTWindows map[int32][]byte
	// TruncatedPT reports PT bytes dropped to fit the slot budget, over
	// all processes.
	TruncatedPT uint64
}

// Options configure a Ring.
type Options struct {
	// Slots is the ring capacity (number of retained snapshots).
	// Default 4.
	Slots int
	// SlotSize caps PT bytes per snapshot. Default 4 MiB.
	SlotSize int
	// EverySeals retains an epoch each N sealed sub-computations; 0
	// disables automatic capture (forced Take only).
	EverySeals uint64
}

// Ring owns the snapshot ring of one recording. It is an epoch.Sink:
// list it among the recording's epoch.Driver sinks.
type Ring struct {
	sess *perf.Session
	opts Options

	mu   sync.Mutex
	ring []*Snapshot // oldest first
	// due is the cut size of the next automatic capture: the first
	// multiple of EverySeals no retained cut has reached.
	due uint64
	// force makes the next emitted epoch a snapshot whatever its size.
	force bool
	// last is the newest epoch emitted, for a Take after the final one;
	// newest the latest snapshot retained.
	last   *core.Analysis
	newest *Snapshot
}

// New creates the ring of a recording whose PT streams live in sess.
func New(sess *perf.Session, opts Options) *Ring {
	if opts.Slots <= 0 {
		opts.Slots = 4
	}
	if opts.SlotSize <= 0 {
		opts.SlotSize = DefaultSlotSize
	}
	return &Ring{sess: sess, opts: opts, ring: make([]*Snapshot, 0, opts.Slots), due: opts.EverySeals}
}

// Emit retains the epoch if a Take forced it or its cut has reached the
// next multiple of EverySeals: every synchronization boundary seals one
// sub-computation, so the cut's size is the paper's sync-point count.
func (r *Ring) Emit(a *core.Analysis, d *core.EpochDelta) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.last = a
	cut := Cut{Epoch: d.Epoch, Frontier: d.Lens}
	size := uint64(cut.Size())
	periodic := r.opts.EverySeals != 0 && size >= r.due
	if periodic {
		r.due = size - size%r.opts.EverySeals + r.opts.EverySeals
	}
	if periodic || r.force {
		r.force = false
		r.retain(cut, a)
	}
	return nil
}

// Finish is a no-op: the ring outlives the pipeline.
func (r *Ring) Finish(uint64) error { return nil }

// Take forces a snapshot now (the SIGUSR2 trigger) and returns it: fold
// is the driver's Fold, whose epoch Emit retains whatever the cadence.
// A closed pipeline folds no more; Take then retains the final epoch,
// once.
func (r *Ring) Take(fold func()) *Snapshot {
	r.mu.Lock()
	r.force = true
	r.mu.Unlock()
	fold()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.force {
		r.force = false
		if n := r.newest; r.last != nil && (n == nil || n.Cut.Epoch != r.last.Epoch()) {
			r.retain(Cut{Epoch: r.last.Epoch(), Frontier: r.last.ThreadLens()}, r.last)
		}
	}
	return r.newest
}

// retain stores the epoch with the current PT windows, overwriting the
// oldest slot when full (the paper's reusable-slot ring). The slot budget
// is spent in thread-slot order (ascending PID): the lowest slots keep
// their windows whole, the one the budget runs out in keeps its newest
// bytes, and TruncatedPT counts every byte of every window not retained.
// Needs r.mu.
func (r *Ring) retain(cut Cut, a *core.Analysis) {
	snap := &Snapshot{Cut: cut, Analysis: a, PTWindows: make(map[int32][]byte)}
	budget := r.opts.SlotSize
	for _, pid := range r.sess.PIDs() {
		stream, ok := r.sess.Stream(pid)
		if !ok {
			continue
		}
		if budget == 0 {
			// Spent: the whole window is dropped, counted uncopied.
			snap.TruncatedPT += uint64(stream.Aux().Len())
			continue
		}
		win := stream.Aux().SnapshotWindow()
		if len(win) > budget {
			snap.TruncatedPT += uint64(len(win) - budget)
			win = win[len(win)-budget:]
		}
		budget -= len(win)
		snap.PTWindows[pid] = win
	}
	if len(r.ring) == r.opts.Slots {
		r.ring = append(r.ring[:0], r.ring[1:]...)
	}
	r.ring = append(r.ring, snap)
	r.newest = snap
}

// Snapshots returns the current ring contents, oldest first.
func (r *Ring) Snapshots() []*Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.ring)
}
