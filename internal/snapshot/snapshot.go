// Package snapshot implements INSPECTOR's live snapshot facility (§VI):
// periodic consistent cuts of the Concurrent Provenance Graph stored in a
// bounded ring of slots, so provenance can be analyzed on-the-fly while
// the program runs and the trace's space footprint stays bounded.
//
// A snapshot is a retained epoch. Every cut of the epoch pipeline
// captures, per thread, a prefix of its completed sub-computations
// closed under happens-before (core.Cutter), and the Ring
// keeps the epochs its cadence or a forced Take selects, completed by
// the recording's epoch.Follower. A cut is *consistent*
// (Chandy-Lamport [15]) iff for every synchronization edge release ->
// acquire, inclusion of the acquire implies inclusion of the release; a
// happens-before-closed prefix is, a fortiori, and Cut.Validate states
// the property so tests hold the fold's frontier to it.
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
	"github.com/repro/inspector/internal/epoch"
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

// Ring owns the snapshot ring of one recording, in two halves. As an
// epoch.Sink listed before the recording's epoch.Follower, it picks the
// epochs to retain on the sealing thread and copies their PT windows
// into a pending slot then; as that follower's observer it completes
// the slot with the epoch's analysis. However far the follower lags, a
// slot's windows are its epoch's and the ring holds at most Slots.
type Ring struct {
	sess *perf.Session
	opts Options

	mu     sync.Mutex
	cond   sync.Cond   // broadcast when seen or stopped changes
	slots  []*Snapshot // oldest first; a nil Analysis marks a pending slot
	newest *Snapshot   // the newest complete slot
	// due is the cut size of the next automatic capture: the first
	// multiple of EverySeals no retained cut has reached.
	due uint64
	// force makes the next emitted epoch a snapshot whatever its size.
	force bool
	// want is the newest epoch retained at seal time, seen the newest the
	// follower has handled (last its newest analysis); stopped says the
	// follower handles no more.
	want, seen uint64
	last       *core.Analysis
	stopped    bool
}

// New creates the ring of a recording whose PT streams live in sess.
func New(sess *perf.Session, opts Options) *Ring {
	if opts.Slots <= 0 {
		opts.Slots = 4
	}
	if opts.SlotSize <= 0 {
		opts.SlotSize = DefaultSlotSize
	}
	r := &Ring{sess: sess, opts: opts, slots: make([]*Snapshot, 0, opts.Slots), due: opts.EverySeals}
	r.cond.L = &r.mu
	return r
}

// Emit retains the epoch if a Take forced it or its cut has reached the
// next multiple of EverySeals (every synchronization boundary seals one
// sub-computation, so the cut's size is the paper's sync-point count),
// copying its PT windows now. Once the follower has stopped nothing is
// retained. It never asks for the frame.
func (r *Ring) Emit(c core.Cut, _ epoch.Frame) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cut := Cut{Epoch: c.Epoch, Frontier: c.Lens}
	size := uint64(cut.Size())
	periodic := r.opts.EverySeals != 0 && size >= r.due
	if periodic {
		r.due = size - size%r.opts.EverySeals + r.opts.EverySeals
	}
	if (periodic || r.force) && !r.stopped {
		r.force = false
		r.add(r.capture(cut))
		r.want = c.Epoch
	}
	return nil
}

// Finish is a no-op: the ring outlives the pipeline.
func (r *Ring) Finish(uint64) error { return nil }

// Wants reports whether epoch e is pending: it is folded on its own.
func (r *Ring) Wants(e uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.ContainsFunc(r.slots, func(s *Snapshot) bool { return s.Cut.Epoch == e && s.Analysis == nil })
}

// Observe completes the pending slots up to epoch e: the slot of a's
// epoch gets its analysis, one whose fold panicked is dropped.
func (r *Ring) Observe(a *core.Analysis, e uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.slots = slices.DeleteFunc(r.slots, func(s *Snapshot) bool {
		if s.Analysis != nil || s.Cut.Epoch > e {
			return false
		}
		if a != nil && s.Cut.Epoch == a.Epoch() {
			s.Analysis, r.newest = a, s
			return false
		}
		return true
	})
	if a != nil {
		r.last = a
	}
	r.seen = e
	r.cond.Broadcast()
}

// Stop drops the pending slots: the follower completes no more.
func (r *Ring) Stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopped = true
	r.slots = slices.DeleteFunc(r.slots, func(s *Snapshot) bool { return s.Analysis == nil })
	r.cond.Broadcast()
}

// Take forces a snapshot now (the SIGUSR2 trigger): it cuts an epoch on
// the recording's driver d, which Emit retains whatever the cadence,
// and returns once the follower has completed it, or the newest
// complete slot once the follower has stopped. A closed driver cuts
// nothing: Take then retains the final epoch, once.
func (r *Ring) Take(d *epoch.Driver) *Snapshot {
	r.mu.Lock()
	r.force = true
	r.mu.Unlock()
	d.Cut()
	final := d.Epoch() // read before r.mu: the driver's lock comes first
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.force {
		for want := r.want; r.seen < want && !r.stopped; {
			r.cond.Wait()
		}
		return r.newest
	}
	// Closed, so the follower has folded what it could of the final epoch.
	r.force = false
	if a := r.last; a != nil && a.Epoch() == final && (r.newest == nil || r.newest.Cut.Epoch != final) {
		s := r.capture(Cut{Epoch: final, Frontier: a.ThreadLens()})
		s.Analysis, r.newest = a, s
		r.add(s)
	}
	return r.newest
}

// capture copies the current PT windows into a new slot for cut. The
// slot budget is spent in thread-slot order (ascending PID): the lowest
// slots keep their windows whole, the one the budget runs out in keeps
// its newest bytes, and TruncatedPT counts every byte of every window
// not retained.
func (r *Ring) capture(cut Cut) *Snapshot {
	snap := &Snapshot{Cut: cut, PTWindows: make(map[int32][]byte)}
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
	return snap
}

// add stores a slot, overwriting the oldest when full (the paper's
// reusable-slot ring): a complete one while there is one, since pending
// slots are newer, whose completion would evict it anyway. Needs r.mu.
func (r *Ring) add(snap *Snapshot) {
	if len(r.slots) == r.opts.Slots {
		r.slots = slices.Delete(r.slots, 0, 1)
	}
	r.slots = append(r.slots, snap)
}

// Snapshots returns the complete slots, oldest first, once every slot
// retained so far is complete (or the follower has stopped).
func (r *Ring) Snapshots() []*Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	for want := r.want; r.seen < want && !r.stopped; {
		r.cond.Wait()
	}
	return slices.DeleteFunc(slices.Clone(r.slots), func(s *Snapshot) bool { return s.Analysis == nil })
}
