package core

import (
	"fmt"
	"sync"

	"github.com/repro/inspector/internal/vclock"
	"github.com/repro/inspector/internal/vtime"
)

// SyncObject is the provenance-side state of one synchronization object S:
// its vector clock CS (the "messaging medium" of Algorithm 2) plus the set
// of releaser sub-computations whose releases the next acquire observes
// (for explicit schedule edges). The actual blocking behaviour lives in
// the threading library; this object only records causality.
type SyncObject struct {
	name string
	ref  ObjRef

	mu        sync.Mutex
	clock     vclock.Clock
	releasers []SubID
	// accumulate keeps earlier releasers in the set (condition variables,
	// semaphores); mutexes replace, since an acquire of a mutex
	// synchronizes only with the previous release.
	accumulate bool
}

// NewSyncObject creates the provenance state for object name, interned
// into the graph's symbol table, with the graph's vector-clock width.
// accumulate selects whether successive releases pile up (cond/sem
// semantics) or replace (mutex semantics).
func (g *Graph) NewSyncObject(name string, accumulate bool) *SyncObject {
	return &SyncObject{
		name:       name,
		ref:        g.InternObject(name),
		clock:      vclock.New(g.Threads()),
		accumulate: accumulate,
	}
}

// Name returns the object's name.
func (s *SyncObject) Name() string { return s.name }

// Ref returns the object's interned name; boundary events and schedule
// edges carry this instead of the string.
func (s *SyncObject) Ref() ObjRef { return s.ref }

// release folds the releasing thread's clock into CS and records the
// releasing sub-computation: ∀i: CS[i] <- max(CS[i], Ct[i]).
func (s *SyncObject) release(threadClock vclock.Clock, from SubID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock.Merge(threadClock)
	if s.accumulate {
		s.releasers = append(s.releasers, from)
	} else {
		s.releasers = s.releasers[:0]
		s.releasers = append(s.releasers, from)
	}
}

// acquire folds CS into the acquiring thread's clock and returns the
// releasers the acquire synchronizes with: ∀i: Ct[i] <- max(CS[i], Ct[i]).
func (s *SyncObject) acquire(threadClock vclock.Clock) []SubID {
	s.mu.Lock()
	defer s.mu.Unlock()
	threadClock.Merge(s.clock)
	out := make([]SubID, len(s.releasers))
	copy(out, s.releasers)
	return out
}

// Recorder is the per-thread state of the provenance algorithm: the thread
// clock Ct, the sub-computation counter α, the thunk counter β, and the
// in-progress sub-computation. A Recorder is owned by one thread; only the
// SyncObject interactions synchronize with other threads — the algorithm's
// decentralization property (§IV-B). EndSub appends to the thread's own
// graph shard, so the append path takes no global lock.
type Recorder struct {
	graph  *Graph
	thread int
	clock  vclock.Clock
	alpha  uint64
	beta   uint64

	cur          *SubComputation
	instructions uint64 // current thunk's instruction count
	// Thunks are written once, into chunks the recorder owns. The open
	// sub-computation's thunks are filled[0][start:], the rest of filled,
	// then chunk; with filled empty, just chunk[start:]. Published slices
	// alias chunk prefixes, so a chunk shared with one is only appended to.
	chunk  []Thunk
	start  int
	filled [][]Thunk
}

// Thunk chunks double from minThunkChunk to maxThunkChunk thunks.
const minThunkChunk, maxThunkChunk = 64, 4096

// NewRecorder initializes a thread recorder (initThread(t) in Algorithm 2:
// α <- 0, Ct <- 0) and opens the first sub-computation at virtual time
// now.
func NewRecorder(g *Graph, thread int, now vtime.Cycles) (*Recorder, error) {
	if thread < 0 || thread >= g.Threads() {
		return nil, fmt.Errorf("core: thread slot %d out of range [0,%d)", thread, g.Threads())
	}
	r := &Recorder{
		graph:  g,
		thread: thread,
		clock:  vclock.New(g.Threads()),
	}
	r.startSub(now)
	return r, nil
}

// Thread returns the recorder's thread slot.
func (r *Recorder) Thread() int { return r.thread }

// Alpha returns the current sub-computation counter.
func (r *Recorder) Alpha() uint64 { return r.alpha }

// Clock returns the thread's current vector clock (not a copy; callers
// must not mutate it).
func (r *Recorder) Clock() vclock.Clock { return r.clock }

// Graph returns the graph the recorder appends to.
func (r *Recorder) Graph() *Graph { return r.graph }

// Current returns the in-progress sub-computation's ID.
func (r *Recorder) Current() SubID {
	return SubID{Thread: r.thread, Alpha: r.alpha}
}

// startSub opens sub-computation Lt[α] (startSub-computation() in
// Algorithm 2): β <- 0, Ct[t] <- α+1, Lt[α].C <- Ct.
//
// Deviation from the paper's literal "Ct[t] <- α": slots here are 1-based.
// With 0-based slots a thread's first sub-computation carries an all-zero
// clock, which the component-wise comparison orders before *every* other
// sub-computation — including ones it never synchronized with. Using α+1
// restores the standard vector-clock theorem (V_e < V_f iff e
// happens-before f), which TestQuickHappensBeforeMatchesEdgeReachability
// verifies against explicit edge reachability.
func (r *Recorder) startSub(now vtime.Cycles) {
	r.beta = 0
	r.instructions = 0
	r.clock.Set(r.thread, r.alpha+1)
	r.cur = &SubComputation{
		ID:    SubID{Thread: r.thread, Alpha: r.alpha},
		Clock: r.clock.Copy(),
		Start: now,
	}
}

// OnRead records a load's page into the read set (onMemoryAccess). The
// page id arrives already resolved by the memory substrate's cached page
// lookup (mem.Fault.Page); no layer above mem re-derives it from the
// address.
func (r *Recorder) OnRead(page uint64) { r.cur.ReadSet.Add(page) }

// OnWrite records a store's page into the write set (onMemoryAccess). The
// page id is the one resolved in mem, as for OnRead.
func (r *Recorder) OnWrite(page uint64) { r.cur.WriteSet.Add(page) }

// OnInstructions counts instructions retired in the current thunk. This is
// the per-access hot path (every tracked load/store lands here), so it
// only bumps the running thunk counter; the per-sub-computation total
// folds in lazily when a thunk or the sub-computation closes.
func (r *Recorder) OnInstructions(n uint64) {
	r.instructions += n
}

// closeThunk folds the running instruction count into the sub-computation
// total and appends the completed thunk.
func (r *Recorder) closeThunk(th Thunk) {
	th.Index = r.beta
	th.Instructions = r.instructions
	r.cur.Instructions += r.instructions
	if len(r.chunk) == cap(r.chunk) {
		r.nextChunk()
	}
	r.chunk = append(r.chunk, th)
	r.beta++
	r.instructions = 0
}

// nextChunk opens a new chunk in place of the full one, which stays in
// filled if it holds thunks of the open sub-computation.
func (r *Recorder) nextChunk() {
	if len(r.filled) > 0 || r.start < len(r.chunk) {
		r.filled = append(r.filled, r.chunk)
	} else {
		r.start = 0
	}
	r.chunk = make([]Thunk, 0, min(max(2*cap(r.chunk), minThunkChunk), maxThunkChunk))
}

// thunks returns the open sub-computation's thunks with cap == len, so an
// append to a published slice never writes into a chunk: nil if there are
// none, a sub-slice of chunk if they fit in it, else one copy.
func (r *Recorder) thunks() []Thunk {
	if r.beta == 0 {
		return nil
	} else if len(r.filled) == 0 {
		return r.chunk[r.start:len(r.chunk):len(r.chunk)]
	}
	out := append(make([]Thunk, 0, r.beta), r.filled[0][r.start:]...)
	for _, c := range r.filled[1:] {
		out = append(out, c...)
	}
	return append(out, r.chunk...)
}

// consumeThunks moves the open position past the published sub-computation.
// A spilled one was copied out, so nothing published aliases the open
// chunk, which starts over; the filled chunks are left to the collector.
func (r *Recorder) consumeThunks() {
	if len(r.filled) == 0 {
		r.start = len(r.chunk)
		return
	}
	clear(r.filled)
	r.filled, r.chunk, r.start = r.filled[:0], r.chunk[:0], 0
}

// OnBranch closes the current thunk with the (interned) branch site that
// terminated it and opens thunk β+1 (onBranchAccess in Algorithm 2).
func (r *Recorder) OnBranch(site SiteRef, taken bool) {
	r.closeThunk(Thunk{Site: site, Taken: taken})
}

// OnIndirect is OnBranch for indirect transfers. Target 0 (the empty
// string) marks an unresolved destination; the PT decoder resolves
// targets offline from the trace.
func (r *Recorder) OnIndirect(site, target SiteRef) {
	r.closeThunk(Thunk{Site: site, Indirect: true, Target: target})
}

// EndSub closes the current sub-computation at a synchronization point
// (the α <- α+1 step of Algorithm 1) and returns it after adding it to
// the graph.
func (r *Recorder) EndSub(ev SyncEvent, now vtime.Cycles) (*SubComputation, error) {
	// Fold the tail thunk's instructions (retired since the last branch)
	// into the sub-computation total.
	r.cur.Instructions += r.instructions
	r.instructions = 0
	r.cur.End = ev
	r.cur.Finish = now
	done := r.cur
	// Branchless subs publish nil: the CPG JSON encodes it as null, and
	// drift checks byte-compare it. The thunk state moves on only once the
	// graph holds the sub-computation.
	done.Thunks = r.thunks()
	if err := r.graph.add(done); err != nil {
		done.Thunks = nil
		return nil, err
	}
	r.consumeThunks()
	r.alpha++
	r.startSub(now)
	return done, nil
}

// MarkGap records a trace-loss interval on the recorder's thread. The
// instrumentation layer calls it when it observes lost trace bytes at a
// sub-computation boundary (AUX ring overrun, truncated stream) or when
// the workload body unwinds mid-sub-computation; the interval names the
// alphas whose recorded detail the loss affects.
func (r *Recorder) MarkGap(gp Gap) {
	r.graph.AddGap(r.thread, gp)
}

// Release performs the provenance side of a release operation on S
// (case release(S) in onSynchronization): the *completed* sub-computation
// from is what the next acquirer synchronizes with, and it is from's
// stamped clock — not the thread's current clock — that folds into CS.
//
// Algorithm 1 orders the steps as: α <- α+1, then onSynchronization(S),
// then startSub-computation (which bumps Ct[t]). EndSub here opens the
// next sub-computation eagerly, so by the time Release runs the thread
// clock already carries the *next* sub's slot value; publishing it would
// falsely order the releaser's next sub-computation before the acquirer.
// Using the completed sub's stamp reproduces the algorithm's ordering
// exactly (the clock never changes during a sub-computation's execution).
func (r *Recorder) Release(s *SyncObject, from *SubComputation) {
	s.release(from.Clock, from.ID)
}

// Acquire performs the provenance side of an acquire operation on S,
// merging CS into Ct and adding schedule edges from the releasers it
// synchronizes with to the thread's current (fresh) sub-computation.
func (r *Recorder) Acquire(s *SyncObject) {
	releasers := s.acquire(r.clock)
	// The acquire binds to the sub-computation that starts after the
	// synchronization call; its clock must reflect the merge.
	r.cur.Clock = r.clock.Copy()
	to := r.Current()
	for _, from := range releasers {
		if from.Thread == to.Thread && from.Alpha+1 == to.Alpha {
			// Program order already covers this edge.
			continue
		}
		r.graph.addSyncEdge(from, to, s.Ref())
	}
}

// MergeAcquire folds S's clock into the thread clock without touching the
// releaser bookkeeping. Barriers use it together with AddScheduleEdge:
// the barrier implementation tracks per-generation arrival sets itself, so
// edges come from the captured generation rather than the object's
// releaser set.
func (r *Recorder) MergeAcquire(s *SyncObject) {
	s.acquire(r.clock)
	r.cur.Clock = r.clock.Copy()
}

// AddScheduleEdge records an explicit release -> acquire edge from a
// known releaser to the recorder's current sub-computation, skipping
// edges already implied by program order.
func (r *Recorder) AddScheduleEdge(from SubID, object ObjRef) {
	to := r.Current()
	if from.Thread == to.Thread && from.Alpha+1 == to.Alpha {
		return
	}
	r.graph.addSyncEdge(from, to, object)
}
