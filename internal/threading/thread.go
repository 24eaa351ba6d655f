package threading

import (
	"fmt"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/image"
	"github.com/repro/inspector/internal/mem"
	"github.com/repro/inspector/internal/pt"
	"github.com/repro/inspector/internal/vtime"
)

// Category attributes virtual-time charges to the overhead classes the
// paper's Figure 6 separates.
type Category int

// Charge categories.
const (
	// CatApp is work the application itself performs (also charged by
	// the native baseline).
	CatApp Category = iota + 1
	// CatThreading is INSPECTOR threading-library overhead: page faults,
	// twin copies, diffs, commits, vector clocks, process spawns.
	CatThreading
	// CatPT is Intel-PT overhead: per-branch packet generation plus
	// moving trace bytes out of the AUX area.
	CatPT
)

// firstPID is slot 0's process id; 1000 keeps PIDs visually distinct from
// thread slots in perf records.
const firstPID = 1000

// Thread is one application thread — under INSPECTOR, a forked process
// (clone(): shared descriptors and signal handlers, private address
// space). All methods must be called from the goroutine running the
// thread's function.
type Thread struct {
	rt     *Runtime
	slot   int            // dense index 0..T-1: vector-clock component, CPG shard
	space  *mem.Space     // private view of the shared backings
	clk    *vtime.Clock   // virtual time, started at the parent's spawn point
	rec    *core.Recorder // nil in native mode
	enc    *pt.Encoder    // nil in native mode
	tracer *pt.Tracer     // nil in native mode

	lastPTBytes uint64
	// lastLostBytes is the encoder loss counter observed at the previous
	// boundary check; a positive delta marks a trace gap on the sealing
	// sub-computation.
	lastLostBytes uint64

	// condSites/indSites cache label -> site resolutions per thread, so
	// the per-branch path skips the image's RWMutex + shared map. Each
	// entry pairs the image site (for the PT tracer) with the CPG's
	// interned site ref (for the recorder), so a branch resolves both
	// with one lookup and the recorder never sees a string. Kind
	// consistency still holds: each cache is only ever filled through
	// MustSite with its own kind, so a label misused across kinds fails
	// on its first use exactly as before.
	condSites map[string]cachedSite
	indSites  map[string]cachedSite

	appCycles       vtime.Cycles
	threadingCycles vtime.Cycles
	ptCycles        vtime.Cycles

	loads, stores, branches, alu uint64

	join     syncPoint // released once, at exit; Join acquires it
	joinCh   chan struct{}
	finished bool
}

// cachedSite is one thread-local site-cache entry: the image site the PT
// encoder needs and the interned ref the CPG recorder stores.
type cachedSite struct {
	site *image.Site
	ref  core.SiteRef
}

// faultSink routes protection faults into the thread's recorder and cost
// accounting (the SIGSEGV handler of §V-A). Fault.Page is the page id the
// memory substrate resolved during its (cached) page lookup; it flows
// into the recorder's read/write sets as-is, so no layer re-derives the
// id from the faulting address.
type faultSink struct{ t *Thread }

// OnFault implements mem.FaultHandler.
func (f faultSink) OnFault(ft mem.Fault) {
	t := f.t
	t.charge(CatThreading, t.rt.model.PageFault)
	switch ft.Kind {
	case mem.AccessRead:
		t.rec.OnRead(uint64(ft.Page))
	case mem.AccessWrite:
		// The write fault also pays for the twin copy made for diffing.
		t.charge(CatThreading, t.rt.model.TwinCopyPerPage)
		t.rec.OnWrite(uint64(ft.Page))
	}
}

// newThread creates the process (address space, clock), recorder, and PT
// plumbing for the thread of a reserved slot. parent is nil for the main
// thread.
func (rt *Runtime) newThread(parent *Thread, slot int, name string) (*Thread, error) {
	t := &Thread{rt: rt, slot: slot}
	tracking := rt.opts.Mode == ModeInspector

	var origin vtime.Cycles
	if parent != nil {
		origin = parent.clk.Now()
	}
	var handler mem.FaultHandler
	if tracking {
		handler = faultSink{t: t}
	}
	t.space = mem.NewSpace(t.PID(), rt.backings, handler, tracking)
	t.clk = vtime.NewClock(origin)
	rt.acct.Register(t.clk)
	rt.threadsMu.Lock()
	rt.threads[slot] = t
	rt.threadsMu.Unlock()

	if tracking {
		rec, err := core.NewRecorder(rt.graph, slot, t.clk.Now())
		if err != nil {
			return nil, err
		}
		t.rec = rec
		stream := rt.sess.Attach(t.PID())
		rt.sess.RecordComm(t.PID(), name)
		rt.sess.RecordMMAP(t.PID(), image.CodeBase, uint64(rt.img.Len()*image.SiteSpacing), rt.opts.AppName+".text")
		var sink pt.ByteSink = stream
		if rt.opts.WrapTraceSink != nil {
			sink = rt.opts.WrapTraceSink(stream)
		}
		t.enc = pt.NewEncoder(sink, pt.EncoderOptions{
			TSC: func() uint64 { return uint64(t.clk.Now()) },
		})
		tracer, err := pt.NewTracer(t.enc, rt.img, fmt.Sprintf("__exit_t%d__", slot))
		if err != nil {
			return nil, err
		}
		t.tracer = tracer
		t.condSites = make(map[string]cachedSite)
		t.indSites = make(map[string]cachedSite)
	}

	t.join.obj = rt.graph.NewSyncObject(fmt.Sprintf("join:t%d", slot), false)
	t.joinCh = make(chan struct{})
	return t, nil
}

// charge adds cycles to the thread's clock under the given category.
func (t *Thread) charge(cat Category, c vtime.Cycles) {
	if c == 0 {
		return
	}
	t.clk.Advance(c)
	switch cat {
	case CatThreading:
		t.threadingCycles += c
	case CatPT:
		t.ptCycles += c
	default:
		t.appCycles += c
	}
}

// onLoad and onStore fold the per-access bookkeeping — operation count,
// one retired instruction, the app-category cycle charge — into a single
// call without charge's category dispatch. Every tracked access pays this
// path, so it stays flat: two counter bumps, one clock advance, one
// recorder bump.
func (t *Thread) onLoad() {
	t.loads++
	if t.rec != nil {
		t.rec.OnInstructions(1)
	}
	c := t.rt.model.Load
	t.clk.Advance(c)
	t.appCycles += c
}

func (t *Thread) onStore() {
	t.stores++
	if t.rec != nil {
		t.rec.OnInstructions(1)
	}
	c := t.rt.model.Store
	t.clk.Advance(c)
	t.appCycles += c
}

// ptByteCycles returns the consumer-side cost of the trace bytes
// emitted since the last call, for the caller to charge as CatPT.
func (t *Thread) ptByteCycles() vtime.Cycles {
	if t.enc == nil {
		return 0
	}
	b := t.enc.BytesWritten()
	delta := b - t.lastPTBytes
	if delta <= 0 {
		return 0
	}
	t.lastPTBytes = b
	return vtime.Cycles(delta) * t.rt.model.PTBytePersist
}

// Slot returns the thread's dense slot index.
func (t *Thread) Slot() int { return t.slot }

// PID returns the backing process id: the slot as perf records render it.
func (t *Thread) PID() int32 { return firstPID + int32(t.slot) }

// Runtime returns the owning runtime.
func (t *Thread) Runtime() *Runtime { return t.rt }

// Now returns the thread's virtual time.
func (t *Thread) Now() vtime.Cycles { return t.clk.Now() }

// segv converts an address-space error into a simulated SIGSEGV crash.
// The real library would deliver a fatal signal; a workload touching
// unmapped memory is a bug in the workload, not a recoverable condition.
func (t *Thread) segv(op string, addr mem.Addr, err error) {
	panic(fmt.Sprintf("thread %d: %s at %#x: %v", t.slot, op, uint64(addr), err))
}

// Load8 reads one byte of tracked memory.
func (t *Thread) Load8(a mem.Addr) uint8 {
	t.onLoad()
	v, err := t.space.LoadU8(a)
	if err != nil {
		t.segv("load8", a, err)
	}
	return v
}

// Load32 reads a uint32.
func (t *Thread) Load32(a mem.Addr) uint32 {
	t.onLoad()
	v, err := t.space.LoadU32(a)
	if err != nil {
		t.segv("load32", a, err)
	}
	return v
}

// Load64 reads a uint64.
func (t *Thread) Load64(a mem.Addr) uint64 {
	t.onLoad()
	v, err := t.space.LoadU64(a)
	if err != nil {
		t.segv("load64", a, err)
	}
	return v
}

// LoadF64 reads a float64.
func (t *Thread) LoadF64(a mem.Addr) float64 {
	t.onLoad()
	v, err := t.space.LoadF64(a)
	if err != nil {
		t.segv("loadf64", a, err)
	}
	return v
}

// Store8 writes one byte.
func (t *Thread) Store8(a mem.Addr, v uint8) {
	t.onStore()
	conflicts, err := t.space.StoreU8(a, v)
	if err != nil {
		t.segv("store8", a, err)
	}
	t.chargeConflicts(conflicts)
}

// Store32 writes a uint32.
func (t *Thread) Store32(a mem.Addr, v uint32) {
	t.onStore()
	conflicts, err := t.space.StoreU32(a, v)
	if err != nil {
		t.segv("store32", a, err)
	}
	t.chargeConflicts(conflicts)
}

// Store64 writes a uint64.
func (t *Thread) Store64(a mem.Addr, v uint64) {
	t.onStore()
	conflicts, err := t.space.StoreU64(a, v)
	if err != nil {
		t.segv("store64", a, err)
	}
	t.chargeConflicts(conflicts)
}

// StoreF64 writes a float64.
func (t *Thread) StoreF64(a mem.Addr, v float64) {
	t.onStore()
	conflicts, err := t.space.StoreF64(a, v)
	if err != nil {
		t.segv("storef64", a, err)
	}
	t.chargeConflicts(conflicts)
}

// Read copies tracked memory into buf, costed per 8-byte word.
func (t *Thread) Read(a mem.Addr, buf []byte) {
	words := uint64(len(buf)+7) / 8
	t.loads += words
	t.countInstr(words)
	t.charge(CatApp, vtime.Cycles(words)*t.rt.model.Load)
	if err := t.space.Read(a, buf); err != nil {
		t.segv("read", a, err)
	}
}

// Write copies data into tracked memory, costed per 8-byte word.
func (t *Thread) Write(a mem.Addr, data []byte) {
	words := uint64(len(data)+7) / 8
	t.stores += words
	t.countInstr(words)
	t.charge(CatApp, vtime.Cycles(words)*t.rt.model.Store)
	conflicts, err := t.space.Write(a, data)
	if err != nil {
		t.segv("write", a, err)
	}
	t.chargeConflicts(conflicts)
}

// chargeConflicts applies the native-mode false-sharing penalty.
func (t *Thread) chargeConflicts(conflicts int) {
	if conflicts > 0 {
		t.charge(CatApp, vtime.Cycles(conflicts)*t.rt.model.FalseSharingPenalty)
	}
}

// countInstr counts retired instructions into the current thunk.
func (t *Thread) countInstr(n uint64) {
	if t.rec != nil {
		t.rec.OnInstructions(n)
	}
}

// Compute charges n generic ALU instructions of pure computation.
func (t *Thread) Compute(n uint64) {
	t.alu += n
	t.charge(CatApp, vtime.Cycles(n)*t.rt.model.ALU)
	if t.rec != nil {
		t.rec.OnInstructions(n)
	}
}

// Branch records a conditional branch at the labelled site and returns
// cond so it can wrap a Go condition inline:
//
//	for t.Branch("loop.head", i < n) { ... }
//
// Under INSPECTOR the branch emits a TNT bit into the thread's PT trace
// and closes the current thunk.
func (t *Thread) Branch(label string, cond bool) bool {
	t.branches++
	t.charge(CatApp, t.rt.model.Branch)
	if t.rec != nil {
		cs, ok := t.condSites[label]
		if !ok {
			cs = cachedSite{
				site: t.rt.img.MustSite(label, image.Conditional),
				ref:  t.rt.graph.InternSite(label),
			}
			t.condSites[label] = cs
		}
		t.rec.OnBranch(cs.ref, cond)
		t.tracer.OnCond(cs.site, cond)
		// One charge for the branch and the bytes it emitted: the same
		// category, and no clock read between them.
		t.charge(CatPT, t.rt.model.PTBranchOverhead+t.ptByteCycles())
	}
	return cond
}

// Indirect records an indirect control transfer (function pointer call,
// return) at the labelled site. Under INSPECTOR it emits a TIP packet.
func (t *Thread) Indirect(label string) {
	t.branches++
	t.charge(CatApp, t.rt.model.Branch)
	if t.rec != nil {
		cs, ok := t.indSites[label]
		if !ok {
			cs = cachedSite{
				site: t.rt.img.MustSite(label, image.Indirect),
				ref:  t.rt.graph.InternSite(label),
			}
			t.indSites[label] = cs
		}
		// The indirect's target is the next executed site; the recorder
		// thunk records the site now (target ref 0 = unresolved) and the
		// tracer resolves the target from the following event.
		t.rec.OnIndirect(cs.ref, 0)
		t.tracer.OnIndirect(cs.site)
		t.charge(CatPT, t.rt.model.PTBranchOverhead+t.ptByteCycles())
	}
}

// Malloc allocates size bytes from the shared heap through the wrapped
// allocator. The allocation header is written through tracked memory, so
// allocator-heavy workloads (reverse_index) fault on allocator pages —
// the effect §VII-A blames for that benchmark's overhead.
func (t *Thread) Malloc(size int) mem.Addr {
	if size <= 0 {
		size = 1
	}
	rt := t.rt
	rt.allocMu.Lock()
	const header = 16
	base := rt.heapNext
	total := mem.Addr((size + header + 15) & ^15)
	rt.heapNext += total
	rt.allocMu.Unlock()
	cat := CatApp
	if rt.opts.Mode == ModeInspector {
		cat = CatThreading
	}
	t.charge(cat, rt.model.MallocOp)
	// Header write through tracked space (allocation size bookkeeping).
	t.stores++
	conflicts, err := t.space.StoreU64(base, uint64(size))
	if err != nil {
		t.segv("malloc header", base, err)
	}
	t.chargeConflicts(conflicts)
	return base + header
}

// Free releases an allocation (bookkeeping cost only; the bump allocator
// does not recycle).
func (t *Thread) Free(addr mem.Addr) {
	cat := CatApp
	if t.rt.opts.Mode == ModeInspector {
		cat = CatThreading
	}
	t.charge(cat, t.rt.model.MallocOp)
	_ = addr
}

// syncBoundary ends the current sub-computation: commit the dirty pages
// (shared-memory commit of §V-A), charge the diff/commit costs, and close
// the vertex. Returns the completed sub-computation (nil in native mode).
func (t *Thread) syncBoundary(ev core.SyncEvent) *core.SubComputation {
	t.charge(CatApp, t.rt.model.SyncOp)
	if t.rec == nil {
		return nil
	}
	res := t.space.Commit()
	m := t.rt.model
	t.charge(CatThreading,
		vtime.Cycles(res.DiffedBytes)*m.DiffPerByte+
			vtime.Cycles(res.CommittedBytes)*m.CommitPerByte+
			vtime.Cycles(t.rt.opts.MaxThreads)*m.VectorClockPerSlot)
	t.checkTraceLoss(core.GapAuxLoss)
	sub, err := t.rec.EndSub(ev, t.clk.Now())
	if err != nil {
		// An out-of-order alpha is an internal invariant violation.
		panic(fmt.Sprintf("thread %d: %v", t.slot, err))
	}
	t.rt.notifyCommit(sub.ID)
	return sub
}

// checkTraceLoss polls the encoder's loss counter and, on a positive
// delta since the previous check, marks a gap of the given kind on the
// sub-computation currently being sealed. Between two boundaries exactly
// one sub-computation records, so the delta attributes to the current
// alpha. This is how AUX ring overruns (and injected loss — both appear
// as partial sink accepts) become first-class uncertainty in the CPG.
func (t *Thread) checkTraceLoss(kind core.GapKind) {
	if t.enc == nil {
		return
	}
	lost := t.enc.LostBytes()
	if lost <= t.lastLostBytes {
		return
	}
	cur := t.rec.Alpha()
	t.rec.MarkGap(core.Gap{FromAlpha: cur, ToAlpha: cur, Kind: kind, Bytes: lost - t.lastLostBytes})
	t.lastLostBytes = lost
}

// Spawn creates a new thread running fn — the pthread_create wrapper.
// Under INSPECTOR the child is forked as a process (clone()), which costs
// ProcessSpawn rather than ThreadSpawn; the difference dominates
// thread-churning workloads like kmeans.
func (t *Thread) Spawn(fn func(*Thread)) *Thread {
	rt := t.rt
	slot, err := rt.allocSlot()
	if err != nil {
		panic(fmt.Sprintf("thread %d: spawn: %v", t.slot, err))
	}
	spawn := &syncPoint{obj: rt.graph.NewSyncObject(fmt.Sprintf("spawn:t%d", slot), false)}

	// Parent side: the spawn is a release to the child.
	if t.rec != nil {
		t.charge(CatThreading, rt.model.ProcessSpawn)
		t.release(spawn)
	} else {
		// A native pthread_create costs a thread spawn, not a sync op.
		t.charge(CatApp, rt.model.ThreadSpawn)
		spawn.vt.Release(t.clk.Now())
	}

	child, err := rt.newThread(t, slot, fmt.Sprintf("%s-w%d", rt.opts.AppName, slot))
	if err != nil {
		panic(fmt.Sprintf("thread %d: spawn: %v", t.slot, err))
	}

	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		// Child side: starting is an acquire of the parent's release.
		// Under INSPECTOR the child also pays its own process setup
		// (perf attach, address-space init) on its own clock, so sibling
		// setups overlap — only the parent's clone() calls serialize.
		child.acquired(spawn)
		if child.rec != nil {
			child.charge(CatThreading, rt.model.ProcessSpawn)
		}
		// A panicking child degrades the recording (gap + error on the
		// runtime) instead of crashing the process; finishThread still
		// seals the thread and releases any parent blocked in Join.
		rt.runBody(child, fn)
		rt.finishThread(child)
	}()
	return child
}

// Join blocks until the child thread finishes — the pthread_join wrapper.
func (t *Thread) Join(child *Thread) { t.acquire(&child.join, func() { <-child.joinCh }) }

// finish closes the thread: final sub-computation, join release, PT trace
// termination, perf exit record.
func (t *Thread) finish() {
	if t.finished {
		return
	}
	t.finished = true
	sub := t.syncBoundary(core.SyncEvent{Kind: core.SyncRelease, Object: t.join.obj.Ref()})
	if sub != nil {
		t.rec.Release(t.join.obj, sub)
		t.tracer.Close()
		t.charge(CatPT, t.ptByteCycles())
		// Trace bytes flushed by the tracer teardown can still be refused
		// by the ring; that loss belongs to the just-sealed final
		// sub-computation and marks the stream as truncated.
		if lost := t.enc.LostBytes(); lost > t.lastLostBytes {
			last := sub.ID.Alpha
			t.rec.MarkGap(core.Gap{
				FromAlpha: last, ToAlpha: last,
				Kind: core.GapTruncated, Bytes: lost - t.lastLostBytes,
			})
			t.lastLostBytes = lost
		}
		if stream, ok := t.rt.sess.Stream(t.PID()); ok {
			stream.Drain()
		}
		t.rt.sess.RecordExit(t.PID())
	}
	// Virtual time is published after the trace teardown, so a joiner
	// also waits for the final trace flush.
	t.join.vt.Release(t.clk.Now())
	close(t.joinCh)
}
