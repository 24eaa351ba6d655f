// Package cpgbench generates the deterministic random executions that
// benchmarks and tests across the repo record into a core.Graph:
// BuildRandomGraph for a finished graph, Schedule for an execution
// replayed in chunks with an analysis between them (internal/core's
// live-fold benchmarks and its large-schedule equivalence test).
// Everything drives the public core API only, so the same executions
// remain valid across store rewrites.
package cpgbench

import (
	"math/rand"

	"github.com/repro/inspector/internal/core"
)

func newRecorders(g *core.Graph) []*core.Recorder {
	recs := make([]*core.Recorder, g.Threads())
	for i := range recs {
		r, err := core.NewRecorder(g, i, 0)
		if err != nil {
			panic(err)
		}
		recs[i] = r
	}
	return recs
}

// BuildRandomGraph records a deterministic random execution: steps
// sub-computations spread over threads recorders, each reading/writing rw
// random pages in [0, pageRange) while holding one mutex — it acquires
// the mutex before its sub-computation and releases it after — so the
// mutex changes hands between threads, which gives the derivation a
// rich happens-before web of sync edges.
func BuildRandomGraph(threads, steps, pageRange, rw int, seed int64) *core.Graph {
	r := rand.New(rand.NewSource(seed))
	g := core.NewGraph(threads)
	recs := newRecorders(g)
	lock := g.NewSyncObject("l", false)
	ev := core.SyncEvent{Kind: core.SyncRelease, Object: lock.Ref()}
	for s := 0; s < steps; s++ {
		rec := recs[r.Intn(threads)]
		rec.Acquire(lock)
		for i := 0; i < rw; i++ {
			rec.OnRead(uint64(r.Intn(pageRange)))
			rec.OnWrite(uint64(r.Intn(pageRange)))
		}
		sc, err := rec.EndSub(ev, 0)
		if err != nil {
			panic(err)
		}
		rec.Release(lock, sc)
	}
	return g
}

// Schedule is one deterministic pre-drawn recording schedule, so
// scenarios that analyze an execution while it grows replay identical
// executions without re-seeding rand inside a timed region.
type Schedule struct {
	threads int
	// thread[i], pages[i] drive step i: thread[i] acquires the mutex,
	// reads pages[i][0..rw) and writes pages[i][rw..2rw), then releases
	// it.
	thread []int
	pages  [][]uint64
}

// DrawSchedule draws steps steps of the BuildRandomGraph shape.
func DrawSchedule(threads, steps, pageRange, rw int, seed int64) *Schedule {
	r := rand.New(rand.NewSource(seed))
	s := &Schedule{threads: threads}
	for i := 0; i < steps; i++ {
		s.thread = append(s.thread, r.Intn(threads))
		ps := make([]uint64, 2*rw)
		for j := range ps {
			ps[j] = uint64(r.Intn(pageRange))
		}
		s.pages = append(s.pages, ps)
	}
	return s
}

// Steps returns the schedule's length.
func (s *Schedule) Steps() int { return len(s.thread) }

// Replay is one recording of a Schedule into a fresh graph, advanced in
// chunks.
type Replay struct {
	Graph *core.Graph

	s    *Schedule
	recs []*core.Recorder
	lock *core.SyncObject
	done int
}

// NewReplay starts a recording of s at step 0.
func (s *Schedule) NewReplay() *Replay {
	g := core.NewGraph(s.threads)
	return &Replay{Graph: g, s: s, recs: newRecorders(g), lock: g.NewSyncObject("l", false)}
}

// To records the schedule's steps up to (excluding) step upto.
func (r *Replay) To(upto int) {
	ev := core.SyncEvent{Kind: core.SyncRelease, Object: r.lock.Ref()}
	for ; r.done < upto; r.done++ {
		rec := r.recs[r.s.thread[r.done]]
		ps := r.s.pages[r.done]
		rec.Acquire(r.lock)
		for j := 0; j < len(ps)/2; j++ {
			rec.OnRead(ps[j])
			rec.OnWrite(ps[len(ps)/2+j])
		}
		sc, err := rec.EndSub(ev, 0)
		if err != nil {
			panic(err)
		}
		rec.Release(r.lock, sc)
	}
}
