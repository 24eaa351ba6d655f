// NUMA case study (paper §VIII, "Efficiency"): derive memory-placement
// advice from the CPG. The read/write sets record which thread touches
// which pages; aggregating them yields a page-affinity map, from which a
// NUMA-aware allocator could pin pages next to their dominant consumer —
// the MemProf-style optimization the paper proposes building on
// INSPECTOR.
//
// Run with: go run ./examples/numa
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	inspector "github.com/repro/inspector"
)

// pagesPerThread is the size of each thread's private region, in pages.
const pagesPerThread = 8

// nodeOf models a two-socket machine: even thread slots on node 0, odd
// on node 1.
func nodeOf(thread int) int { return thread % 2 }

func main() {
	f, err := advise()
	if err != nil {
		log.Fatal(err)
	}
	f.print(os.Stdout)
}

// placement is the advice for one page: bind it to its dominant
// consumer's node — exclusive when no other thread touched it — or, when
// no thread holds a majority of its touches, interleave it (thread -1).
type placement struct {
	page        uint64
	thread      int
	exclusive   bool
	touches, of int // the dominant consumer's touches, all touches
}

// findings is what the case study prints — one placement per touched
// page, in page order — and the layout it was derived from: the page
// every worker polls and each thread's private region.
type findings struct {
	placements []placement
	sharedPage uint64
	regions    []inspector.Addr
}

// advise records the mixed-affinity program and derives a placement for
// every page it touched.
func advise() (*findings, error) {
	rt, err := inspector.New(inspector.Options{AppName: "numa"})
	if err != nil {
		return nil, err
	}

	const threads = 4
	bar := rt.NewBarrier("phase", threads)

	var shared inspector.Addr
	regions := make([]inspector.Addr, threads)
	_, err = rt.Run(func(main *inspector.Thread) {
		// Each worker owns a private region but also polls one shared
		// page — the classic mixed-affinity layout.
		shared = main.Malloc(8)
		for i := range regions {
			regions[i] = main.Malloc(pagesPerThread * 4096)
		}
		var ws []*inspector.Thread
		for i := 1; i < threads; i++ {
			i := i
			ws = append(ws, main.Spawn(func(w *inspector.Thread) {
				work(w, regions[i], shared, bar)
			}))
		}
		work(main, regions[0], shared, bar)
		for _, w := range ws {
			main.Join(w)
		}
	})
	if err != nil {
		return nil, err
	}

	// Aggregate page affinity from the CPG's access sets.
	pages := map[uint64]map[int]int{} // page -> thread -> touch count
	for _, sc := range rt.CPG().Subs() {
		record := func(p uint64) {
			if pages[p] == nil {
				pages[p] = map[int]int{}
			}
			pages[p][sc.ID.Thread]++
		}
		for _, p := range sc.ReadSet.Sorted() {
			record(p)
		}
		for _, p := range sc.WriteSet.Sorted() {
			record(p)
		}
	}

	var ids []uint64
	for p := range pages {
		ids = append(ids, p)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	f := &findings{sharedPage: uint64(shared) / 4096, regions: regions}
	for _, p := range ids {
		touches := pages[p]
		best, bestN, total := -1, 0, 0
		for th, n := range touches {
			total += n
			if n > bestN {
				best, bestN = th, n
			}
		}
		pl := placement{page: p, thread: best, exclusive: len(touches) == 1, touches: bestN, of: total}
		if bestN*2 <= total {
			pl.thread, pl.exclusive = -1, false
		}
		f.placements = append(f.placements, pl)
	}
	return f, nil
}

// print writes the placement table and its summary.
func (f *findings) print(w io.Writer) {
	fmt.Fprintln(w, "page      dominant-thread  node  advice")
	var local, remote, contended int
	for _, pl := range f.placements {
		switch {
		case pl.thread < 0:
			contended++
			fmt.Fprintf(w, "%-9d -%-15s %-5s interleave (no dominant consumer)\n", pl.page, "", "-")
		case pl.exclusive:
			local++
			fmt.Fprintf(w, "%-9d T%-15d %-5d bind to node %d (exclusive)\n", pl.page, pl.thread, nodeOf(pl.thread), nodeOf(pl.thread))
		default:
			remote++
			fmt.Fprintf(w, "%-9d T%-15d %-5d bind to node %d (dominant: %d/%d touches)\n",
				pl.page, pl.thread, nodeOf(pl.thread), nodeOf(pl.thread), pl.touches, pl.of)
		}
	}
	fmt.Fprintf(w, "\nsummary: %d exclusive pages, %d dominant pages, %d contended pages\n",
		local, remote, contended)
}

// work touches the private region heavily and the shared page lightly.
func work(w *inspector.Thread, region, shared inspector.Addr, bar *inspector.Barrier) {
	for round := 0; round < 3; round++ {
		for p := 0; p < pagesPerThread; p++ {
			addr := region + inspector.Addr(p*4096)
			w.Store64(addr, w.Load64(addr)+1)
			w.Branch("numa.page", p+1 < pagesPerThread)
		}
		_ = w.Load64(shared)
		bar.Wait(w)
	}
}
