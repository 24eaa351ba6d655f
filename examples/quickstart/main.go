// Quickstart: record the provenance of a small multithreaded computation
// and inspect the resulting Concurrent Provenance Graph.
//
// Run with: go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"

	inspector "github.com/repro/inspector"
)

func main() {
	f, err := record()
	if err != nil {
		log.Fatal(err)
	}
	f.print(os.Stdout)
}

// findings is what the quickstart prints: the program's result, the
// run's statistics, the CPG's edges, the branch events the PT traces
// reconstruct, and the Graphviz render.
type findings struct {
	finalY           uint64
	report           *inspector.Report
	subs             int
	edges            []inspector.Edge
	branches, traces int
	dot              []byte
}

// record runs the Figure-1 execution and reads its provenance back.
func record() (*findings, error) {
	rt, err := inspector.New(inspector.Options{AppName: "quickstart"})
	if err != nil {
		return nil, err
	}

	m := rt.NewMutex("shared")
	f := &findings{}

	// The classic Figure-1 execution from the paper: two threads update
	// shared variables x and y under a lock.
	f.report, err = rt.Run(func(main *inspector.Thread) {
		x := main.Malloc(8)
		y := main.Malloc(8)

		// T1.a: x = ++y (y starts at zero).
		m.Lock(main)
		yv := main.Load64(y) + 1
		main.Store64(y, yv)
		if main.Branch("flag.if", yv%2 == 1) {
			main.Store64(x, yv)
		} else {
			main.Store64(x, yv+5)
		}
		m.Unlock(main)

		// T2: y = 2 * x.
		t2 := main.Spawn(func(w *inspector.Thread) {
			m.Lock(w)
			w.Store64(y, 2*w.Load64(x))
			m.Unlock(w)
		})
		main.Join(t2)

		// T1.b: y = y / 2.
		m.Lock(main)
		main.Store64(y, main.Load64(y)/2)
		m.Unlock(main)

		f.finalY = main.Load64(y)
	})
	if err != nil {
		return nil, err
	}

	// The CPG records what happened: sub-computations per thread, the
	// schedule dependencies through the lock, and the data flow between
	// the threads' read/write sets.
	cpg := rt.CPG()
	analysis := cpg.Analyze()
	if err := analysis.Verify(); err != nil {
		return nil, fmt.Errorf("invalid CPG: %w", err)
	}
	f.subs, f.edges = cpg.NumSubs(), analysis.Edges()

	// The PT traces reconstruct the exact control flow.
	counts, err := rt.DecodeTraces()
	if err != nil {
		return nil, err
	}
	for _, n := range counts {
		f.branches += n
	}
	f.traces = len(counts)

	// Export for cpg-query / Graphviz.
	var dot bytes.Buffer
	if err := rt.WriteDOT(&dot); err != nil {
		return nil, err
	}
	f.dot = dot.Bytes()
	return f, nil
}

// print writes the findings in the order the run produced them.
func (f *findings) print(w io.Writer) {
	fmt.Fprintf(w, "final y = %d\n", f.finalY)
	fmt.Fprintf(w, "run: time=%v work=%v faults=%d trace=%dB\n",
		f.report.Time, f.report.Work, f.report.Faults(), f.report.TraceBytes)
	fmt.Fprintf(w, "CPG: %d sub-computations\n", f.subs)
	for _, e := range f.edges {
		fmt.Fprintf(w, "  %v -> %v (%v %s)\n", e.From, e.To, e.Kind, e.Object)
	}
	fmt.Fprintf(w, "PT: %d branch events reconstructed from %d traces\n", f.branches, f.traces)
	w.Write(f.dot)
}
