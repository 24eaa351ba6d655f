// DIFT case study (paper §VIII, "Security"): dynamic information flow
// tracking over the CPG. A taint seeded on sensitive input propagates
// along data-dependence edges; a policy checker at the output boundary
// refuses to emit data whose provenance reaches the sensitive source —
// the paper's proposed glibc-wrapper policy check, built on DescendantsCtx.
//
// Run with: go run ./examples/dift
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	inspector "github.com/repro/inspector"
)

func main() {
	a, err := audit()
	if err != nil {
		log.Fatal(err)
	}
	a.print(os.Stdout)
}

// decision is the output policy's verdict on one write() call.
type decision struct {
	from   inspector.SubID
	secret bool // it emits the secret-derived result, not the public one
	allow  bool
}

// findings is what the audit prints: the tainted sub-computations, and a
// verdict per output call.
type findings struct {
	tainted   []inspector.SubID
	decisions []decision
}

// audit records the program, propagates the taint from the sensitive
// input and judges each output call.
func audit() (*findings, error) {
	rt, err := inspector.New(inspector.Options{AppName: "dift"})
	if err != nil {
		return nil, err
	}

	// Two inputs: a public dataset and a sensitive credentials blob.
	publicAddr, err := rt.MapInput("public.csv", []byte("price,qty\n10,3\n20,7\n"))
	if err != nil {
		return nil, err
	}
	secretAddr, err := rt.MapInput("credentials.txt", []byte("api-key: hunter2"))
	if err != nil {
		return nil, err
	}

	m := rt.NewMutex("results")
	var pubOut, secOut inspector.Addr

	_, err = rt.Run(func(main *inspector.Thread) {
		pubOut = main.Malloc(8)
		// Page-granularity provenance cannot distinguish two flows that
		// share a page, so keep the sensitive output on its own page.
		_ = main.Malloc(8192) // spacer
		secOut = main.Malloc(8)

		// Worker 1 aggregates the public data.
		w1 := main.Spawn(func(w *inspector.Thread) {
			var sum uint64
			for i := 0; i < 3; i++ {
				sum += uint64(w.Load8(publicAddr + inspector.Addr(i)))
				w.Branch("agg.loop", i < 2)
			}
			m.Lock(w)
			w.Store64(pubOut, sum)
			m.Unlock(w)
		})
		// Worker 2 derives a session token FROM THE SECRET.
		w2 := main.Spawn(func(w *inspector.Thread) {
			tok := uint64(w.Load8(secretAddr)) * 31
			m.Lock(w)
			w.Store64(secOut, tok)
			m.Unlock(w)
		})
		main.Join(w1)
		main.Join(w2)

		// Main "emits" each result through its own output call, so the
		// two flows land in distinct sub-computations the policy checker
		// can judge independently.
		m.Lock(main)
		_ = main.Load64(pubOut)
		m.Unlock(main)
		m.Lock(main)
		_ = main.Load64(secOut)
		m.Unlock(main)
	})
	if err != nil {
		return nil, err
	}

	analysis := rt.CPG().Analyze()

	// Seed: every sub-computation that read a page of the sensitive
	// mapping is a taint source.
	// Taint propagates along data edges (cross-thread flows through
	// shared pages) and control edges (within a thread, a value derived
	// from the secret survives in registers across sub-computation
	// boundaries — page-granularity tracking must be conservative here).
	secretPage := uint64(secretAddr) / 4096
	taint := map[inspector.SubID]bool{}
	for _, sc := range rt.CPG().Subs() {
		if sc.ReadSet.Contains(secretPage) {
			taint[sc.ID] = true
			flows, err := analysis.DescendantsCtx(context.Background(), sc.ID, inspector.EdgeData, inspector.EdgeControl)
			if err != nil {
				return nil, err
			}
			for _, id := range flows {
				taint[id] = true
			}
		}
	}
	f := &findings{}
	for _, sc := range rt.CPG().Subs() {
		if taint[sc.ID] {
			f.tainted = append(f.tainted, sc.ID)
		}
	}

	// Policy check at the "output" boundary: an emit is allowed only if
	// the emitting sub-computation is untainted.
	pubPage, secPage := uint64(pubOut)/4096, uint64(secOut)/4096
	for _, sc := range rt.CPG().Subs() {
		if sc.ID.Thread != 0 {
			continue
		}
		emitsPub := sc.ReadSet.Contains(pubPage)
		emitsSec := sc.ReadSet.Contains(secPage)
		if !emitsPub && !emitsSec {
			continue
		}
		f.decisions = append(f.decisions, decision{from: sc.ID, secret: emitsSec, allow: !taint[sc.ID]})
	}
	return f, nil
}

// print writes the tainted sub-computations and the policy's verdicts.
func (f *findings) print(w io.Writer) {
	fmt.Fprintf(w, "tainted sub-computations (touched data derived from credentials.txt):\n")
	for _, id := range f.tainted {
		fmt.Fprintf(w, "  %v\n", id)
	}
	fmt.Fprintln(w, "\npolicy decisions for the output syscalls:")
	for _, d := range f.decisions {
		verdict := "ALLOW"
		if !d.allow {
			verdict = "DENY (tainted by sensitive input)"
		}
		fmt.Fprintf(w, "  write() from %v -> %s\n", d.from, verdict)
	}
}
