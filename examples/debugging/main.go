// Debugging case study (paper §VIII, "Dependability"): explain *why* a
// multithreaded program reached a bad state, not just *what* the state
// is.
//
// A bank account is updated by a depositor and a fee collector. The fee
// collector has an order-dependent bug: it applies a percentage fee, so
// the final balance depends on whether the fee lands before or after the
// deposit. A core dump would only show the wrong balance; the CPG shows
// which interleaving produced it and which sub-computations fed the
// value.
//
// Run with: go run ./examples/debugging
package main

import (
	"context"
	"fmt"
	"log"

	inspector "github.com/repro/inspector"
)

func main() {
	rt, err := inspector.New(inspector.Options{AppName: "debugging"})
	if err != nil {
		log.Fatal(err)
	}
	m := rt.NewMutex("account")

	var balanceAddr inspector.Addr
	var final uint64

	report, err := rt.Run(func(main *inspector.Thread) {
		balanceAddr = main.Malloc(8)
		main.Store64(balanceAddr, 1000) // opening balance

		depositor := main.Spawn(func(w *inspector.Thread) {
			m.Lock(w)
			w.Store64(balanceAddr, w.Load64(balanceAddr)+500)
			m.Unlock(w)
		})
		feeCollector := main.Spawn(func(w *inspector.Thread) {
			m.Lock(w)
			// BUG: percentage fee makes the outcome order-dependent.
			bal := w.Load64(balanceAddr)
			w.Store64(balanceAddr, bal-bal/10)
			m.Unlock(w)
		})
		main.Join(depositor)
		main.Join(feeCollector)

		m.Lock(main)
		final = main.Load64(balanceAddr)
		m.Unlock(main)
	})
	if err != nil {
		log.Fatal(err)
	}
	_ = report

	fmt.Printf("final balance: %d (1400 if the fee ran first, 1350 if the deposit ran first)\n\n", final)

	// A live snapshot is a retained epoch of the recording's fold, kept
	// only under Options.SnapshotMode: TakeSnapshot's ok result
	// distinguishes "snapshot mode is off" (this run) from "an empty
	// capture" (possible early in a SnapshotMode run).
	if _, ok := rt.TakeSnapshot(); !ok {
		fmt.Println("(no live snapshots: set Options.SnapshotMode to capture consistent cuts mid-run)")
	}

	// Post-mortem through the versioned query API — the same queries
	// cpg-query and inspector-serve answer. The data edges name the
	// exact sub-computations whose writes produced the value, and the
	// sync edges expose the schedule.
	ctx := context.Background()
	if res, err := rt.Query(ctx, inspector.Query{Kind: inspector.QueryVerify}); err != nil {
		log.Fatal(err)
	} else if !*res.Valid {
		log.Fatalf("CPG invalid: %s", res.Detail)
	}

	// Find the main thread's final balance-reading sub-computation.
	page := uint64(balanceAddr) / 4096
	var lastReader inspector.SubID
	for _, sc := range rt.CPG().Subs() {
		if sc.ID.Thread == 0 && sc.ReadSet.Contains(page) {
			lastReader = sc.ID
		}
	}
	fmt.Printf("the final read of the balance page happened in %v\n", lastReader)

	lineage, err := rt.Query(ctx, inspector.Query{
		Kind:   inspector.QueryLineage,
		Target: lastReader.String(),
		Page:   &page,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, lin := range lineage.Lineages {
		fmt.Printf("value came from a write in %v", lin.Writer)
		if len(lin.Upstream) > 0 {
			fmt.Printf(", which itself consumed data from %v", lin.Upstream)
		}
		fmt.Println()
	}

	fmt.Println("\nschedule dependencies through the account lock:")
	edges, err := rt.Query(ctx, inspector.Query{
		Kind:      inspector.QueryEdges,
		EdgeKinds: []string{"sync"},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range edges.Edges {
		if e.Object == "mutex:account" {
			fmt.Printf("  %v released the lock to %v\n", e.From, e.To)
		}
	}

	fmt.Println("\nbackward slice of the final read (everything that may have affected it):")
	slice, err := rt.Query(ctx, inspector.Query{
		Kind:   inspector.QuerySlice,
		Target: lastReader.String(),
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, id := range slice.IDs {
		fmt.Printf("  %v\n", id)
	}
}
