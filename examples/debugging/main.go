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
	"io"
	"log"
	"os"

	inspector "github.com/repro/inspector"
)

func main() {
	f, err := investigate()
	if err != nil {
		log.Fatal(err)
	}
	f.print(os.Stdout)
}

// finding is what the investigation prints: the final balance, the
// sub-computation that read it last, where that value came from, the
// lock's hand-offs and the read's backward slice.
type finding struct {
	final                   uint64
	depositor, feeCollector int // thread slots
	snapshots               bool
	lastReader              inspector.SubID
	lineage, sync, slice    *inspector.QueryResult
}

// investigate runs the buggy program and asks the CPG why the balance
// ended where it did.
func investigate() (*finding, error) {
	rt, err := inspector.New(inspector.Options{AppName: "debugging"})
	if err != nil {
		return nil, err
	}
	m := rt.NewMutex("account")

	var balanceAddr inspector.Addr
	f := &finding{}

	_, err = rt.Run(func(main *inspector.Thread) {
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
		f.depositor, f.feeCollector = depositor.Slot(), feeCollector.Slot()
		main.Join(depositor)
		main.Join(feeCollector)

		m.Lock(main)
		f.final = main.Load64(balanceAddr)
		m.Unlock(main)
	})
	if err != nil {
		return nil, err
	}

	// A live snapshot is a retained epoch of the recording's fold, kept
	// only under Options.SnapshotMode: TakeSnapshot's ok result
	// distinguishes "snapshot mode is off" (this run) from "an empty
	// capture" (possible early in a SnapshotMode run).
	_, f.snapshots = rt.TakeSnapshot()

	// Post-mortem through the versioned query API — the same queries
	// cpg-query and inspector-serve answer. The data edges name the
	// exact sub-computations whose writes produced the value, and the
	// sync edges expose the schedule.
	ctx := context.Background()
	if res, err := rt.Query(ctx, inspector.Query{Kind: inspector.QueryVerify}); err != nil {
		return nil, err
	} else if !*res.Valid {
		return nil, fmt.Errorf("CPG invalid: %s", res.Detail)
	}

	// Find the main thread's final balance-reading sub-computation.
	page := uint64(balanceAddr) / 4096
	for _, sc := range rt.CPG().Subs() {
		if sc.ID.Thread == 0 && sc.ReadSet.Contains(page) {
			f.lastReader = sc.ID
		}
	}
	if f.lineage, err = rt.Query(ctx, inspector.Query{
		Kind:   inspector.QueryLineage,
		Target: f.lastReader.String(),
		Page:   &page,
	}); err != nil {
		return nil, err
	}
	if f.sync, err = rt.Query(ctx, inspector.Query{
		Kind:      inspector.QueryEdges,
		EdgeKinds: []string{"sync"},
	}); err != nil {
		return nil, err
	}
	if f.slice, err = rt.Query(ctx, inspector.Query{
		Kind:   inspector.QuerySlice,
		Target: f.lastReader.String(),
	}); err != nil {
		return nil, err
	}
	return f, nil
}

// print writes the finding as the case study reports it.
func (f *finding) print(w io.Writer) {
	fmt.Fprintf(w, "final balance: %d (1400 if the fee ran first, 1350 if the deposit ran first)\n\n", f.final)
	if !f.snapshots {
		fmt.Fprintln(w, "(no live snapshots: set Options.SnapshotMode to capture consistent cuts mid-run)")
	}
	fmt.Fprintf(w, "the final read of the balance page happened in %v\n", f.lastReader)
	for _, lin := range f.lineage.Lineages {
		fmt.Fprintf(w, "value came from a write in %v", lin.Writer)
		if len(lin.Upstream) > 0 {
			fmt.Fprintf(w, ", which itself consumed data from %v", lin.Upstream)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "\nschedule dependencies through the account lock:")
	for _, e := range f.sync.Edges {
		if e.Object == "mutex:account" {
			fmt.Fprintf(w, "  %v released the lock to %v\n", e.From, e.To)
		}
	}

	fmt.Fprintln(w, "\nbackward slice of the final read (everything that may have affected it):")
	for _, id := range f.slice.IDs {
		fmt.Fprintf(w, "  %v\n", id)
	}
}
