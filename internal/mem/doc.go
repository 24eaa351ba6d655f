// Package mem simulates the virtual-memory machinery INSPECTOR builds on:
// paged address spaces with per-page protection bits, protection faults
// delivered to a user handler (the mprotect(PROT_NONE) + SIGSEGV discipline
// of paper §V-A), private copy-on-write views per process
// (threads-as-processes), twin pages, byte-level diffs, and the shared
// memory commit of the Release Consistency model (TreadMarks/Munin style).
//
// The real system protects pages with mprotect and fields SIGSEGV; here
// every tracked access performs an explicit protection check and calls the
// registered FaultHandler on the first read and first write of each page in
// each sub-computation. The handler records the access in the current
// sub-computation's read/write set and upgrades the page protection so
// subsequent accesses proceed without faulting — exactly the paper's
// first-touch discipline, with identical fault-count behaviour.
//
// # Contract
//
// A Backing is the shared truth of one region; each process holds a
// Space, a private copy-on-write view over the backings. Writes stay
// private until Space.Commit diffs dirty pages against their twins and
// publishes the changed bytes — the shared-memory commit at every
// synchronization boundary. Fault delivery is synchronous and carries
// the resolved page id (Fault.Page); layers above must not re-derive it
// from the address. Space.Read/Write and the typed accessors are the
// hot path: single-page accesses take a pooled, allocation-free fast
// path.
//
// A twin is word-logged: the first store to each 8-byte word of a private
// page saves that word's snapshot value and marks it in the page's
// written-word bitmap, and Commit compares only logged words, coalescing
// ranges exactly as a byte-level diff with an 8-byte gap over a full twin
// does (that whole-page diff and its byte-wise reference are the
// property tests' oracles). Commit walks only the pages the
// sub-computation touched.
//
// # Two clocks
//
// The virtual-time model still charges what the paper's mechanism costs:
// a full-page twin copy per first-written page (SpaceStats.TwinCopies)
// and a full-page diff per private page (CommitResult.DiffedBytes). The
// host now copies and compares only logged words. The counters keep the
// model's meaning, so no cost constant changes with the mechanism.
//
// See DESIGN.md, section "The tracked-memory fast path".
package mem
