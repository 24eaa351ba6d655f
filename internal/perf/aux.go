// Package perf simulates the Linux perf_event machinery INSPECTOR uses to
// expose Intel PT to user space (§V-B): per-process AUX ring buffers in
// full-trace and snapshot modes, the perf.data-style record stream (MMAP,
// COMM, AUX, LOST, ITRACE_START), and the trace session every process of
// one run attaches to.
//
// Two properties of the real interface matter to the paper and are
// preserved here:
//
//   - In full-trace mode the kernel never overwrites data the consumer has
//     not collected; if the consumer falls behind, *new* data is dropped
//     and the trace has gaps.
//   - In snapshot mode the ring constantly overwrites the oldest data, and
//     a consumer can capture the current window around an event of
//     interest — the basis of INSPECTOR's live snapshot facility (§VI).
package perf

import (
	"sync"
)

// Mode selects the AUX buffer's overwrite behaviour.
type Mode int

// Modes.
const (
	// ModeFullTrace preserves unread data; producers lose new data when
	// the ring is full.
	ModeFullTrace Mode = iota + 1
	// ModeSnapshot lets the producer overwrite the oldest data; the
	// consumer captures windows on demand.
	ModeSnapshot
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeFullTrace:
		return "full-trace"
	case ModeSnapshot:
		return "snapshot"
	default:
		return "unknown"
	}
}

// AuxBuffer is one AUX area ring buffer. It is safe for one producer and
// one consumer operating concurrently.
type AuxBuffer struct {
	mu   sync.Mutex
	data []byte
	head uint64 // absolute produced offset
	tail uint64 // absolute consumed offset
	mode Mode
	lost uint64
}

// NewAuxBuffer allocates a ring of the given size.
func NewAuxBuffer(size int, mode Mode) *AuxBuffer {
	if size <= 0 {
		size = 1
	}
	return &AuxBuffer{data: make([]byte, size), mode: mode}
}

// Size returns the ring capacity in bytes.
func (b *AuxBuffer) Size() int { return len(b.data) }

// Mode returns the buffer's mode.
func (b *AuxBuffer) Mode() Mode { return b.mode }

// Lost returns the bytes dropped due to overrun (full-trace mode only).
func (b *AuxBuffer) Lost() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lost
}

// Len returns the number of unread bytes currently buffered.
func (b *AuxBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int(b.head - b.tail)
}

// copyIn copies p into the ring starting at absolute offset at, in at
// most two straight copies (the span up to the wrap point, then the
// remainder from the ring's start) instead of a byte-at-a-time modulo
// loop. len(p) must not exceed the ring size.
func (b *AuxBuffer) copyIn(at uint64, p []byte) {
	off := int(at % uint64(len(b.data)))
	n := copy(b.data[off:], p)
	copy(b.data, p[n:])
}

// copyOut copies n ring bytes starting at absolute offset from into a
// fresh slice, again in at most two straight copies.
func (b *AuxBuffer) copyOut(from uint64, n int) []byte {
	out := make([]byte, n)
	off := int(from % uint64(len(b.data)))
	m := copy(out, b.data[off:])
	copy(out[m:], b.data[:n-m])
	return out
}

// WriteTrace implements pt.ByteSink. In full-trace mode it accepts at most
// the free space and reports how much was accepted; in snapshot mode it
// accepts everything, advancing the window over the oldest bytes.
func (b *AuxBuffer) WriteTrace(p []byte) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(p)
	size := uint64(len(b.data))
	if b.mode == ModeFullTrace {
		free := size - (b.head - b.tail)
		if uint64(n) > free {
			b.lost += uint64(n) - free
			n = int(free)
		}
	}
	if uint64(n) >= size {
		// Only the newest ring-full of bytes survives; skip the rest.
		b.copyIn(b.head+uint64(n)-size, p[uint64(n)-size:n])
	} else {
		b.copyIn(b.head, p[:n])
	}
	b.head += uint64(n)
	if b.mode == ModeSnapshot && b.head-b.tail > size {
		b.tail = b.head - size
	}
	return n
}

// Read consumes up to max unread bytes (full-trace drain). A negative max
// drains everything.
func (b *AuxBuffer) Read(max int) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	avail := int(b.head - b.tail)
	if max >= 0 && avail > max {
		avail = max
	}
	out := b.copyOut(b.tail, avail)
	b.tail += uint64(avail)
	return out
}

// SnapshotWindow copies the current window (the most recent Size() bytes,
// or everything produced if less) without consuming it — the snapshot-mode
// capture triggered by SIGUSR2 in the paper's perf integration.
func (b *AuxBuffer) SnapshotWindow() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	size := uint64(len(b.data))
	start := b.tail
	if b.head-start > size {
		start = b.head - size
	}
	return b.copyOut(start, int(b.head-start))
}
