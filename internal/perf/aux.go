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

// auxInitial is the most a new AuxBuffer allocates before its first
// write. The ring grows from there, doubling up to its size, only as the
// bytes it must retain need it, so a thread that traces little never pays
// for a full ring.
const auxInitial = 64 << 10

// AuxBuffer is one AUX area ring buffer. It is safe for one producer and
// one consumer operating concurrently.
//
// Its size is the ring's capacity as the consumer sees it: full-trace
// loss and the snapshot window are measured against it. The backing
// slice starts at min(size, auxInitial) bytes and doubles (capped at
// size) whenever the retained span [tail, head) would outgrow it, so no
// observable behaviour depends on how much of the ring is allocated.
type AuxBuffer struct {
	mu   sync.Mutex
	data []byte
	size int
	head uint64 // absolute produced offset
	tail uint64 // absolute consumed offset
	mode Mode
	lost uint64
	// Every traced thread locks and advances its own ring on each flush,
	// so two rings must never share a cache line: the padding rounds the
	// struct up to two whole lines (at 72 bytes, two threads' rings
	// false-shared and string_match large recorded about 10 % slower).
	_ [128 - 72]byte
}

// NewAuxBuffer makes a ring of the given size.
func NewAuxBuffer(size int, mode Mode) *AuxBuffer {
	if size <= 0 {
		size = 1
	}
	return &AuxBuffer{data: make([]byte, min(size, auxInitial)), size: size, mode: mode}
}

// Size returns the ring capacity in bytes.
func (b *AuxBuffer) Size() int { return b.size }

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

// ringPut copies p into ring starting at absolute offset at, in at most
// two straight copies (the span up to the wrap point, then the remainder
// from the ring's start) instead of a byte-at-a-time modulo loop.
// len(p) must not exceed len(ring).
func ringPut(ring []byte, at uint64, p []byte) {
	off := int(at % uint64(len(ring)))
	n := copy(ring[off:], p)
	copy(ring, p[n:])
}

// ringGet fills dst from ring starting at absolute offset from, again in
// at most two straight copies.
func ringGet(ring []byte, from uint64, dst []byte) {
	off := int(from % uint64(len(ring)))
	m := copy(dst, ring[off:])
	copy(dst[m:], ring[:len(dst)-m])
}

// copyOut copies n ring bytes starting at absolute offset from into a
// fresh slice.
func (b *AuxBuffer) copyOut(from uint64, n int) []byte {
	out := make([]byte, n)
	ringGet(b.data, from, out)
	return out
}

// reserve grows the backing slice until it holds need bytes, doubling and
// capping at size, and re-places the retained span [tail, head) at its
// offsets in the larger ring. need never exceeds size.
func (b *AuxBuffer) reserve(need uint64) {
	c := uint64(len(b.data))
	if need <= c {
		return
	}
	for c < need {
		c *= 2
	}
	data := make([]byte, min(c, uint64(b.size)))
	off := int(b.tail % uint64(len(b.data)))
	n := int(b.head - b.tail)
	first := b.data[off:min(off+n, len(b.data))]
	ringPut(data, b.tail, first)
	ringPut(data, b.tail+uint64(len(first)), b.data[:n-len(first)])
	b.data = data
}

// WriteTrace implements pt.ByteSink. In full-trace mode it accepts at most
// the free space and reports how much was accepted; in snapshot mode it
// accepts everything, advancing the window over the oldest bytes.
func (b *AuxBuffer) WriteTrace(p []byte) int {
	n, _ := b.write(p)
	return n
}

// write is WriteTrace that also returns the unread length after the
// write, read under the same lock.
func (b *AuxBuffer) write(p []byte) (n, unread int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n = len(p)
	size := uint64(b.size)
	if b.mode == ModeFullTrace {
		free := size - (b.head - b.tail)
		if uint64(n) > free {
			b.lost += uint64(n) - free
			n = int(free)
		}
	}
	b.reserve(min(b.head+uint64(n)-b.tail, size))
	if uint64(n) >= size {
		// Only the newest ring-full of bytes survives; skip the rest.
		ringPut(b.data, b.head+uint64(n)-size, p[uint64(n)-size:n])
	} else {
		ringPut(b.data, b.head, p[:n])
	}
	b.head += uint64(n)
	if b.mode == ModeSnapshot && b.head-b.tail > size {
		b.tail = b.head - size
	}
	return n, int(b.head - b.tail)
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
	start := b.tail
	if b.head-start > uint64(b.size) {
		start = b.head - uint64(b.size)
	}
	return b.copyOut(start, int(b.head-start))
}
