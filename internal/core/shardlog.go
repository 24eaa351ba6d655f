package core

import (
	"iter"
	"math/bits"
	"sync/atomic"
)

// logBase is the length of a shardLog's first chunk. Chunk k holds
// logBase<<k elements, so element i lives in chunk
// bits.Len(i/logBase+1)-1, and the 32 chunks hold more than memory can.
const logBase = 8

// A shardLog is an append-only sequence that one writer at a time
// extends while any number of readers read it without a lock. Its
// elements live in chunks that never move or grow: an element is
// written into its chunk before the writer publishes the length that
// covers it, so a reader that loads Len may read every element below it
// in place, and no element below a published length ever changes. It
// is how a graph shard stores its vertices, sync-edge log and gaps.
type shardLog[T any] struct {
	n      atomic.Int64
	chunks [32]atomic.Pointer[[]T]
}

// logSlot returns the chunk holding element i and i's offset in it.
func logSlot(i int) (k, off int) {
	k = bits.Len(uint(i/logBase+1)) - 1
	return k, i - logBase*(1<<k-1)
}

// Len returns the published length.
func (l *shardLog[T]) Len() int { return int(l.n.Load()) }

// at returns element i, which must be below a loaded length.
func (l *shardLog[T]) at(i int) T {
	k, off := logSlot(i)
	return (*l.chunks[k].Load())[off]
}

// runs yields the elements [lo, hi), hi no more than a loaded length, as
// the runs of consecutive elements their chunks store, read in place.
func (l *shardLog[T]) runs(lo, hi int) iter.Seq[[]T] {
	return func(yield func([]T) bool) {
		for lo < hi {
			k, off := logSlot(lo)
			c := *l.chunks[k].Load()
			run := c[off:min(len(c), off+hi-lo)]
			if !yield(run) {
				return
			}
			lo += len(run)
		}
	}
}

// appendTo appends the elements [lo, hi) to dst.
func (l *shardLog[T]) appendTo(dst []T, lo, hi int) []T {
	for run := range l.runs(lo, hi) {
		dst = append(dst, run...)
	}
	return dst
}

// push appends v and publishes it. Writers are serialized by the caller.
func (l *shardLog[T]) push(v T) {
	i := l.Len()
	k, off := logSlot(i)
	c := l.chunks[k].Load()
	if c == nil || off == len(*c) {
		// A new chunk, or a full-size copy of one an adopted run left
		// short: readers holding the short one read the same elements.
		grown := make([]T, logBase<<k)
		if c != nil {
			copy(grown, *c)
		}
		c = &grown
		l.chunks[k].Store(c)
	}
	(*c)[off] = v
	l.n.Store(int64(i + 1))
}

// pushRun appends run. An empty log adopts it without a copy — its
// chunks become views of run, so the caller must not modify run
// afterwards — and a non-empty one pushes its elements.
func (l *shardLog[T]) pushRun(run []T) {
	if l.Len() > 0 {
		for _, v := range run {
			l.push(v)
		}
		return
	}
	for k, lo := 0, 0; lo < len(run); k++ {
		hi := min(lo+logBase<<k, len(run))
		view := run[lo:hi:hi]
		l.chunks[k].Store(&view)
		lo = hi
	}
	l.n.Store(int64(len(run)))
}
