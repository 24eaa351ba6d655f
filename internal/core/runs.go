package core

// runChunk is the fewest elements a runs chunk holds.
const runChunk = 256

// runs hands out short slices — runs of T, say one per epoch — from
// shared chunks, so an epoch that takes a run of a few elements
// allocates per chunk, not per run. A run is a cap-limited window of its
// chunk, and a chunk that fills is replaced, never grown in place, so
// nothing writes a run after it is taken, an append to one copies, and
// a chunk's unused tail is zero.
type runs[T any] struct{ buf []T }

// alloc returns a run of n zero elements.
func (r *runs[T]) alloc(n int) []T {
	if cap(r.buf)-len(r.buf) < n {
		r.buf = make([]T, 0, max(runChunk, n))
	}
	r.buf = r.buf[:len(r.buf)+n]
	return r.buf[len(r.buf)-n : len(r.buf) : len(r.buf)]
}
