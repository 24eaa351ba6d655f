package core

// runChunk is the fewest elements a runs chunk holds.
const runChunk = 256

// runs hands out short slices — runs of T, say one per epoch — from
// shared chunks, so an epoch that takes a run of a few elements
// allocates per chunk, not per run. A run is a cap-limited window of its
// chunk, and a chunk that fills is replaced (the open run moved into the
// new one), never grown in place, so nothing writes a run after it is
// taken, an append to one copies, and a chunk's unused tail is zero.
type runs[T any] struct {
	buf   []T
	start int // where the open run begins in buf
}

// reserve makes room for n more elements in the open run: a chunk that
// doubles the open run, or holds exactly n more when that is larger.
func (r *runs[T]) reserve(n int) {
	if cap(r.buf)-len(r.buf) >= n {
		return
	}
	open := r.buf[r.start:]
	buf := make([]T, len(open), max(runChunk, 2*len(open)+n))
	copy(buf, open)
	r.buf, r.start = buf, 0
}

// add appends v to the open run.
func (r *runs[T]) add(v T) {
	r.reserve(1)
	r.buf = append(r.buf, v)
}

// take closes the open run and returns it, nil when it is empty.
func (r *runs[T]) take() []T {
	if r.start == len(r.buf) {
		return nil
	}
	run := r.buf[r.start:len(r.buf):len(r.buf)]
	r.start = len(r.buf)
	return run
}

// alloc returns a run of n zero elements; the open run must be empty.
func (r *runs[T]) alloc(n int) []T {
	r.reserve(n)
	r.buf = r.buf[:len(r.buf)+n]
	return r.take()
}
