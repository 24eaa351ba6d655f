// Package vclock implements fixed-width vector clocks as used by the
// INSPECTOR provenance algorithm (Mattern, "Virtual Time and Global States
// of Distributed Systems", 1989).
//
// A clock is a vector of logical timestamps, one slot per thread in the
// system. The provenance algorithm (paper §IV-B) maintains one clock per
// thread, per synchronization object, and per sub-computation; release
// operations publish the releasing thread's clock into the object's clock,
// and acquire operations merge the object's clock into the acquiring
// thread's clock. The component-wise partial order over the recorded
// sub-computation clocks is exactly the happens-before relation of the
// execution.
package vclock

import (
	"strconv"
	"strings"
)

// Clock is a vector clock over a fixed set of threads. The zero-length
// Clock is valid and represents "no knowledge". Clocks are not safe for
// concurrent mutation; callers synchronize externally (in INSPECTOR every
// mutation happens inside a synchronization operation that is already
// serialized on the synchronization object).
type Clock []uint64

// New returns a zeroed clock with one slot per thread.
func New(threads int) Clock {
	return make(Clock, threads)
}

// Copy returns an independent copy of c.
func (c Clock) Copy() Clock {
	out := make(Clock, len(c))
	copy(out, c)
	return out
}

// Set assigns value v to the slot for thread t.
func (c Clock) Set(t int, v uint64) {
	c[t] = v
}

// Get returns the value of slot t, or 0 if t is out of range. Out-of-range
// reads are defined because clocks of different widths may be compared when
// threads join an execution late.
func (c Clock) Get(t int) uint64 {
	if t < 0 || t >= len(c) {
		return 0
	}
	return c[t]
}

// Merge sets every slot of c to the maximum of its value and the
// corresponding slot of other. It implements the max-merge performed on
// both release (object <- thread) and acquire (thread <- object) in
// Algorithm 2. If other is wider than c, c is NOT grown; callers size
// clocks to the maximum thread count up front.
func (c Clock) Merge(other Clock) {
	n := len(c)
	if len(other) < n {
		n = len(other)
	}
	for i := 0; i < n; i++ {
		if other[i] > c[i] {
			c[i] = other[i]
		}
	}
}

// Ordering is the result of comparing two vector clocks.
type Ordering int

const (
	// Equal means both clocks hold identical values in every slot.
	Equal Ordering = iota + 1
	// Before means the receiver happens-before the argument.
	Before
	// After means the argument happens-before the receiver.
	After
	// Concurrent means neither clock dominates the other.
	Concurrent
)

// String returns the conventional symbol for the ordering.
func (o Ordering) String() string {
	switch o {
	case Equal:
		return "="
	case Before:
		return "->"
	case After:
		return "<-"
	case Concurrent:
		return "||"
	default:
		return "?"
	}
}

// Compare returns the ordering of c relative to other under the standard
// component-wise vector-clock partial order.
func (c Clock) Compare(other Clock) Ordering {
	less, greater := false, false
	n := len(c)
	if len(other) > n {
		n = len(other)
	}
	for i := 0; i < n; i++ {
		a, b := c.Get(i), other.Get(i)
		switch {
		case a < b:
			less = true
		case a > b:
			greater = true
		}
	}
	switch {
	case less && greater:
		return Concurrent
	case less:
		return Before
	case greater:
		return After
	default:
		return Equal
	}
}

// String renders the clock as "[v0 v1 ...]".
func (c Clock) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, v := range c {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(strconv.FormatUint(v, 10))
	}
	sb.WriteByte(']')
	return sb.String()
}
