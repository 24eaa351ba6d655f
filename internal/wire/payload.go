package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// PayloadError reports a malformed record body: which field, where, and
// what was wrong with it. Its text is what the journal reports as a
// torn-tail reason and the ingest endpoint as a 400.
type PayloadError struct {
	// Field names the field being read ("delta.sub.thunk.flags").
	Field string
	// Offset is the body offset the field started at.
	Offset int
	// Reason says what failed.
	Reason string
}

func (e *PayloadError) Error() string {
	return fmt.Sprintf("wire: corrupt payload: %s at byte %d: %s", e.Field, e.Offset, e.Reason)
}

// AppendString appends s as a uvarint length and its bytes — the form
// Cursor.String reads.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Cursor is the bounds-checked read half of the payload codec: a
// position in one untrusted record body. The first failure latches as a
// *PayloadError; every later read returns zero, so a ParseWire reads its
// fields straight through and checks Done once. Nothing a Cursor returns
// aliases the body.
type Cursor struct {
	b   []byte
	off int
	err error
}

// NewCursor starts reading body.
func NewCursor(body []byte) Cursor { return Cursor{b: body} }

// Err returns the latched failure, if any.
func (c *Cursor) Err() error { return c.err }

// Fail latches a failure of the field that starts at the cursor (the
// hook for field codecs that live outside this package).
func (c *Cursor) Fail(field, reason string) {
	if c.err == nil {
		c.err = &PayloadError{Field: field, Offset: c.off, Reason: reason}
	}
}

// Uvarint reads one uvarint.
func (c *Cursor) Uvarint(field string) uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.Fail(field, "truncated or overlong uvarint")
		return 0
	}
	c.off += n
	return v
}

// bounded reads a uvarint no larger than max.
func (c *Cursor) bounded(field string, max uint64) uint64 {
	at := c.off
	v := c.Uvarint(field)
	if v > max && c.err == nil {
		c.off = at
		c.Fail(field, fmt.Sprintf("value %d exceeds %d", v, max))
		return 0
	}
	return v
}

// Uint32 reads a uvarint that must fit 32 bits (an interned ref).
func (c *Cursor) Uint32(field string) uint32 {
	return uint32(c.bounded(field, math.MaxUint32))
}

// Int reads a uvarint into a non-negative int (a thread slot, a vertex
// count); anything past 31 bits is oversized on every platform.
func (c *Cursor) Int(field string) int {
	return int(c.bounded(field, math.MaxInt32))
}

// Byte reads one byte no larger than max (a kind or flags byte).
func (c *Cursor) Byte(field string, max byte) byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.b) {
		c.Fail(field, "truncated")
		return 0
	}
	v := c.b[c.off]
	if v > max {
		c.Fail(field, fmt.Sprintf("byte %d exceeds %d", v, max))
		return 0
	}
	c.off++
	return v
}

// Count reads an element count and checks it against the bytes that
// remain — each element costs at least minBytes — so the caller may
// allocate that many elements: a forged count cannot demand more memory
// than a constant times the body that actually arrived.
func (c *Cursor) Count(field string, minBytes int) int {
	at := c.off
	n := c.Uvarint(field)
	if c.err != nil {
		return 0
	}
	if rem := len(c.b) - c.off; n > uint64(rem/minBytes) {
		c.off = at
		c.Fail(field, fmt.Sprintf("count %d cannot fit in the %d bytes that remain", n, rem))
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string into fresh memory.
func (c *Cursor) String(field string) string {
	n := c.Count(field, 1)
	if c.err != nil {
		return ""
	}
	s := string(c.b[c.off : c.off+n])
	c.off += n
	return s
}

// Done returns the latched failure, or an error if bytes remain: a
// record is exactly its fields.
func (c *Cursor) Done() error {
	if c.err == nil && c.off != len(c.b) {
		c.Fail("end of record", fmt.Sprintf("%d trailing bytes", len(c.b)-c.off))
	}
	return c.err
}
