package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/repro/inspector/internal/vtime"
	"github.com/repro/inspector/internal/wire"
)

// The field codecs: how each piece of a CPG is spelled in bytes, once.
// The .cpg sections (internal/cpgfile) lay these fields out column-wise,
// the epoch delta (deltacodec.go) row-wise; both call the same Append
// and Parse pair per field, so a field has one encoding and one set of
// checks. Every Parse reads through a wire.Cursor: the first failure
// latches there naming the field, a count is checked against the bytes
// that remain (each element costs at least its Min…Bytes) before that
// many elements are allocated — the one rule for how far untrusted
// input may drive an allocation — nothing parsed aliases the input, and
// a zero-length list parses to nil. Refs stay as stored: what table
// they index is the caller's to check (validateDelta, cpgfile's remap).
// A control path is never parsed into Thunks on the way in: walkThunks
// checks it where it lies and hands back its bytes, which ParseWire
// copies and the .cpg load keeps as the column it walked.

// Least bytes one element of each counted field can occupy.
const (
	MinSubIDBytes  = 2 // thread, alpha
	MinVertexBytes = 6 // clock count, kind, object, start, finish, instructions
	MinThunkBytes  = 2 // head (site, flags), instructions
	MinGapBytes    = 4 // from, to, kind, bytes
)

// AppendSubID appends a vertex id as thread, alpha.
func AppendSubID(b []byte, id SubID) []byte {
	b = binary.AppendUvarint(b, uint64(id.Thread))
	return binary.AppendUvarint(b, id.Alpha)
}

// ParseSubID reads a vertex id. The alpha is not range-checked here: a
// delta's sync edge may name a vertex a later epoch captures.
func ParseSubID(c *wire.Cursor, field string) SubID {
	return SubID{Thread: c.Int(field), Alpha: c.Uvarint(field)}
}

// AppendSymbols appends a symbol table: a count, then each string
// length-prefixed.
func AppendSymbols(b []byte, syms []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(syms)))
	for _, s := range syms {
		b = wire.AppendString(b, s)
	}
	return b
}

// ParseSymbols reads an AppendSymbols table.
func ParseSymbols(c *wire.Cursor) []string {
	n := c.Count("symbols", 1)
	if n == 0 {
		return nil
	}
	syms := make([]string, n)
	for i := range syms {
		syms[i] = c.String("symbol")
	}
	return syms
}

// AppendVertex appends a sub-computation's scalar columns — clock, end
// event, start, finish, instructions: everything but its id, page sets
// and thunks.
func AppendVertex(b []byte, sc *SubComputation) []byte {
	b = binary.AppendUvarint(b, uint64(len(sc.Clock)))
	for _, v := range sc.Clock {
		b = binary.AppendUvarint(b, v)
	}
	b = append(b, byte(sc.End.Kind))
	b = binary.AppendUvarint(b, uint64(sc.End.Object))
	b = binary.AppendUvarint(b, uint64(sc.Start))
	b = binary.AppendUvarint(b, uint64(sc.Finish))
	return binary.AppendUvarint(b, sc.Instructions)
}

// ParseVertex reads the AppendVertex columns into sc, its clock into
// words taken from w (see Words).
func ParseVertex(c *wire.Cursor, sc *SubComputation, w *Words) {
	if n := c.Count("vertex.clock", 1); n > 0 {
		sc.Clock = w.take(n, len(c.Rest()))
		for i := range sc.Clock {
			sc.Clock[i] = c.Uvarint("vertex.clock")
		}
	}
	sc.End.Kind = SyncOpKind(c.Byte("vertex.end.kind", byte(SyncRelease)))
	sc.End.Object = ObjRef(c.Uint32("vertex.end.object"))
	sc.Start = vtime.Cycles(c.Uvarint("vertex.start"))
	sc.Finish = vtime.Cycles(c.Uvarint("vertex.finish"))
	sc.Instructions = c.Uvarint("vertex.instructions")
}

// Thunk flags: the low three bits of an AppendThunks element's head.
const (
	thunkTaken    = 1
	thunkIndirect = 2
	thunkTarget   = 4 // a non-zero target follows the head
)

// maxThunkBytes is the most bytes one AppendThunks element occupies: a
// head of 35 bits (five uvarint bytes), a 32-bit target and a 64-bit
// instruction count.
const maxThunkBytes = binary.MaxVarintLen64 + 2*binary.MaxVarintLen32

// appendThunk appends one AppendThunks element: the head uvarint
// site<<3 | flags, the target only when it is not 0 (flag 4 says it
// follows), then the instruction count. flags holds only the taken and
// indirect bits; appendThunk sets the third.
func appendThunk(b []byte, site SiteRef, flags byte, target SiteRef, instructions uint64) []byte {
	if target == 0 {
		b = binary.AppendUvarint(b, uint64(site)<<3|uint64(flags))
	} else {
		b = binary.AppendUvarint(b, uint64(site)<<3|uint64(flags|thunkTarget))
		b = binary.AppendUvarint(b, uint64(target))
	}
	return binary.AppendUvarint(b, instructions)
}

// thunkFlags is the taken and indirect bits of a thunk's head.
func thunkFlags(taken, indirect bool) byte {
	var flags byte
	if taken {
		flags |= thunkTaken
	}
	if indirect {
		flags |= thunkIndirect
	}
	return flags
}

// AppendThunks appends a sub-computation's control path: a count, then
// per thunk its head uvarint site<<3 | flags (1 taken, 2 indirect, 4 a
// target follows), its target when flag 4 says so, and its instruction
// count. A thunk's index is its position, so no element spells it. The
// elements are sc's own bytes, copied.
func AppendThunks(b []byte, sc *SubComputation) []byte {
	b = binary.AppendUvarint(b, uint64(sc.nThunks))
	return append(b, sc.path...)
}

// WalkThunks reads an AppendThunks list and keeps nothing: it returns
// the list's length and the largest site or target ref it names, for
// the caller to check against its symbol table. A malformed list fails
// c as ParseWire would.
func WalkThunks(c *wire.Cursor) (n int, maxRef SiteRef) {
	_, n, maxRef = walkThunks(c)
	return n, maxRef
}

// walkThunks is the one reader of an AppendThunks list: a count checked
// against the bytes that remain, then each element in one pass over
// them — head, target if flagged, instructions — with the checks and the
// *wire.PayloadError field and offset the Cursor reads would give: a
// site above 2^32-1 is refused on thunk.site, and a flagged target must
// be a non-zero 32-bit ref, since an empty target is spelled by leaving
// it out. It returns the elements' bytes (aliasing c's body), their
// count and the largest ref they name; on failure c holds the error and
// the results are zero.
func walkThunks(c *wire.Cursor) (path []byte, n int, maxRef SiteRef) {
	n = c.Count("thunks", MinThunkBytes)
	b := c.Rest()
	off := 0
	fail := func(at int, field, reason string) ([]byte, int, SiteRef) {
		c.Skip(at)
		c.Fail(field, reason)
		return nil, 0, 0
	}
	for range n {
		// The common thunk spells a site below 16 with no target and a
		// count below 128: two bytes.
		if off+2 <= len(b) && b[off]&(0x80|thunkTarget) == 0 && b[off+1] < 0x80 {
			maxRef = max(maxRef, SiteRef(b[off]>>3))
			off += 2
			continue
		}
		head, k := binary.Uvarint(b[off:])
		if k <= 0 {
			return fail(off, "thunk.site", "truncated or overlong uvarint")
		} else if head>>3 > math.MaxUint32 {
			return fail(off, "thunk.site", fmt.Sprintf("value %d exceeds %d", head>>3, uint64(math.MaxUint32)))
		}
		off += k
		maxRef = max(maxRef, SiteRef(head>>3))
		if head&thunkTarget != 0 {
			target, k := binary.Uvarint(b[off:])
			if k <= 0 {
				return fail(off, "thunk.target", "truncated or overlong uvarint")
			} else if target == 0 {
				return fail(off, "thunk.target", "flagged target 0: an empty target is spelled by leaving it out")
			} else if target > math.MaxUint32 {
				return fail(off, "thunk.target", fmt.Sprintf("value %d exceeds %d", target, uint64(math.MaxUint32)))
			}
			off += k
			maxRef = max(maxRef, SiteRef(target))
		}
		if _, k = binary.Uvarint(b[off:]); k <= 0 {
			return fail(off, "thunk.instructions", "truncated or overlong uvarint")
		}
		off += k
	}
	c.Skip(off)
	if off == 0 {
		return nil, n, 0
	}
	return b[:off:off], n, maxRef
}

// thunksIn yields the thunks of path, a run of AppendThunks elements
// its writer or walkThunks vouched for, numbering them by position.
func thunksIn(path string, yield func(int, Thunk) bool) {
	for i, off := 0, 0; off < len(path); i++ {
		var head, target uint64
		head, off = uvarintAt(path, off)
		if head&thunkTarget != 0 {
			target, off = uvarintAt(path, off)
		}
		th := Thunk{
			Index:    uint64(i),
			Site:     SiteRef(head >> 3),
			Taken:    head&thunkTaken != 0,
			Indirect: head&thunkIndirect != 0,
			Target:   SiteRef(target),
		}
		th.Instructions, off = uvarintAt(path, off)
		if !yield(i, th) {
			return
		}
	}
}

// uvarintAt decodes the well-formed uvarint at path[off:] and returns
// it with the offset just past it.
func uvarintAt(path string, off int) (uint64, int) {
	var v uint64
	for s := 0; ; s += 7 {
		b := path[off]
		off++
		v |= uint64(b&0x7f) << s
		if b < 0x80 {
			return v, off
		}
	}
}

// AppendGap appends one trace-loss interval (its thread is the
// caller's to place).
func AppendGap(b []byte, gp Gap) []byte {
	b = binary.AppendUvarint(b, gp.FromAlpha)
	b = binary.AppendUvarint(b, gp.ToAlpha)
	b = append(b, byte(gp.Kind))
	return binary.AppendUvarint(b, gp.Bytes)
}

// ParseGap reads one AppendGap interval. Kind 0 is no gap kind.
func ParseGap(c *wire.Cursor) Gap {
	gp := Gap{FromAlpha: c.Uvarint("gap.from_alpha"), ToAlpha: c.Uvarint("gap.to_alpha")}
	gp.Kind = GapKind(c.Byte("gap.kind", byte(GapPanic)))
	if gp.Kind == 0 {
		c.Fail("gap.kind", "byte 0 is no gap kind")
	}
	gp.Bytes = c.Uvarint("gap.bytes")
	return gp
}
