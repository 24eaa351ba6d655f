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
	MinThunkBytes  = 5 // index, site, flags, target, instructions
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

// maxThunkBytes is the most bytes one AppendThunks element occupies:
// two 64-bit and two 32-bit uvarints and the flags byte.
const maxThunkBytes = 2*binary.MaxVarintLen64 + 2*binary.MaxVarintLen32 + 1

// appendThunk appends one AppendThunks element: index, site, flags byte
// (1 taken | 2 indirect), target and instruction count.
func appendThunk(b []byte, index uint64, site SiteRef, flags byte, target SiteRef, instructions uint64) []byte {
	b = binary.AppendUvarint(b, index)
	b = binary.AppendUvarint(b, uint64(site))
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(target))
	return binary.AppendUvarint(b, instructions)
}

// thunkFlags is the flags byte of a thunk.
func thunkFlags(taken, indirect bool) byte {
	var flags byte
	if taken {
		flags |= 1
	}
	if indirect {
		flags |= 2
	}
	return flags
}

// AppendThunks appends a sub-computation's control path: a count, then
// per thunk its index, site, flags byte (1 taken | 2 indirect), target
// and instruction count. The elements are sc's own bytes, copied.
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
// them — index, site, flags, target, instructions — with the checks and
// the *wire.PayloadError field and offset the Cursor reads would give,
// plus one more: the recorder numbers a path's thunks 0, 1, 2, …, so an
// index that skips or repeats is refused on thunk.index. It returns the
// elements' bytes (aliasing c's body), their count and the largest ref
// they name; on failure c holds the error and the results are zero.
func walkThunks(c *wire.Cursor) (path []byte, n int, maxRef SiteRef) {
	n = c.Count("thunks", MinThunkBytes)
	b := c.Rest()
	off := 0
	fail := func(at int, field, reason string) ([]byte, int, SiteRef) {
		c.Skip(at)
		c.Fail(field, reason)
		return nil, 0, 0
	}
	for i := 0; i < n; i++ {
		index, k := binary.Uvarint(b[off:])
		if k <= 0 {
			return fail(off, "thunk.index", "truncated or overlong uvarint")
		}
		if index != uint64(i) {
			return fail(off, "thunk.index", fmt.Sprintf("index %d, want %d: a path counts its thunks 0, 1, 2, ...", index, i))
		}
		off += k
		// The common thunk spells site, flags, target and instructions
		// in one byte each.
		if off+4 <= len(b) && b[off]|b[off+2]|b[off+3] < 0x80 && b[off+1] <= 3 {
			maxRef = max(maxRef, SiteRef(b[off]), SiteRef(b[off+2]))
			off += 4
			continue
		}
		site, k := binary.Uvarint(b[off:])
		if k <= 0 {
			return fail(off, "thunk.site", "truncated or overlong uvarint")
		} else if site > math.MaxUint32 {
			return fail(off, "thunk.site", fmt.Sprintf("value %d exceeds %d", site, uint64(math.MaxUint32)))
		}
		off += k
		if off >= len(b) {
			return fail(off, "thunk.flags", "truncated")
		} else if b[off] > 3 {
			return fail(off, "thunk.flags", fmt.Sprintf("byte %d exceeds %d", b[off], 3))
		}
		off++
		target, k := binary.Uvarint(b[off:])
		if k <= 0 {
			return fail(off, "thunk.target", "truncated or overlong uvarint")
		} else if target > math.MaxUint32 {
			return fail(off, "thunk.target", fmt.Sprintf("value %d exceeds %d", target, uint64(math.MaxUint32)))
		}
		off += k
		if _, k = binary.Uvarint(b[off:]); k <= 0 {
			return fail(off, "thunk.instructions", "truncated or overlong uvarint")
		}
		off += k
		maxRef = max(maxRef, SiteRef(site), SiteRef(target))
	}
	c.Skip(off)
	if off == 0 {
		return nil, n, 0
	}
	return b[:off:off], n, maxRef
}

// thunksIn yields the thunks of path, a run of AppendThunks elements
// its writer or walkThunks vouched for.
func thunksIn(path string, yield func(int, Thunk) bool) {
	for i, off := 0, 0; off < len(path); i++ {
		var th Thunk
		var site, target uint64
		th.Index, off = uvarintAt(path, off)
		site, off = uvarintAt(path, off)
		flags := path[off]
		target, off = uvarintAt(path, off+1)
		th.Instructions, off = uvarintAt(path, off)
		th.Site, th.Target = SiteRef(site), SiteRef(target)
		th.Taken, th.Indirect = flags&1 != 0, flags&2 != 0
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
