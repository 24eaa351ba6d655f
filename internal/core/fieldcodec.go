package core

import (
	"encoding/binary"

	"github.com/repro/inspector/internal/vclock"
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

// ParseVertex reads the AppendVertex columns into sc.
func ParseVertex(c *wire.Cursor, sc *SubComputation) {
	if n := c.Count("vertex.clock", 1); n > 0 {
		sc.Clock = make(vclock.Clock, n)
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

// AppendThunks appends a sub-computation's control path: a count, then
// per thunk its index, site, flags byte (1 taken | 2 indirect), target
// and instruction count.
func AppendThunks(b []byte, thunks []Thunk) []byte {
	b = binary.AppendUvarint(b, uint64(len(thunks)))
	for i := range thunks {
		th := &thunks[i]
		b = binary.AppendUvarint(b, th.Index)
		b = binary.AppendUvarint(b, uint64(th.Site))
		var flags byte
		if th.Taken {
			flags |= 1
		}
		if th.Indirect {
			flags |= 2
		}
		b = append(b, flags)
		b = binary.AppendUvarint(b, uint64(th.Target))
		b = binary.AppendUvarint(b, th.Instructions)
	}
	return b
}

// ParseThunks reads an AppendThunks list.
func ParseThunks(c *wire.Cursor) []Thunk {
	n := c.Count("thunks", MinThunkBytes)
	if n == 0 {
		return nil
	}
	thunks := make([]Thunk, n)
	for i := range thunks {
		th := &thunks[i]
		th.Index = c.Uvarint("thunk.index")
		th.Site = SiteRef(c.Uint32("thunk.site"))
		flags := c.Byte("thunk.flags", 3)
		th.Taken, th.Indirect = flags&1 != 0, flags&2 != 0
		th.Target = SiteRef(c.Uint32("thunk.target"))
		th.Instructions = c.Uvarint("thunk.instructions")
	}
	return thunks
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
