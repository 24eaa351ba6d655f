package core

import (
	"encoding/binary"
	"fmt"

	"github.com/repro/inspector/internal/vclock"
	"github.com/repro/inspector/internal/vtime"
	"github.com/repro/inspector/internal/wire"
)

// The binary form of an EpochDelta — the payload of every journal record
// and ingest frame (wire format version 2). Fields are written row-wise
// in struct order with the encodings the .cpg sections use for the same
// data (internal/cpgfile): uvarints, length-prefixed strings, the
// AppendPages page-list form, one kind/flags byte where the value is an
// enum or a bit set.
//
//	epoch
//	len(Lens), Lens...
//	SymBase, len(Symbols), {len, bytes}...
//	len(Subs), per sub:
//	    thread, alpha
//	    len(Clock), Clock...
//	    End.Kind byte, End.Object, Start, Finish, Instructions
//	    ReadSet pages, WriteSet pages
//	    len(Thunks), {Index, Site, flags byte (1 taken | 2 indirect), Target, Instructions}...
//	len(Sync), {from thread, from alpha, to thread, to alpha, object}...
//	len(Gaps), {thread, FromAlpha, ToAlpha, Kind byte, Bytes}...
//
// A record carries everything needed to parse it; what it means is
// checked afterwards, against the graph, by ValidateDelta. ParseWire is
// the trust boundary for shape: counts are checked against the bytes
// that remain before anything is allocated, nothing parsed aliases the
// body, and — because exports render nil and empty slices differently
// and a replica's export must be byte-identical to the recorder's — a
// zero-length field parses to nil, the form FoldDelta leaves it in.

// Least bytes one element of each counted field can occupy, for
// wire.Cursor.Count.
const (
	minSubBytes   = 11 // id (2), clock count, kind, object, start, finish, instructions, two page counts, thunk count
	minThunkBytes = 5
	minSyncBytes  = 5
	minGapBytes   = 5
)

// AppendWire appends the delta's binary form (a wire.AppendFrame
// payload). Only a delta no fold can produce fails to encode: a nil
// vertex, a negative thread slot or length.
func (d *EpochDelta) AppendWire(b []byte) ([]byte, error) {
	if d == nil {
		return b, fmt.Errorf("core: nil epoch delta")
	}
	b = binary.AppendUvarint(b, d.Epoch)
	b = binary.AppendUvarint(b, uint64(len(d.Lens)))
	for t, n := range d.Lens {
		if n < 0 {
			return b, fmt.Errorf("core: delta lens[%d] = %d is negative", t, n)
		}
		b = binary.AppendUvarint(b, uint64(n))
	}
	b = binary.AppendUvarint(b, uint64(d.SymBase))
	b = binary.AppendUvarint(b, uint64(len(d.Symbols)))
	for _, s := range d.Symbols {
		b = wire.AppendString(b, s)
	}
	b = binary.AppendUvarint(b, uint64(len(d.Subs)))
	for _, sc := range d.Subs {
		if sc == nil {
			return b, fmt.Errorf("core: delta contains nil sub-computation")
		}
		if sc.ID.Thread < 0 {
			return b, fmt.Errorf("core: sub %v has a negative thread slot", sc.ID)
		}
		b = appendSubID(b, sc.ID)
		b = binary.AppendUvarint(b, uint64(len(sc.Clock)))
		for _, v := range sc.Clock {
			b = binary.AppendUvarint(b, v)
		}
		b = append(b, byte(sc.End.Kind))
		b = binary.AppendUvarint(b, uint64(sc.End.Object))
		b = binary.AppendUvarint(b, uint64(sc.Start))
		b = binary.AppendUvarint(b, uint64(sc.Finish))
		b = binary.AppendUvarint(b, sc.Instructions)
		b = AppendPages(b, sc.ReadSet.view())
		b = AppendPages(b, sc.WriteSet.view())
		b = binary.AppendUvarint(b, uint64(len(sc.Thunks)))
		for i := range sc.Thunks {
			th := &sc.Thunks[i]
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
	}
	b = binary.AppendUvarint(b, uint64(len(d.Sync)))
	for i := range d.Sync {
		e := &d.Sync[i]
		if e.From.Thread < 0 || e.To.Thread < 0 {
			return b, fmt.Errorf("core: delta sync edge %v -> %v has a negative thread slot", e.From, e.To)
		}
		b = appendSubID(b, e.From)
		b = appendSubID(b, e.To)
		b = binary.AppendUvarint(b, uint64(e.Object))
	}
	b = binary.AppendUvarint(b, uint64(len(d.Gaps)))
	for i := range d.Gaps {
		dg := &d.Gaps[i]
		if dg.Thread < 0 {
			return b, fmt.Errorf("core: delta gap on negative thread slot %d", dg.Thread)
		}
		b = binary.AppendUvarint(b, uint64(dg.Thread))
		b = binary.AppendUvarint(b, dg.Gap.FromAlpha)
		b = binary.AppendUvarint(b, dg.Gap.ToAlpha)
		b = append(b, byte(dg.Gap.Kind))
		b = binary.AppendUvarint(b, dg.Gap.Bytes)
	}
	return b, nil
}

// appendSubID appends a vertex id as thread, alpha.
func appendSubID(b []byte, id SubID) []byte {
	b = binary.AppendUvarint(b, uint64(id.Thread))
	return binary.AppendUvarint(b, id.Alpha)
}

// ParseWire replaces d with the delta body holds (the wire.Decode half
// of AppendWire). A malformed body is a *wire.PayloadError naming the
// field, and leaves d unspecified.
func (d *EpochDelta) ParseWire(body []byte) error {
	c := wire.NewCursor(body)
	*d = EpochDelta{Epoch: c.Uvarint("delta.epoch")}
	if n := c.Count("delta.lens", 1); n > 0 {
		d.Lens = make([]int, n)
		for t := range d.Lens {
			d.Lens[t] = c.Int("delta.lens")
		}
	}
	d.SymBase = c.Uint32("delta.sym_base")
	if n := c.Count("delta.symbols", 1); n > 0 {
		d.Symbols = make([]string, n)
		for i := range d.Symbols {
			d.Symbols[i] = c.String("delta.symbol")
		}
	}
	if n := c.Count("delta.subs", minSubBytes); n > 0 {
		d.Subs = make([]*SubComputation, n)
		for i := range d.Subs {
			if d.Subs[i] = parseSub(&c); c.Err() != nil {
				return c.Err()
			}
		}
	}
	if n := c.Count("delta.sync", minSyncBytes); n > 0 {
		d.Sync = make([]DeltaSyncEdge, n)
		for i := range d.Sync {
			d.Sync[i] = DeltaSyncEdge{
				From:   parseSubID(&c, "delta.sync.from"),
				To:     parseSubID(&c, "delta.sync.to"),
				Object: ObjRef(c.Uint32("delta.sync.object")),
			}
		}
	}
	if n := c.Count("delta.gaps", minGapBytes); n > 0 {
		d.Gaps = make([]DeltaGap, n)
		for i := range d.Gaps {
			dg := &d.Gaps[i]
			dg.Thread = c.Int("delta.gap.thread")
			dg.Gap.FromAlpha = c.Uvarint("delta.gap.from_alpha")
			dg.Gap.ToAlpha = c.Uvarint("delta.gap.to_alpha")
			dg.Gap.Kind = GapKind(c.Byte("delta.gap.kind", byte(GapPanic)))
			dg.Gap.Bytes = c.Uvarint("delta.gap.bytes")
		}
	}
	return c.Done()
}

// parseSubID reads a vertex id. The alpha is not range-checked here: a
// sync edge may name a vertex a later epoch captures.
func parseSubID(c *wire.Cursor, field string) SubID {
	return SubID{Thread: c.Int(field), Alpha: c.Uvarint(field)}
}

// parseSub reads one vertex into fresh memory.
func parseSub(c *wire.Cursor) *SubComputation {
	sc := &SubComputation{ID: parseSubID(c, "delta.sub.id")}
	if n := c.Count("delta.sub.clock", 1); n > 0 {
		sc.Clock = make(vclock.Clock, n)
		for i := range sc.Clock {
			sc.Clock[i] = c.Uvarint("delta.sub.clock")
		}
	}
	sc.End.Kind = SyncOpKind(c.Byte("delta.sub.end.kind", byte(SyncRelease)))
	sc.End.Object = ObjRef(c.Uint32("delta.sub.end.object"))
	sc.Start = vtime.Cycles(c.Uvarint("delta.sub.start"))
	sc.Finish = vtime.Cycles(c.Uvarint("delta.sub.finish"))
	sc.Instructions = c.Uvarint("delta.sub.instructions")
	sc.ReadSet = parsePageSetField(c, "delta.sub.read_set")
	sc.WriteSet = parsePageSetField(c, "delta.sub.write_set")
	if n := c.Count("delta.sub.thunks", minThunkBytes); n > 0 {
		sc.Thunks = make([]Thunk, n)
		for i := range sc.Thunks {
			th := &sc.Thunks[i]
			th.Index = c.Uvarint("delta.sub.thunk.index")
			th.Site = SiteRef(c.Uint32("delta.sub.thunk.site"))
			flags := c.Byte("delta.sub.thunk.flags", 3)
			th.Taken, th.Indirect = flags&1 != 0, flags&2 != 0
			th.Target = SiteRef(c.Uint32("delta.sub.thunk.target"))
			th.Instructions = c.Uvarint("delta.sub.thunk.instructions")
		}
	}
	return sc
}

// parsePageSetField reads one page list at the cursor into a set.
func parsePageSetField(c *wire.Cursor, field string) PageSet {
	ps, n, err := parsePageSet(c.Rest())
	if err != nil {
		c.Fail(field, err.Error())
		return PageSet{}
	}
	c.Skip(n)
	return ps
}
