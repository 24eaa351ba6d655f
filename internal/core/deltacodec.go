package core

import (
	"encoding/binary"
	"fmt"

	"github.com/repro/inspector/internal/wire"
)

// The binary form of an EpochDelta — the payload of every journal record
// and ingest frame (wire format version 2). Fields are written row-wise
// in struct order through the field codecs the .cpg sections lay out
// column-wise (fieldcodec.go, AppendPages): uvarints, length-prefixed
// strings, the page-list form, one kind/flags byte where the value is
// an enum or a bit set.
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
// checked afterwards, against the graph, by validateDelta. ParseWire is
// the trust boundary for shape: counts are checked against the bytes
// that remain before anything is allocated, nothing parsed aliases the
// body, and — because exports render nil and empty slices differently
// and a replica's export must be byte-identical to the recorder's — a
// zero-length field parses to nil, the form FoldDelta leaves it in.

// Least bytes one element of each of the delta's own lists can occupy,
// for wire.Cursor.Count.
const (
	minSubBytes  = MinSubIDBytes + MinVertexBytes + 3 // + two page counts, thunk count
	minSyncBytes = 2*MinSubIDBytes + 1                // + object
	minGapBytes  = 1 + MinGapBytes                    // thread +
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
	b = AppendSymbols(b, d.Symbols)
	b = binary.AppendUvarint(b, uint64(len(d.Subs)))
	for _, sc := range d.Subs {
		if sc == nil {
			return b, fmt.Errorf("core: delta contains nil sub-computation")
		}
		if sc.ID.Thread < 0 {
			return b, fmt.Errorf("core: sub %v has a negative thread slot", sc.ID)
		}
		b = AppendSubID(b, sc.ID)
		b = AppendVertex(b, sc)
		b = AppendPageSet(b, &sc.ReadSet)
		b = AppendPageSet(b, &sc.WriteSet)
		b = AppendThunks(b, sc.Thunks)
	}
	b = binary.AppendUvarint(b, uint64(len(d.Sync)))
	for i := range d.Sync {
		e := &d.Sync[i]
		if e.From.Thread < 0 || e.To.Thread < 0 {
			return b, fmt.Errorf("core: delta sync edge %v -> %v has a negative thread slot", e.From, e.To)
		}
		b = AppendSubID(b, e.From)
		b = AppendSubID(b, e.To)
		b = binary.AppendUvarint(b, uint64(e.Object))
	}
	b = binary.AppendUvarint(b, uint64(len(d.Gaps)))
	for i := range d.Gaps {
		dg := &d.Gaps[i]
		if dg.Thread < 0 {
			return b, fmt.Errorf("core: delta gap on negative thread slot %d", dg.Thread)
		}
		b = binary.AppendUvarint(b, uint64(dg.Thread))
		b = AppendGap(b, dg.Gap)
	}
	return b, nil
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
	d.Symbols = ParseSymbols(&c)
	if n := c.Count("delta.subs", minSubBytes); n > 0 {
		d.Subs = make([]*SubComputation, n)
		for i := range d.Subs {
			sc := &SubComputation{ID: ParseSubID(&c, "delta.sub.id")}
			ParseVertex(&c, sc)
			sc.ReadSet = ParsePageSet(&c, "delta.sub.read_set")
			sc.WriteSet = ParsePageSet(&c, "delta.sub.write_set")
			sc.Thunks = ParseThunks(&c)
			d.Subs[i] = sc
			if c.Err() != nil {
				return c.Err()
			}
		}
	}
	if n := c.Count("delta.sync", minSyncBytes); n > 0 {
		d.Sync = make([]DeltaSyncEdge, n)
		for i := range d.Sync {
			d.Sync[i] = DeltaSyncEdge{
				From:   ParseSubID(&c, "delta.sync.from"),
				To:     ParseSubID(&c, "delta.sync.to"),
				Object: ObjRef(c.Uint32("delta.sync.object")),
			}
		}
	}
	if n := c.Count("delta.gaps", minGapBytes); n > 0 {
		d.Gaps = make([]DeltaGap, n)
		for i := range d.Gaps {
			d.Gaps[i] = DeltaGap{Thread: c.Int("delta.gap.thread"), Gap: ParseGap(&c)}
		}
	}
	return c.Done()
}
