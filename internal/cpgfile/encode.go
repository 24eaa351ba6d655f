package cpgfile

import (
	"encoding/binary"
	"hash/crc32"
	"io"

	"github.com/repro/inspector/internal/atomicio"
	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/wire"
)

// preambleLen is the fixed prefix before the header payload: magic,
// version, header length, header CRC.
const preambleLen = len(Magic) + 4 + 4 + 4

// tableEntryLen is the fixed width of one section-table entry: u32
// kind, u64 offset, u64 length, u32 CRC. Fixed width breaks the
// circularity between section offsets and header length — the header's
// size is known before any offset is.
const tableEntryLen = 4 + 8 + 8 + 4

// Write serializes the analysis to path in CPG file format, through
// the crash-safe temp+fsync+rename path every durable artifact in this
// repo uses: a reader never observes a half-written file.
func Write(path string, a *core.Analysis, meta Meta) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return Encode(w, a, meta)
	})
}

// Encode serializes the analysis to w. The output is deterministic:
// the same analysis prefix and meta always produce the same bytes
// (sections serialize the canonical in-memory forms), which is what
// makes the file's content hash a sound cache key.
func Encode(w io.Writer, a *core.Analysis, meta Meta) error {
	g := a.Graph()
	lens := a.ThreadLens()
	subs := a.Subs()
	syncEdges, dataEdges := a.EdgeSections()
	comp := a.Completeness()

	// Resolve sync-edge object refs before snapshotting the symbol
	// table, so a ref can never point past the serialized table.
	syncObjRefs := make([]core.ObjRef, len(syncEdges))
	for i := range syncEdges {
		syncObjRefs[i] = g.InternObject(syncEdges[i].Object)
	}

	sections := make([][]byte, 0, numSections)

	// Every field below is spelled by internal/core's field codecs, the
	// ones the epoch delta uses row-wise; this file only chooses the
	// columns.

	// Section 1: symbols — the interner snapshot in ref order, so a
	// serialized ref r names the r'th string of this table.
	sections = append(sections, core.AppendSymbols(nil, g.Symbols()))

	// Section 2: vertices — the per-thread layout, then each vertex's
	// scalar columns in (thread, alpha) order.
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(lens)))
	for _, n := range lens {
		b = binary.AppendUvarint(b, uint64(n))
	}
	for _, sc := range subs {
		b = core.AppendVertex(b, sc)
	}
	sections = append(sections, b)

	// Sections 3 and 4: read and write sets, one canonical
	// uvarint-delta PageSet per vertex in the same order.
	b = nil
	for _, sc := range subs {
		b = core.AppendPages(b, sc.ReadSet.Sorted())
	}
	sections = append(sections, b)
	b = nil
	for _, sc := range subs {
		b = core.AppendPages(b, sc.WriteSet.Sorted())
	}
	sections = append(sections, b)

	// Section 5: thunks — the control-path column.
	b = nil
	for _, sc := range subs {
		b = core.AppendThunks(b, sc.Thunks)
	}
	sections = append(sections, b)

	// Section 6: sync edges, already in canonical order.
	b = nil
	b = binary.AppendUvarint(b, uint64(len(syncEdges)))
	for i := range syncEdges {
		b = core.AppendSubID(b, syncEdges[i].From)
		b = core.AppendSubID(b, syncEdges[i].To)
		b = binary.AppendUvarint(b, uint64(syncObjRefs[i]))
	}
	sections = append(sections, b)

	// Section 7: data edges — the derived adjacency, stored so the
	// load path never re-runs derivation.
	b = nil
	b = binary.AppendUvarint(b, uint64(len(dataEdges)))
	for i := range dataEdges {
		b = core.AppendSubID(b, dataEdges[i].From)
		b = core.AppendSubID(b, dataEdges[i].To)
		b = core.AppendPages(b, dataEdges[i].Pages)
	}
	sections = append(sections, b)

	// Section 8: gap intervals, per thread.
	b = nil
	b = binary.AppendUvarint(b, uint64(len(comp.Gaps)))
	for _, tg := range comp.Gaps {
		b = binary.AppendUvarint(b, uint64(tg.Thread))
		b = binary.AppendUvarint(b, uint64(len(tg.Gaps)))
		for _, gp := range tg.Gaps {
			b = core.AppendGap(b, gp)
		}
	}
	sections = append(sections, b)

	// Section 9: precomputed stats, so listing a CPG never costs a
	// decode — the numbers the query engine's stats answers with.
	st := a.Stats()
	b = nil
	for _, v := range []uint64{
		uint64(st.SubComputations), uint64(st.Threads), uint64(st.Thunks),
		uint64(st.ReadSetPages), uint64(st.WriteSetPages),
		uint64(st.ControlEdges), uint64(st.SyncEdges), uint64(st.DataEdges),
		uint64(st.GapThreads), uint64(st.GapIntervals), st.LostTraceBytes,
	} {
		b = binary.AppendUvarint(b, v)
	}
	sections = append(sections, b)

	// Header payload: identity fields, then the fixed-width section
	// table with absolute offsets.
	hdr := wire.AppendString(nil, meta.RunID)
	hdr = wire.AppendString(hdr, meta.App)
	hdr = binary.AppendUvarint(hdr, uint64(g.Threads()))
	hdr = binary.AppendUvarint(hdr, a.Epoch())
	if a.Degraded() {
		hdr = append(hdr, 1)
	} else {
		hdr = append(hdr, 0)
	}
	hdr = binary.AppendUvarint(hdr, numSections)
	offset := uint64(preambleLen + len(hdr) + numSections*tableEntryLen)
	for i, sec := range sections {
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(i+1))
		hdr = binary.LittleEndian.AppendUint64(hdr, offset)
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(sec)))
		hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(sec, castagnoli))
		offset += uint64(len(sec))
	}

	var pre []byte
	pre = append(pre, Magic...)
	pre = binary.LittleEndian.AppendUint32(pre, Version)
	pre = binary.LittleEndian.AppendUint32(pre, uint32(len(hdr)))
	pre = binary.LittleEndian.AppendUint32(pre, crc32.Checksum(hdr, castagnoli))
	if _, err := w.Write(pre); err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for _, sec := range sections {
		if _, err := w.Write(sec); err != nil {
			return err
		}
	}
	return nil
}
