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
	syncEdges, dataEdges := a.EdgeSeqs()
	comp := a.Completeness()
	st := a.Stats()

	// Resolve sync-edge object refs before snapshotting the symbol
	// table, so a ref can never point past the serialized table.
	syncObjRefs := make([]core.ObjRef, syncEdges.Len())
	for i := range syncObjRefs {
		syncObjRefs[i] = g.InternObject(syncEdges.At(i).Object)
	}
	syms := g.Symbols()

	// The sections are built back to back in one buffer, sized up front
	// from the counts at hand; ends[i] is where section i+1 stops.
	var ends [numSections]int
	b := make([]byte, 0, sizeHint(syms, st, len(lens)))

	// Every field below is spelled by internal/core's field codecs, the
	// ones the epoch delta uses row-wise; this file only chooses the
	// columns.

	// Section 1: symbols — the interner snapshot in ref order, so a
	// serialized ref r names the r'th string of this table.
	b = core.AppendSymbols(b, syms)
	ends[0] = len(b)

	// Section 2: vertices — the per-thread layout, then each vertex's
	// scalar columns in (thread, alpha) order.
	b = binary.AppendUvarint(b, uint64(len(lens)))
	for _, n := range lens {
		b = binary.AppendUvarint(b, uint64(n))
	}
	for _, sc := range subs {
		b = core.AppendVertex(b, sc)
	}
	ends[1] = len(b)

	// Sections 3 and 4: read and write sets, one canonical
	// uvarint-delta PageSet per vertex in the same order.
	for _, sc := range subs {
		b = core.AppendPageSet(b, &sc.ReadSet)
	}
	ends[2] = len(b)
	for _, sc := range subs {
		b = core.AppendPageSet(b, &sc.WriteSet)
	}
	ends[3] = len(b)

	// Section 5: thunks — the control-path column.
	for _, sc := range subs {
		b = core.AppendThunks(b, sc.Thunks)
	}
	ends[4] = len(b)

	// Section 6: sync edges, read in canonical order where they lie.
	b = binary.AppendUvarint(b, uint64(syncEdges.Len()))
	for i, ref := range syncObjRefs {
		e := syncEdges.At(i)
		b = core.AppendSubID(b, e.From)
		b = core.AppendSubID(b, e.To)
		b = binary.AppendUvarint(b, uint64(ref))
	}
	ends[5] = len(b)

	// Section 7: data edges — the derived adjacency, stored so the
	// load path never re-runs derivation.
	b = binary.AppendUvarint(b, uint64(dataEdges.Len()))
	for i := range dataEdges.Len() {
		e := dataEdges.At(i)
		b = core.AppendSubID(b, e.From)
		b = core.AppendSubID(b, e.To)
		b = core.AppendPages(b, e.Pages)
	}
	ends[6] = len(b)

	// Section 8: gap intervals, per thread.
	b = binary.AppendUvarint(b, uint64(len(comp.Gaps)))
	for _, tg := range comp.Gaps {
		b = binary.AppendUvarint(b, uint64(tg.Thread))
		b = binary.AppendUvarint(b, uint64(len(tg.Gaps)))
		for _, gp := range tg.Gaps {
			b = core.AppendGap(b, gp)
		}
	}
	ends[7] = len(b)

	// Section 9: precomputed stats, so listing a CPG never costs a
	// decode — the numbers the query engine's stats answers with.
	for _, v := range []uint64{
		uint64(st.SubComputations), uint64(st.Threads), uint64(st.Thunks),
		uint64(st.ReadSetPages), uint64(st.WriteSetPages),
		uint64(st.ControlEdges), uint64(st.SyncEdges), uint64(st.DataEdges),
		uint64(st.GapThreads), uint64(st.GapIntervals), st.LostTraceBytes,
	} {
		b = binary.AppendUvarint(b, v)
	}
	ends[8] = len(b)

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
	start := 0
	for i, end := range ends {
		sec := b[start:end]
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(i+1))
		hdr = binary.LittleEndian.AppendUint64(hdr, offset)
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(sec)))
		hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(sec, castagnoli))
		offset += uint64(len(sec))
		start = end
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
	_, err := w.Write(b)
	return err
}

// sizeHint estimates the sections' total size from the counts Encode
// already holds, a little high, so the one buffer is allocated once: a
// vertex costs about two bytes per clock entry plus its cycle counts
// and one count byte in each per-vertex column, a page up to three bytes
// of delta, a thunk its five fields, an edge its two ids plus an object
// ref or a short page list.
func sizeHint(syms []string, st core.Stats, threads int) int {
	n := 128
	for _, s := range syms {
		n += len(s) + 2
	}
	n += st.SubComputations * (11 + 2*threads)
	n += 3 * (st.ReadSetPages + st.WriteSetPages)
	n += 8 * st.Thunks
	return n + 10*(st.SyncEdges+st.DataEdges)
}
