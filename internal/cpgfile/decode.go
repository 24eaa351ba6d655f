package cpgfile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/wire"
)

// A CPG file is untrusted input (fuzzed, potentially torn or flipped on
// disk). Every section is read through a wire.Cursor with internal/core's
// field codecs — the decoder the ingest endpoint already trusts with
// hostile bodies — so one rule covers how a count may allocate: only
// after it fits the bytes that remain. The limits below bound what the
// header alone may claim.
const (
	maxThreads   = 1 << 20
	maxHeaderLen = 1 << 24
)

// Least bytes one element of this file's own lists can occupy.
const (
	minEdgeBytes      = 2*core.MinSubIDBytes + 1 // + object ref or page count
	minGapThreadBytes = 2                        // thread, interval count
)

// Rough per-object resident sizes used for the decoded-footprint
// estimate the serving layer budgets against. Estimates, not
// accounting: the budget bounds order-of-magnitude memory, and these
// deliberately round up (struct + pointer + container slot).
const (
	fpPerSub    = 208
	fpPerThunk  = 40
	fpPerEdge   = 80
	fpPerWord   = 8
	fpPerSymbol = 48
)

// span locates one section inside the file.
type span struct {
	off, length uint64
	crc         uint32
}

// fileLayout is the parsed preamble + header: everything needed to
// find and verify a section without touching it.
type fileLayout struct {
	hdr  Header
	secs [numSections + 1]span
}

// inSection turns a section cursor's failure, if any, into the
// CorruptError naming that section (0 is the header).
func inSection(kind uint32, err error) error {
	if err == nil {
		return nil
	}
	return &CorruptError{Section: sectionName(kind), Err: err}
}

// parseFile validates the preamble and header and returns the layout.
// Section payloads are located and bounds-checked but not read.
func parseFile(data []byte) (*fileLayout, error) {
	if len(data) < preambleLen {
		return nil, corruptHeaderf("file of %d bytes is shorter than the %d-byte preamble", len(data), preambleLen)
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	version := binary.LittleEndian.Uint32(data[len(Magic):])
	if version != Version {
		return nil, fmt.Errorf("cpgfile: %w: %d (this build reads %d)", ErrBadVersion, version, Version)
	}
	hdrLen := binary.LittleEndian.Uint32(data[len(Magic)+4:])
	hdrCRC := binary.LittleEndian.Uint32(data[len(Magic)+8:])
	if uint64(hdrLen) > maxHeaderLen || uint64(hdrLen) > uint64(len(data)-preambleLen) {
		return nil, corruptHeaderf("header length %d exceeds file size %d", hdrLen, len(data))
	}
	hdr := data[preambleLen : preambleLen+int(hdrLen)]
	if got := crc32.Checksum(hdr, castagnoli); got != hdrCRC {
		return nil, corruptHeaderf("header CRC mismatch: stored %08x, computed %08x", hdrCRC, got)
	}

	// The header is its identity fields, then the fixed-width section
	// table: the table's size is known, so the fields are what precedes it.
	const tableLen = numSections * tableEntryLen
	if len(hdr) < tableLen {
		return nil, corruptHeaderf("header of %d bytes cannot hold the %d-byte section table", len(hdr), tableLen)
	}
	lay := &fileLayout{hdr: Header{Version: version}}
	c := wire.NewCursor(hdr[:len(hdr)-tableLen])
	lay.hdr.RunID = c.String("run_id")
	lay.hdr.App = c.String("app")
	lay.hdr.Threads = c.Int("threads")
	lay.hdr.Epoch = c.Uvarint("epoch")
	lay.hdr.Degraded = c.Byte("degraded", 1) == 1
	count := c.Uvarint("sections")
	if err := c.Done(); err != nil {
		return nil, inSection(0, err)
	}
	if lay.hdr.Threads > maxThreads {
		return nil, corruptHeaderf("thread count %d exceeds limit %d", lay.hdr.Threads, maxThreads)
	}
	if count != numSections {
		return nil, corruptHeaderf("section table holds %d entries, format v1 requires %d", count, numSections)
	}
	end := uint64(preambleLen) + uint64(hdrLen)
	for i, table := 0, hdr[len(hdr)-tableLen:]; i < numSections; i++ {
		entry := table[i*tableEntryLen:]
		kind := binary.LittleEndian.Uint32(entry)
		off := binary.LittleEndian.Uint64(entry[4:])
		length := binary.LittleEndian.Uint64(entry[12:])
		crc := binary.LittleEndian.Uint32(entry[20:])
		if kind != uint32(i+1) {
			return nil, corruptHeaderf("section table entry %d has kind %s, want %s",
				i, sectionName(kind), sectionName(uint32(i+1)))
		}
		if off != end {
			return nil, corruptHeaderf("section %s starts at offset %d, want %d", sectionName(kind), off, end)
		}
		if length > uint64(len(data)) || off > uint64(len(data))-length {
			return nil, corruptHeaderf("section %s (%d bytes at %d) exceeds file size %d",
				sectionName(kind), length, off, len(data))
		}
		lay.secs[kind] = span{off: off, length: length, crc: crc}
		end = off + length
	}
	if end != uint64(len(data)) {
		return nil, corruptHeaderf("%d bytes past the last section", uint64(len(data))-end)
	}
	return lay, nil
}

// section verifies one section's CRC and returns a cursor over it.
func (lay *fileLayout) section(data []byte, kind uint32) (wire.Cursor, error) {
	s := lay.secs[kind]
	b := data[s.off : s.off+s.length]
	if got := crc32.Checksum(b, castagnoli); got != s.crc {
		return wire.Cursor{}, corruptf(kind, "CRC mismatch: stored %08x, computed %08x", s.crc, got)
	}
	return wire.NewCursor(b), nil
}

// Load fully decodes the CPG file at path. The returned analysis owns
// all of its memory — nothing aliases the file. A file that does not
// decode is reported with its path.
func Load(path string) (*core.Analysis, Header, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Header{}, err
	}
	a, hdr, err := decodeFile(data)
	if err != nil {
		return nil, Header{}, fmt.Errorf("%s: %w", path, err)
	}
	return a, hdr, nil
}

// decodeFile is Load over the file's bytes.
func decodeFile(data []byte) (*core.Analysis, Header, error) {
	lay, err := parseFile(data)
	if err != nil {
		return nil, Header{}, err
	}
	a, _, err := decodeAnalysis(data, lay)
	if err != nil {
		return nil, Header{}, err
	}
	// The graph decode never touches the stats section; verify it too,
	// so a successful Load vouches for every byte of the file.
	if _, err := decodeStats(data, lay); err != nil {
		return nil, Header{}, err
	}
	return a, lay.hdr, nil
}

// decodeAnalysis materializes the full analysis from a parsed file,
// returning it with the estimated resident footprint of the decode.
func decodeAnalysis(data []byte, lay *fileLayout) (*core.Analysis, int64, error) {
	var footprint int64

	// Symbols: re-intern through a remap table. Refs in the file index
	// this table; nothing trusts them as in-memory refs directly.
	cs, err := lay.section(data, secSymbols)
	if err != nil {
		return nil, 0, err
	}
	syms := core.ParseSymbols(&cs)
	if err := cs.Done(); err != nil {
		return nil, 0, inSection(secSymbols, err)
	}
	g := core.NewGraph(lay.hdr.Threads)
	remap := make([]uint32, len(syms))
	for i, s := range syms {
		remap[i] = uint32(g.InternSite(s))
		footprint += fpPerSymbol + int64(len(s))
	}
	// mapRef resolves a stored ref, failing the cursor it was read from
	// when it points outside the table.
	mapRef := func(c *wire.Cursor, field string, ref uint32) uint32 {
		if uint64(ref) >= uint64(len(remap)) {
			c.Fail(field, fmt.Sprintf("symbol ref %d outside the %d-entry table", ref, len(remap)))
			return 0
		}
		return remap[ref]
	}

	// Vertices + per-vertex columns: four cursors advance in lockstep,
	// one vertex at a time, in (thread, alpha) order.
	columns := [...]struct {
		kind uint32
		c    wire.Cursor
	}{{kind: secVertices}, {kind: secReadSets}, {kind: secWriteSets}, {kind: secThunks}}
	for i := range columns {
		if columns[i].c, err = lay.section(data, columns[i].kind); err != nil {
			return nil, 0, err
		}
	}
	cv, cr, cw, ct := &columns[0].c, &columns[1].c, &columns[2].c, &columns[3].c
	intact := func() bool { return cv.Err() == nil && cr.Err() == nil && cw.Err() == nil && ct.Err() == nil }

	nthreads := cv.Count("layout.threads", 1)
	if cv.Err() == nil && nthreads != lay.hdr.Threads {
		cv.Fail("layout.threads", fmt.Sprintf("vertex layout covers %d threads, header says %d", nthreads, lay.hdr.Threads))
	}
	lens := make([]int, nthreads)
	for t := range lens {
		lens[t] = cv.Count("layout.len", core.MinVertexBytes)
	}
	for t, n := range lens {
		for alpha := 0; alpha < n && intact(); alpha++ {
			sc := &core.SubComputation{ID: core.SubID{Thread: t, Alpha: uint64(alpha)}}
			core.ParseVertex(cv, sc)
			sc.End.Object = core.ObjRef(mapRef(cv, "vertex.end.object", uint32(sc.End.Object)))
			sc.ReadSet = core.ParsePageSet(cr, "read_set")
			sc.WriteSet = core.ParsePageSet(cw, "write_set")
			sc.Thunks = core.ParseThunks(ct)
			for i := range sc.Thunks {
				th := &sc.Thunks[i]
				th.Site = core.SiteRef(mapRef(ct, "thunk.site", uint32(th.Site)))
				th.Target = core.SiteRef(mapRef(ct, "thunk.target", uint32(th.Target)))
			}
			if !intact() {
				break
			}
			footprint += fpPerWord * int64(len(sc.Clock)+sc.ReadSet.Len()+sc.WriteSet.Len())
			footprint += fpPerSub + fpPerThunk*int64(len(sc.Thunks))
			if err := g.AppendSub(sc); err != nil {
				cv.Fail("vertex", fmt.Sprintf("%v rejected: %v", sc.ID, err))
			}
		}
	}
	// The column that failed is the damaged one; the others merely
	// stopped early. Only an intact walk owes every column its last byte.
	for i := range columns {
		if err := columns[i].c.Err(); err != nil {
			return nil, 0, inSection(columns[i].kind, err)
		}
	}
	for i := range columns {
		if err := columns[i].c.Done(); err != nil {
			return nil, 0, inSection(columns[i].kind, err)
		}
	}

	syncEdges, err := decodeEdges(lay, data, secSyncEdges, lens, func(c *wire.Cursor, e *core.Edge) {
		obj := core.ObjRef(mapRef(c, "edge.object", c.Uint32("edge.object")))
		if c.Err() == nil {
			g.RestoreSyncEdge(e.From, e.To, obj)
			e.Kind, e.Object = core.EdgeSync, g.ObjectName(obj)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	dataEdges, err := decodeEdges(lay, data, secDataEdges, lens, func(c *wire.Cursor, e *core.Edge) {
		e.Kind, e.Pages = core.EdgeData, core.ParsePages(c, "edge.pages", nil)
	})
	if err != nil {
		return nil, 0, err
	}
	for _, e := range syncEdges {
		footprint += fpPerEdge + int64(len(e.Object))
	}
	for _, e := range dataEdges {
		footprint += fpPerEdge + fpPerWord*int64(len(e.Pages))
	}

	if err := decodeGaps(lay, data, g, lens); err != nil {
		return nil, 0, err
	}

	a, err := core.NewAnalysisFromSections(g, lens, lay.hdr.Epoch, syncEdges, dataEdges)
	if err != nil {
		// The decoder pre-validated order and endpoints per section, so
		// anything left is a vertex-layout inconsistency.
		return nil, 0, corruptf(secVertices, "%v", err)
	}
	// The CSR + indexes roughly double the edge storage.
	footprint += fpPerEdge * int64(len(syncEdges)+len(dataEdges))
	return a, footprint, nil
}

// decodeEdges reads one canonical edge section — sync or data: a count,
// then per edge its two endpoints (each inside the vertex layout) and
// the payload that rest reads into it — and checks the stored order.
func decodeEdges(lay *fileLayout, data []byte, kind uint32, lens []int, rest func(*wire.Cursor, *core.Edge)) ([]core.Edge, error) {
	c, err := lay.section(data, kind)
	if err != nil {
		return nil, err
	}
	endpoint := func() core.SubID {
		id := core.ParseSubID(&c, "edge.endpoint")
		if c.Err() == nil && (id.Thread >= len(lens) || id.Alpha >= uint64(lens[id.Thread])) {
			c.Fail("edge.endpoint", fmt.Sprintf("%v outside the vertex layout", id))
		}
		return id
	}
	edges := make([]core.Edge, c.Count("edges", minEdgeBytes))
	for i := range edges {
		e := &edges[i]
		e.From, e.To = endpoint(), endpoint()
		rest(&c, e)
		if c.Err() != nil {
			break
		}
		// This check is the one that names the section: a stored order
		// violation is reported here as corruption of this section.
		// NewAnalysisFromSections checks the order again for every
		// caller, but its error cannot say which section of which file
		// it read, so decodeAnalysis can only blame the vertex layout.
		if i > 0 && core.EdgeCanonicalLess(e, &edges[i-1]) {
			c.Fail("edge", fmt.Sprintf("edge %d out of canonical order", i))
		}
	}
	return edges, inSection(kind, c.Done())
}

// decodeGaps restores the per-thread trace-loss intervals.
func decodeGaps(lay *fileLayout, data []byte, g *core.Graph, lens []int) error {
	c, err := lay.section(data, secGaps)
	if err != nil {
		return err
	}
	nt := c.Count("gaps.threads", minGapThreadBytes)
	if nt > len(lens) {
		c.Fail("gaps.threads", fmt.Sprintf("%d gap threads exceed the %d-thread layout", nt, len(lens)))
	}
	for i := 0; i < nt && c.Err() == nil; i++ {
		t := c.Int("gaps.thread")
		if t >= len(lens) {
			c.Fail("gaps.thread", fmt.Sprintf("gap thread %d outside the %d-thread layout", t, len(lens)))
		}
		for n := c.Count("gaps.intervals", core.MinGapBytes); n > 0; n-- {
			if gp := core.ParseGap(&c); c.Err() == nil {
				g.AddGap(t, gp)
			}
		}
	}
	return inSection(secGaps, c.Done())
}

// decodeStats reads the precomputed stats section.
func decodeStats(data []byte, lay *fileLayout) (Stats, error) {
	c, err := lay.section(data, secStats)
	if err != nil {
		return Stats{}, err
	}
	var v [11]uint64
	for i := range v {
		v[i] = c.Uvarint("stats")
	}
	if err := c.Done(); err != nil {
		return Stats{}, inSection(secStats, err)
	}
	return Stats{
		SubComputations: int(v[0]), Threads: int(v[1]), Thunks: int(v[2]),
		ReadSetPages: int(v[3]), WriteSetPages: int(v[4]),
		ControlEdges: int(v[5]), SyncEdges: int(v[6]), DataEdges: int(v[7]),
		GapThreads: int(v[8]), GapIntervals: int(v[9]), LostTraceBytes: v[10],
	}, nil
}
