package cpgfile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/vclock"
	"github.com/repro/inspector/internal/vtime"
)

// Decoder hard limits. A CPG file is untrusted input (fuzzed,
// potentially torn or flipped on disk), so no count read from the file
// is ever trusted for an allocation: counts are bounded by the bytes
// that could plausibly back them, and slices grow by append beyond a
// small cap hint.
const (
	maxThreads   = 1 << 20
	maxHeaderLen = 1 << 24
	capHintMax   = 1024
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

// capHint bounds an up-front slice capacity for an untrusted count.
func capHint(n uint64) int {
	if n > capHintMax {
		return capHintMax
	}
	return int(n)
}

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

// reader is a bounds-checked cursor over one section's bytes. Every
// failure is a CorruptError naming the section.
type reader struct {
	b   []byte
	off int
	sec uint32
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, corruptf(r.sec, "truncated or overlong uvarint at byte %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, corruptf(r.sec, "truncated at byte %d", r.off)
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}

func (r *reader) take(n uint64) ([]byte, error) {
	if n > uint64(r.remaining()) {
		return nil, corruptf(r.sec, "field of %d bytes exceeds the %d remaining", n, r.remaining())
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *reader) expectDone() error {
	if r.remaining() != 0 {
		return corruptf(r.sec, "%d trailing bytes", r.remaining())
	}
	return nil
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

	lay := &fileLayout{hdr: Header{Version: version}}
	r := &reader{b: hdr, sec: 0} // section 0 renders as the header
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	runID, err := r.take(n)
	if err != nil {
		return nil, err
	}
	lay.hdr.RunID = string(runID)
	if n, err = r.uvarint(); err != nil {
		return nil, err
	}
	app, err := r.take(n)
	if err != nil {
		return nil, err
	}
	lay.hdr.App = string(app)
	threads, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if threads > maxThreads {
		return nil, corruptHeaderf("thread count %d exceeds limit %d", threads, maxThreads)
	}
	lay.hdr.Threads = int(threads)
	if lay.hdr.Epoch, err = r.uvarint(); err != nil {
		return nil, err
	}
	degraded, err := r.byte()
	if err != nil {
		return nil, err
	}
	if degraded > 1 {
		return nil, corruptHeaderf("degraded flag byte %d is not 0 or 1", degraded)
	}
	lay.hdr.Degraded = degraded == 1

	count, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if count != numSections {
		return nil, corruptHeaderf("section table holds %d entries, format v1 requires %d", count, numSections)
	}
	end := uint64(preambleLen) + uint64(hdrLen)
	for i := 0; i < numSections; i++ {
		entry, err := r.take(tableEntryLen)
		if err != nil {
			return nil, err
		}
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
	if err := r.expectDone(); err != nil {
		return nil, err
	}
	if end != uint64(len(data)) {
		return nil, corruptHeaderf("%d bytes past the last section", uint64(len(data))-end)
	}
	return lay, nil
}

// section verifies one section's CRC and returns a cursor over it.
func (lay *fileLayout) section(data []byte, kind uint32) (*reader, error) {
	s := lay.secs[kind]
	b := data[s.off : s.off+s.length]
	if got := crc32.Checksum(b, castagnoli); got != s.crc {
		return nil, corruptf(kind, "CRC mismatch: stored %08x, computed %08x", s.crc, got)
	}
	return &reader{b: b, sec: kind}, nil
}

// Load fully decodes the CPG file at path. The returned analysis owns
// all of its memory — nothing aliases the file.
func Load(path string) (*core.Analysis, Header, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Header{}, err
	}
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
	rs, err := lay.section(data, secSymbols)
	if err != nil {
		return nil, 0, err
	}
	symCount, err := rs.uvarint()
	if err != nil {
		return nil, 0, err
	}
	if symCount > uint64(rs.remaining())+1 {
		return nil, 0, corruptf(secSymbols, "symbol count %d exceeds the section's %d bytes", symCount, rs.remaining())
	}
	g := core.NewGraph(lay.hdr.Threads)
	remap := make([]uint32, 0, capHint(symCount))
	for i := uint64(0); i < symCount; i++ {
		n, err := rs.uvarint()
		if err != nil {
			return nil, 0, err
		}
		sym, err := rs.take(n)
		if err != nil {
			return nil, 0, err
		}
		remap = append(remap, uint32(g.InternSite(string(sym))))
		footprint += fpPerSymbol + int64(n)
	}
	if err := rs.expectDone(); err != nil {
		return nil, 0, err
	}
	mapRef := func(sec uint32, ref uint64) (uint32, error) {
		if ref >= uint64(len(remap)) {
			return 0, corruptf(sec, "symbol ref %d outside the %d-entry table", ref, len(remap))
		}
		return remap[ref], nil
	}

	// Vertices + per-vertex columns: four cursors advance in lockstep,
	// one vertex at a time, in (thread, alpha) order.
	rv, err := lay.section(data, secVertices)
	if err != nil {
		return nil, 0, err
	}
	rr, err := lay.section(data, secReadSets)
	if err != nil {
		return nil, 0, err
	}
	rw, err := lay.section(data, secWriteSets)
	if err != nil {
		return nil, 0, err
	}
	rt, err := lay.section(data, secThunks)
	if err != nil {
		return nil, 0, err
	}
	nthreads, err := rv.uvarint()
	if err != nil {
		return nil, 0, err
	}
	if nthreads != uint64(lay.hdr.Threads) {
		return nil, 0, corruptf(secVertices, "vertex layout covers %d threads, header says %d", nthreads, lay.hdr.Threads)
	}
	lens := make([]int, nthreads)
	var total uint64
	for t := range lens {
		n, err := rv.uvarint()
		if err != nil {
			return nil, 0, err
		}
		total += n
		// Each vertex costs ≥ 6 bytes in this section, so an absurd
		// length is rejected before any per-vertex work.
		if total > uint64(rv.remaining())/6+1 {
			return nil, 0, corruptf(secVertices, "%d vertices cannot fit in the section's %d bytes", total, rv.remaining())
		}
		lens[t] = int(n)
	}
	for t, n := range lens {
		for alpha := 0; alpha < n; alpha++ {
			sc := &core.SubComputation{ID: core.SubID{Thread: t, Alpha: uint64(alpha)}}
			cn, err := rv.uvarint()
			if err != nil {
				return nil, 0, err
			}
			if cn > uint64(rv.remaining())+1 {
				return nil, 0, corruptf(secVertices, "clock of %d entries exceeds the section's %d bytes", cn, rv.remaining())
			}
			clock := make(vclock.Clock, 0, capHint(cn))
			for i := uint64(0); i < cn; i++ {
				v, err := rv.uvarint()
				if err != nil {
					return nil, 0, err
				}
				clock = append(clock, v)
			}
			sc.Clock = clock
			kind, err := rv.byte()
			if err != nil {
				return nil, 0, err
			}
			if kind > uint8(core.SyncRelease) {
				return nil, 0, corruptf(secVertices, "vertex %v has sync kind byte %d", sc.ID, kind)
			}
			sc.End.Kind = core.SyncOpKind(kind)
			objRef, err := rv.uvarint()
			if err != nil {
				return nil, 0, err
			}
			obj, err := mapRef(secVertices, objRef)
			if err != nil {
				return nil, 0, err
			}
			sc.End.Object = core.ObjRef(obj)
			start, err := rv.uvarint()
			if err != nil {
				return nil, 0, err
			}
			finish, err := rv.uvarint()
			if err != nil {
				return nil, 0, err
			}
			sc.Start, sc.Finish = vtime.Cycles(start), vtime.Cycles(finish)
			if sc.Instructions, err = rv.uvarint(); err != nil {
				return nil, 0, err
			}

			pages, err := decodePages(rr)
			if err != nil {
				return nil, 0, err
			}
			if sc.ReadSet, err = pageSet(secReadSets, pages); err != nil {
				return nil, 0, err
			}
			if pages, err = decodePages(rw); err != nil {
				return nil, 0, err
			}
			if sc.WriteSet, err = pageSet(secWriteSets, pages); err != nil {
				return nil, 0, err
			}
			footprint += fpPerWord * int64(len(sc.Clock)+sc.ReadSet.Len()+sc.WriteSet.Len())

			tn, err := rt.uvarint()
			if err != nil {
				return nil, 0, err
			}
			if tn > uint64(rt.remaining())/5+1 {
				return nil, 0, corruptf(secThunks, "%d thunks cannot fit in the section's %d bytes", tn, rt.remaining())
			}
			thunks := make([]core.Thunk, 0, capHint(tn))
			for i := uint64(0); i < tn; i++ {
				var th core.Thunk
				if th.Index, err = rt.uvarint(); err != nil {
					return nil, 0, err
				}
				site, err := rt.uvarint()
				if err != nil {
					return nil, 0, err
				}
				ref, err := mapRef(secThunks, site)
				if err != nil {
					return nil, 0, err
				}
				th.Site = core.SiteRef(ref)
				flags, err := rt.byte()
				if err != nil {
					return nil, 0, err
				}
				if flags > 3 {
					return nil, 0, corruptf(secThunks, "vertex %v thunk %d has flags byte %d", sc.ID, i, flags)
				}
				th.Taken, th.Indirect = flags&1 != 0, flags&2 != 0
				target, err := rt.uvarint()
				if err != nil {
					return nil, 0, err
				}
				if ref, err = mapRef(secThunks, target); err != nil {
					return nil, 0, err
				}
				th.Target = core.SiteRef(ref)
				if th.Instructions, err = rt.uvarint(); err != nil {
					return nil, 0, err
				}
				thunks = append(thunks, th)
			}
			sc.Thunks = thunks
			footprint += fpPerSub + fpPerThunk*int64(len(thunks))
			if err := g.AppendSub(sc); err != nil {
				return nil, 0, corruptf(secVertices, "vertex %v rejected: %v", sc.ID, err)
			}
		}
	}
	for _, r := range []*reader{rv, rr, rw, rt} {
		if err := r.expectDone(); err != nil {
			return nil, 0, err
		}
	}

	syncEdges, err := decodeSyncEdges(lay, data, g, lens, mapRef)
	if err != nil {
		return nil, 0, err
	}
	dataEdges, err := decodeDataEdges(lay, data, lens)
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

// decodePages reads one canonical page list (core.AppendPages form)
// into fresh memory; an empty list is nil.
func decodePages(r *reader) ([]uint64, error) {
	pages, n, err := core.ParsePages(nil, r.b[r.off:])
	if err != nil {
		return nil, corruptf(r.sec, "at byte %d: %v", r.off, err)
	}
	r.off += n
	return pages, nil
}

// pageSet converts a decoded page list to the in-memory PageSet.
func pageSet(sec uint32, pages []uint64) (core.PageSet, error) {
	ps, err := core.PageSetFromSorted(pages)
	if err != nil {
		return core.PageSet{}, corruptf(sec, "%v", err)
	}
	return ps, nil
}

// decodeSubID reads a vertex id and bounds-checks it against the
// vertex layout.
func decodeSubID(r *reader, lens []int) (core.SubID, error) {
	t, err := r.uvarint()
	if err != nil {
		return core.SubID{}, err
	}
	if t >= uint64(len(lens)) {
		return core.SubID{}, corruptf(r.sec, "edge endpoint thread %d outside the %d-thread layout", t, len(lens))
	}
	alpha, err := r.uvarint()
	if err != nil {
		return core.SubID{}, err
	}
	if alpha >= uint64(lens[t]) {
		return core.SubID{}, corruptf(r.sec, "edge endpoint T%d.%d outside the thread's %d vertices", t, alpha, lens[t])
	}
	return core.SubID{Thread: int(t), Alpha: alpha}, nil
}

// decodeSyncEdges reads the canonical sync-edge section, restoring the
// graph's per-thread sync-edge log as it goes.
func decodeSyncEdges(lay *fileLayout, data []byte, g *core.Graph, lens []int, mapRef func(uint32, uint64) (uint32, error)) ([]core.Edge, error) {
	r, err := lay.section(data, secSyncEdges)
	if err != nil {
		return nil, err
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining())/5+1 {
		return nil, corruptf(secSyncEdges, "%d edges cannot fit in the section's %d bytes", n, r.remaining())
	}
	edges := make([]core.Edge, 0, capHint(n))
	for i := uint64(0); i < n; i++ {
		from, err := decodeSubID(r, lens)
		if err != nil {
			return nil, err
		}
		to, err := decodeSubID(r, lens)
		if err != nil {
			return nil, err
		}
		objRef, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		obj, err := mapRef(secSyncEdges, objRef)
		if err != nil {
			return nil, err
		}
		g.RestoreSyncEdge(from, to, core.ObjRef(obj))
		e := core.Edge{From: from, To: to, Kind: core.EdgeSync, Object: g.ObjectName(core.ObjRef(obj))}
		if len(edges) > 0 && core.EdgeCanonicalLess(e, edges[len(edges)-1]) {
			return nil, corruptf(secSyncEdges, "edge %d out of canonical order", i)
		}
		edges = append(edges, e)
	}
	if err := r.expectDone(); err != nil {
		return nil, err
	}
	return edges, nil
}

// decodeDataEdges reads the derived data-edge section.
func decodeDataEdges(lay *fileLayout, data []byte, lens []int) ([]core.Edge, error) {
	r, err := lay.section(data, secDataEdges)
	if err != nil {
		return nil, err
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining())/5+1 {
		return nil, corruptf(secDataEdges, "%d edges cannot fit in the section's %d bytes", n, r.remaining())
	}
	edges := make([]core.Edge, 0, capHint(n))
	for i := uint64(0); i < n; i++ {
		from, err := decodeSubID(r, lens)
		if err != nil {
			return nil, err
		}
		to, err := decodeSubID(r, lens)
		if err != nil {
			return nil, err
		}
		pages, err := decodePages(r)
		if err != nil {
			return nil, err
		}
		e := core.Edge{From: from, To: to, Kind: core.EdgeData, Pages: pages}
		if len(edges) > 0 && core.EdgeCanonicalLess(e, edges[len(edges)-1]) {
			return nil, corruptf(secDataEdges, "edge %d out of canonical order", i)
		}
		edges = append(edges, e)
	}
	if err := r.expectDone(); err != nil {
		return nil, err
	}
	return edges, nil
}

// decodeGaps restores the per-thread trace-loss intervals.
func decodeGaps(lay *fileLayout, data []byte, g *core.Graph, lens []int) error {
	r, err := lay.section(data, secGaps)
	if err != nil {
		return err
	}
	nt, err := r.uvarint()
	if err != nil {
		return err
	}
	if nt > uint64(len(lens)) {
		return corruptf(secGaps, "%d gap threads exceed the %d-thread layout", nt, len(lens))
	}
	for i := uint64(0); i < nt; i++ {
		t, err := r.uvarint()
		if err != nil {
			return err
		}
		if t >= uint64(len(lens)) {
			return corruptf(secGaps, "gap thread %d outside the %d-thread layout", t, len(lens))
		}
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(r.remaining())/4+1 {
			return corruptf(secGaps, "%d gaps cannot fit in the section's %d bytes", n, r.remaining())
		}
		for j := uint64(0); j < n; j++ {
			var gp core.Gap
			if gp.FromAlpha, err = r.uvarint(); err != nil {
				return err
			}
			if gp.ToAlpha, err = r.uvarint(); err != nil {
				return err
			}
			kind, err := r.byte()
			if err != nil {
				return err
			}
			if kind == 0 || kind > uint8(core.GapPanic) {
				return corruptf(secGaps, "thread %d gap %d has kind byte %d", t, j, kind)
			}
			gp.Kind = core.GapKind(kind)
			if gp.Bytes, err = r.uvarint(); err != nil {
				return err
			}
			g.AddGap(int(t), gp)
		}
	}
	return r.expectDone()
}

// decodeStats reads the precomputed stats section.
func decodeStats(data []byte, lay *fileLayout) (Stats, error) {
	r, err := lay.section(data, secStats)
	if err != nil {
		return Stats{}, err
	}
	var v [11]uint64
	for i := range v {
		if v[i], err = r.uvarint(); err != nil {
			return Stats{}, err
		}
	}
	if err := r.expectDone(); err != nil {
		return Stats{}, err
	}
	return Stats{
		SubComputations: int(v[0]), Threads: int(v[1]), Thunks: int(v[2]),
		ReadSetPages: int(v[3]), WriteSetPages: int(v[4]),
		ControlEdges: int(v[5]), SyncEdges: int(v[6]), DataEdges: int(v[7]),
		GapThreads: int(v[8]), GapIntervals: int(v[9]), LostTraceBytes: v[10],
	}, nil
}
