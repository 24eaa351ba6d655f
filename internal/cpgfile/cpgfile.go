// Package cpgfile is the on-disk columnar CPG format: a provenance
// graph that outlives the run that produced it, cheap to archive and
// cheap to serve. A file holds one analyzed CPG prefix — exactly the
// sealed core.Analysis surface — laid out as independently
// checksummed columnar sections behind a small self-describing header:
//
//	magic "INSPCPG1"
//	u32   format version (1)
//	u32   header length
//	u32   header CRC-32C
//	header: run id, app, thread count, epoch, degraded flag,
//	        section table {kind, offset, length, CRC-32C} × n
//	sections: symbols | vertices | read sets | write sets | thunks |
//	          sync edges | data edges | gaps | stats
//
// The layout cashes in the columnar in-memory design: interned symbols
// become a table of len-prefixed strings, PageSets serialize in their
// canonical uvarint-delta form, and the sync/data adjacency is stored
// as the already-derived canonical edge sections, so loading never
// re-derives anything. How each field is spelled is not decided here:
// the encoder and decoder lay out internal/core's field codecs
// (fieldcodec.go, the ones the epoch delta writes row-wise) column by
// column, and every section is read through a wire.Cursor, which owns
// the rule for how an untrusted count may allocate. Two read paths
// share one parser: Load fully decodes a file into a core.Analysis, and
// Mapped keeps the file mmapped, answering header/stats queries straight
// from their sections and materializing the analysis only on demand
// (and dropping it again under memory pressure — see provenance.Store).
// A materialization keeps the thunks section — the control path, which
// no query reads and which dominates a branchy file — as one owned,
// CRC-checked byte column on the graph instead of decoding it: the
// column is walked once per mapping, and decoded only by the JSON
// render.
//
// Integrity is per section: every read path verifies the CRC of each
// section it touches before decoding it, and every decode error is a
// *CorruptError naming the offending section, so a torn or bit-flipped
// file is diagnosed by name instead of panicking or mis-answering.
//
// Symbol refs inside a file index the file's own embedded symbol table
// and nothing else — the in-memory rule that interner refs never leak
// across runs holds here because the table travels with the refs, and
// the decoder re-interns through a remap table rather than trusting
// raw ref values.
package cpgfile

import (
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/repro/inspector/internal/core"
)

// Magic identifies a CPG file: 7 format bytes + the major version
// digit, so incompatible future layouts change the magic itself.
const Magic = "INSPCPG1"

// Version is the current format version.
const Version = 1

// castagnoli is the CRC-32C polynomial table shared by all checksums
// in the format (hardware-accelerated on the platforms we serve from).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Section kinds, in their required file order.
const (
	secSymbols   = 1
	secVertices  = 2
	secReadSets  = 3
	secWriteSets = 4
	secThunks    = 5
	secSyncEdges = 6
	secDataEdges = 7
	secGaps      = 8
	secStats     = 9
	numSections  = 9
)

// sectionName names a section kind for error messages; 0 is the
// header, which errors treat as a pseudo-section.
func sectionName(kind uint32) string {
	switch kind {
	case 0:
		return "header"
	case secSymbols:
		return "symbols"
	case secVertices:
		return "vertices"
	case secReadSets:
		return "readsets"
	case secWriteSets:
		return "writesets"
	case secThunks:
		return "thunks"
	case secSyncEdges:
		return "syncedges"
	case secDataEdges:
		return "dataedges"
	case secGaps:
		return "gaps"
	case secStats:
		return "stats"
	default:
		return fmt.Sprintf("unknown(%d)", kind)
	}
}

// Meta is the write-time identity recorded in the header: which run
// produced the graph. Both fields are informational.
type Meta struct {
	RunID string
	App   string
}

// Header is the decoded file header.
type Header struct {
	Version  uint32
	RunID    string
	App      string
	Threads  int
	Epoch    uint64
	Degraded bool
}

// Stats is the precomputed summary stored in the stats section, so a
// server can list and describe a CPG without materializing it: the
// serialized analysis's own Stats, computed at write time.
type Stats = core.Stats

// Sentinel errors. Every corruption-shaped failure from this package
// matches errors.Is(err, ErrCorrupt); magic and version mismatches are
// distinguishable because "not a CPG file" and "a CPG file from the
// future" call for different operator responses than "damaged file".
var (
	ErrCorrupt    = errors.New("corrupt CPG file")
	ErrBadMagic   = errors.New("not a CPG file (bad magic)")
	ErrBadVersion = errors.New("unsupported CPG file version")
)

// CorruptError reports a damaged file, naming the section where the
// damage was detected ("header" for failures before any section).
type CorruptError struct {
	Section string
	Err     error
}

// Error renders like `cpgfile: corrupt section "syncedges": ...`.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("cpgfile: corrupt section %q: %v", e.Section, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *CorruptError) Unwrap() error { return e.Err }

// Is matches ErrCorrupt, so callers can class-test without knowing the
// section.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// corruptf wraps a decode failure in a section-named CorruptError.
func corruptf(section uint32, format string, args ...any) error {
	return &CorruptError{Section: sectionName(section), Err: fmt.Errorf(format, args...)}
}

// corruptHeaderf is corruptf for failures before any section exists.
func corruptHeaderf(format string, args ...any) error {
	return &CorruptError{Section: "header", Err: fmt.Errorf(format, args...)}
}
