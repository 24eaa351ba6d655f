package cpgfile

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sync"

	"github.com/repro/inspector/internal/core"
)

// Mapped is the lazy read path: the file stays memory-mapped and only
// the sections a caller touches are ever decoded. Header fields and
// the precomputed stats come straight from their (CRC-verified)
// sections; the full analysis materializes only when asked for, and
// every ask decodes afresh — keeping a decoded analysis, and dropping
// it under memory pressure, is the caller's business (provenance.Store
// does both). Thousands of Mapped CPGs cost pages of mapped file.
//
// A materialization is Load's decode over the mapping: every section
// but the thunks section, which stays encoded as one byte column the
// analysis owns (see Analysis). Decoded values and that column never
// alias the mapping, so an analysis obtained from Analysis remains
// valid after Close; a column it has not read yet is read from the
// file, so that takes the file staying in place. Methods are safe for
// concurrent use; Close must not race other calls.
type Mapped struct {
	path  string
	data  []byte
	unmap func() error
	lay   *fileLayout

	// mu guards what the mapping remembers across calls: its first
	// materialization's thunk walk and the content hash.
	mu     sync.Mutex
	walk   thunkWalk
	hash   [sha256.Size]byte
	hashed bool
}

// Open maps the CPG file at path and parses its preamble and header.
// No section is decoded; Open of a multi-gigabyte archive costs the
// header bytes only. Corruption inside a section surfaces later, from
// the read that touches it — callers that must front-load detection
// (a server refusing to advertise a damaged CPG) follow Open with
// VerifyChecksums.
func Open(path string) (*Mapped, error) {
	data, unmap, err := mmapFile(path)
	if err != nil {
		return nil, err
	}
	lay, err := parseFile(data)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, err
	}
	return &Mapped{path: path, data: data, unmap: unmap, lay: lay}, nil
}

// Path returns the file path the mapping was opened from.
func (m *Mapped) Path() string { return m.path }

// Size returns the mapped file size in bytes.
func (m *Mapped) Size() int64 { return int64(len(m.data)) }

// Header returns the decoded file header.
func (m *Mapped) Header() Header { return m.lay.hdr }

// Stats decodes the precomputed stats section — a handful of uvarints,
// never the graph.
func (m *Mapped) Stats() (Stats, error) {
	return decodeStats(m.data, m.lay)
}

// VerifyChecksums sweeps every section's CRC-32C over the mapping
// without decoding anything: one sequential read of the file. It
// returns the first mismatch as a *CorruptError naming the section.
func (m *Mapped) VerifyChecksums() error {
	for kind := uint32(1); kind <= numSections; kind++ {
		if _, err := m.lay.section(m.data, kind); err != nil {
			return err
		}
	}
	return nil
}

// ContentHash returns the SHA-256 of the file bytes, computed on first
// call and cached. Encoding is deterministic, so equal analyses have
// equal hashes — the content-addressed result cache keys on this.
func (m *Mapped) ContentHash() [sha256.Size]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.hashed {
		m.hash = sha256.Sum256(m.data)
		m.hashed = true
	}
	return m.hash
}

// Analysis materializes the full analysis, decoding as Load does. Every
// section is decoded except the thunks section, which the graph carries
// as its control-path column — vertices hold empty paths; Stats counts
// the column, Encode copies it and the JSON render decodes it. The
// mapping's first successful materialization copies the section into
// memory the analysis owns, checks its CRC on that copy, so the bytes
// checked are the bytes kept, and walks its structure (counts, fields,
// symbol refs, trailing bytes); it also checks the stats section
// against the graph, and the mapping remembers both, where every Load
// does both. A later call checks the section's CRC in place and copies
// nothing: its analysis reads the section from the file, and checks that
// copy's CRC, the first time Encode or the JSON render needs it — a
// query never does. Each call returns a new analysis; calls on one
// mapping run one at a time.
//
// The second result is the estimated resident footprint of the decoded
// analysis in bytes — the column charged at its length, read or not —
// what a budget-keeping caller accounts for.
func (m *Mapped) Analysis() (*core.Analysis, int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return decodeAnalysis(m.data, m.lay, &m.walk, m.column)
}

// column reads the thunks section from the mapping's file into memory
// the caller owns and checks its CRC: the column of an analysis after
// the first, read when a reader first needs it, after Close too.
func (m *Mapped) column() ([]byte, error) {
	f, err := os.Open(m.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := m.lay.secs[secThunks]
	b := make([]byte, s.length)
	if _, err := f.ReadAt(b, int64(s.off)); err != nil {
		return nil, fmt.Errorf("%s: thunks section: %w", m.path, err)
	}
	if b, err = m.lay.checked(secThunks, b); err != nil {
		return nil, fmt.Errorf("%s: %w", m.path, err)
	}
	return b, nil
}

// Close unmaps the file. The Mapped must not be used afterwards;
// previously returned analyses stay valid.
func (m *Mapped) Close() error {
	if m.unmap == nil {
		return nil
	}
	unmap := m.unmap
	m.unmap = nil
	return unmap()
}
