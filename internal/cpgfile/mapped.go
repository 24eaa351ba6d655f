package cpgfile

import (
	"crypto/sha256"
	"sync"

	"github.com/repro/inspector/internal/core"
)

// Mapped is the lazy read path: the file stays memory-mapped and only
// the sections a caller touches are ever decoded. Header fields and
// the precomputed stats come straight from their (CRC-verified)
// sections; the full analysis materializes on first demand and is
// cached until Drop. The serving layer leans on exactly this split —
// thousands of Mapped CPGs cost pages of mapped file, while the
// resident-bytes budget governs how many carry a decoded analysis.
//
// A materialization decodes every section but one: the thunks section
// stays encoded, copied as one byte column the analysis owns (see
// Analysis). Decoded values and that column never alias the mapping, so
// an analysis obtained from Analysis remains valid after Drop and even
// after Close. Methods are safe for concurrent use; Close must not race
// other calls.
type Mapped struct {
	path  string
	data  []byte
	unmap func() error
	lay   *fileLayout

	mu        sync.Mutex
	a         *core.Analysis
	footprint int64
	walk      thunkWalk
	hash      [sha256.Size]byte
	hashed    bool
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

// Analysis materializes the full analysis on first call and returns
// the cached value afterwards. Every section is decoded except the
// thunks section: it is copied into memory the analysis owns and its
// CRC checked on that copy, so the bytes checked are the bytes kept,
// and the graph carries it as its control-path column — vertices hold
// nil Thunks; Stats counts the column, Encode copies it and the JSON
// render decodes it. The column's structure (counts, fields, symbol
// refs, trailing bytes) is walked on the mapping's first successful
// materialization only, which also checks the stats section against
// the graph; after a Drop the mapping remembers both. A file whose
// symbol table does not re-intern to the identity, which Encode never
// writes, decodes its thunks eagerly as Load does.
//
// The second result is the estimated resident footprint of the decoded
// analysis in bytes — the column charged at its length — what a
// budget-keeping caller accounts for, and what Drop gives back.
func (m *Mapped) Analysis() (*core.Analysis, int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.a != nil {
		return m.a, m.footprint, nil
	}
	a, footprint, err := decodeAnalysis(m.data, m.lay, &m.walk)
	if err != nil {
		return nil, 0, err
	}
	m.a, m.footprint = a, footprint
	return a, footprint, nil
}

// Drop discards the cached decoded analysis, keeping the mapping, and
// returns the estimated bytes released. Analyses handed out earlier
// remain valid — they own their memory — so eviction under a budget
// can never invalidate an in-flight query.
func (m *Mapped) Drop() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.footprint
	m.a, m.footprint = nil, 0
	return n
}

// Close unmaps the file. The Mapped must not be used afterwards;
// previously returned analyses stay valid.
func (m *Mapped) Close() error {
	m.mu.Lock()
	m.a, m.footprint = nil, 0
	m.mu.Unlock()
	if m.unmap == nil {
		return nil
	}
	unmap := m.unmap
	m.unmap = nil
	return unmap()
}
