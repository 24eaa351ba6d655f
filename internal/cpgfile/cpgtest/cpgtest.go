// Package cpgtest is the comparator tests use between two analyses of
// the same epoch: the analysis's .cpg encoding under an empty
// cpgfile.Meta. The encoding carries everything the CPG is — each
// sub-computation's read and write sets, vector clock and thunks, the
// sync and data edges, the gaps, the epoch — and it is deterministic,
// so two analyses are the same graph at the same epoch exactly when
// their bytes are equal. GET /v1/cpgs/{id}/export serves these bytes.
// ForgeStats makes the damage only a decode sees, for serving tests.
package cpgtest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile"
)

// TB is the part of testing.TB the helpers use; naming it here keeps
// the package free of the testing import, as all non-test code is.
type TB interface {
	Helper()
	Fatal(args ...any)
	Fatalf(format string, args ...any)
	TempDir() string
}

// Bytes returns a's identity: cpgfile.Encode(a, Meta{}).
func Bytes(tb TB, a *core.Analysis) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := cpgfile.Encode(&buf, a, cpgfile.Meta{}); err != nil {
		tb.Fatalf("cpgfile.Encode: %v", err)
	}
	return buf.Bytes()
}

// SHA returns the hex SHA-256 of a's identity, for tests that keep many
// of them: a thunk-heavy graph encodes to hundreds of KB.
func SHA(tb TB, a *core.Analysis) string {
	tb.Helper()
	return Sum(Bytes(tb, a))
}

// Sum returns the hex SHA-256 of cpg bytes.
func Sum(cpg []byte) string {
	sum := sha256.Sum256(cpg)
	return hex.EncodeToString(sum[:])
}

// Decode reads .cpg bytes, such as a GET /export body, through
// cpgfile.Load: a private copy of the analysis and the file's header.
func Decode(tb TB, cpg []byte) (*core.Analysis, cpgfile.Header) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "decode.cpg")
	if err := os.WriteFile(path, cpg, 0o644); err != nil {
		tb.Fatal(err)
	}
	a, hdr, err := cpgfile.Load(path)
	if err != nil {
		tb.Fatal(err)
	}
	return a, hdr
}

// File returns the identity of the .cpg file at path: Load, then Bytes,
// so the run id and app its header names drop out.
func File(tb TB, path string) []byte {
	tb.Helper()
	a, _, err := cpgfile.Load(path)
	if err != nil {
		tb.Fatal(err)
	}
	return Bytes(tb, a)
}

// Truncated returns the identity a replay cut short right after the
// epoch whose identity is cpg must have: the same graph, edges and
// epoch, plus the truncated-tail gap epoch.Replayer.Truncate anchors on
// each thread's last vertex. It is what recovering a torn or unsealed
// journal is held to.
func Truncated(tb TB, cpg []byte) []byte {
	tb.Helper()
	a, _ := Decode(tb, cpg)
	g, lens := a.Graph(), a.ThreadLens()
	for t, n := range lens {
		if n > 0 {
			g.AddGap(t, core.Gap{FromAlpha: uint64(n - 1), ToAlpha: uint64(n), Kind: core.GapTruncated})
		}
	}
	syncEdges, dataEdges := a.EdgeSections()
	cut, err := core.NewAnalysisFromSections(g, lens, a.Epoch(), syncEdges, dataEdges)
	if err != nil {
		tb.Fatal(err)
	}
	return Bytes(tb, cut)
}

// ForgeStats returns cpg with its stats section — the file's last —
// replaced by edit's result and the checksums restamped: the section's
// length and CRC-32C in the header's section table (24-byte entries
// {kind u32, offset u64, length u64, CRC u32}, stats the last), then
// the header's CRC in the 20-byte preamble. The result passes
// VerifyChecksums; only decoding the stats section, or checking it
// against the graph, finds what edit did.
func ForgeStats(cpg []byte, edit func(stats []byte) []byte) []byte {
	const preambleLen, entryLen = 20, 24
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	out := append([]byte(nil), cpg...)
	hdr := out[preambleLen : preambleLen+binary.LittleEndian.Uint32(out[12:])]
	entry := hdr[len(hdr)-entryLen:]
	off := binary.LittleEndian.Uint64(entry[4:])
	stats := edit(append([]byte(nil), out[off:]...))
	binary.LittleEndian.PutUint64(entry[12:], uint64(len(stats)))
	binary.LittleEndian.PutUint32(entry[20:], crc32.Checksum(stats, castagnoli))
	binary.LittleEndian.PutUint32(out[16:], crc32.Checksum(hdr, castagnoli))
	return append(out[:off], stats...)
}
