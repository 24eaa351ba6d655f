// Package cpgtest is the comparator tests use between two analyses of
// the same epoch: the analysis's .cpg encoding under an empty
// cpgfile.Meta. The encoding carries everything the CPG is — each
// sub-computation's read and write sets, vector clock and thunks, the
// sync and data edges, the gaps, the epoch — and it is deterministic,
// so two analyses are the same graph at the same epoch exactly when
// their bytes are equal. GET /v1/cpgs/{id}/export serves these bytes.
package cpgtest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
