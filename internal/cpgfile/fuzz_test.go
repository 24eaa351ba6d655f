package cpgfile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/core/cpgbench"
)

// fuzzSeeds returns a few valid encodings to seed the corpus: small,
// multi-thread, degraded and branchy graphs, so mutations start from
// inputs that reach deep into every section decoder.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	for i, build := range []func() *core.Analysis{
		func() *core.Analysis { return core.NewGraph(1).Analyze() },
		func() *core.Analysis { return cpgbench.BuildRandomGraph(2, 40, 16, 4, 1).Analyze() },
		func() *core.Analysis {
			g := cpgbench.BuildRandomGraph(3, 60, 16, 4, 2)
			g.AddGap(0, core.Gap{FromAlpha: 1, ToAlpha: 3, Kind: core.GapAuxLoss, Bytes: 64})
			return g.Analyze()
		},
		func() *core.Analysis { return thunkyGraph(8, 12).Analyze() },
	} {
		var buf bytes.Buffer
		if err := Encode(&buf, build(), Meta{RunID: "seed", App: "fuzz"}); err != nil {
			f.Fatalf("seed %d: %v", i, err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return seeds
}

// checkDecodeError asserts the decode-error contract: nil, a typed
// *CorruptError naming a section, or one of the named sentinels —
// never a panic, never an anonymous error.
func checkDecodeError(t *testing.T, err error) {
	t.Helper()
	if err == nil || errors.Is(err, ErrBadMagic) || errors.Is(err, ErrBadVersion) {
		return
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("decode error is not typed: %T %v", err, err)
	}
	if ce.Section == "" {
		t.Fatalf("CorruptError does not name a section: %v", err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("CorruptError does not match ErrCorrupt: %v", err)
	}
}

// FuzzCPGFileHeader drives the preamble/header parser: arbitrary bytes
// must parse or fail with a typed error, never panic.
func FuzzCPGFileHeader(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
		f.Add(seed[:preambleLen])
		f.Add(seed[:len(seed)/2])
	}
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		lay, err := parseFile(data)
		checkDecodeError(t, err)
		if err == nil && lay == nil {
			t.Fatal("nil layout without error")
		}
	})
}

// FuzzCPGFileSections drives the full decode paths — Load, Mapped
// stats, analysis materialization and the JSON render of the thunks
// column — over mutated files, and holds whatever decodes to the eager
// per-vertex decode of its thunks. Whatever the damage, the result is a
// decoded analysis or a typed error naming the bad section.
func FuzzCPGFileSections(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.cpg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		a, _, err := Load(path)
		checkDecodeError(t, err)
		if err == nil {
			// A column Load walked clean must decode vertex by vertex, and
			// every read path must serve what that decode holds.
			ref, err := eagerDecode(data)
			if err != nil {
				t.Fatalf("Load accepted a thunks column the per-vertex decode refuses: %v", err)
			}
			var want, wantJSON bytes.Buffer
			if err := Encode(&want, ref, Meta{}); err != nil {
				t.Fatalf("Encode of the eager decode: %v", err)
			}
			if err := ref.Graph().EncodeJSON(&wantJSON); err != nil {
				t.Fatalf("EncodeJSON of the eager decode: %v", err)
			}
			m, err := Open(path)
			if err != nil {
				t.Fatalf("Open after successful Load: %v", err)
			}
			defer m.Close()
			if _, err := m.Stats(); err != nil {
				t.Fatalf("Stats after successful Load: %v", err)
			}
			ma, _, err := m.Analysis()
			if err != nil {
				t.Fatalf("Mapped analysis after successful Load: %v", err)
			}
			for name, got := range map[string]*core.Analysis{"loaded": a, "mapped": ma} {
				var enc, js bytes.Buffer
				if err := Encode(&enc, got, Meta{}); err != nil {
					t.Fatalf("Encode of %s analysis: %v", name, err)
				}
				if !bytes.Equal(want.Bytes(), enc.Bytes()) {
					t.Fatalf("the %s analysis and the eager decode disagree on the same file", name)
				}
				// The JSON render is the one reader that decodes the
				// thunks column.
				if err := got.Graph().EncodeJSON(&js); err != nil {
					t.Fatalf("EncodeJSON of %s graph: %v", name, err)
				}
				if !bytes.Equal(wantJSON.Bytes(), js.Bytes()) {
					t.Fatalf("the %s graph and the eager decode render different JSON", name)
				}
			}
			return
		}
		// Load failed; the lazy path must fail typed too, at open,
		// checksum sweep, or materialization.
		m, operr := Open(path)
		checkDecodeError(t, operr)
		if operr != nil {
			return
		}
		defer m.Close()
		if verr := m.VerifyChecksums(); verr != nil {
			checkDecodeError(t, verr)
		}
		_, serr := m.Stats()
		checkDecodeError(t, serr)
		_, _, aerr := m.Analysis()
		checkDecodeError(t, aerr)
		if aerr == nil && serr == nil {
			t.Fatal("Load rejected a file the lazy path fully accepts")
		}
	})
}
