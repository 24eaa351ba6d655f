package harness

// Round-trip property tests for the on-disk columnar CPG format: for
// every workload the file must describe the graph the run recorded —
// Analyze -> cpgfile.Write -> {Load, Mapped} must export an analysis
// document byte-identical to the in-memory analysis's. The
// chaos round proves the serving path's -lenient contract against files
// damaged through the faultinject cpgfile points.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/faultinject"
	"github.com/repro/inspector/internal/workloads"
	"github.com/repro/inspector/provenance"
)

// exportAnalysisJSON renders the canonical analysis document.
func exportAnalysisJSON(t *testing.T, a *core.Analysis) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.ExportJSON(&buf); err != nil {
		t.Fatalf("ExportJSON: %v", err)
	}
	return buf.Bytes()
}

// roundTripCPGFile writes the analysis as a columnar file and asserts
// both read paths reproduce the reference document byte for byte.
func roundTripCPGFile(t *testing.T, a *core.Analysis, label string) {
	t.Helper()
	want := exportAnalysisJSON(t, a)
	path := filepath.Join(t.TempDir(), "run.cpg")
	if err := cpgfile.Write(path, a, cpgfile.Meta{RunID: label}); err != nil {
		t.Fatalf("%s: Write: %v", label, err)
	}

	loaded, hdr, err := cpgfile.Load(path)
	if err != nil {
		t.Fatalf("%s: Load: %v", label, err)
	}
	if hdr.RunID != label || hdr.Degraded != a.Degraded() {
		t.Fatalf("%s: header = %+v", label, hdr)
	}
	if got := exportAnalysisJSON(t, loaded); !bytes.Equal(want, got) {
		t.Fatalf("%s: Load export differs from source analysis", label)
	}

	m, err := cpgfile.Open(path)
	if err != nil {
		t.Fatalf("%s: Open: %v", label, err)
	}
	defer m.Close()
	mapped, _, err := m.Analysis()
	if err != nil {
		t.Fatalf("%s: Mapped analysis: %v", label, err)
	}
	if got := exportAnalysisJSON(t, mapped); !bytes.Equal(want, got) {
		t.Fatalf("%s: Mapped export differs from source analysis", label)
	}
}

// TestCPGFileRoundTripAcrossWorkloads sweeps every workload, single- and
// multi-thread: the recorded graph analyzes, serializes to the columnar
// format, and reads back identically through both paths — then again
// with gaps recorded, so degraded graphs survive the format too.
func TestCPGFileRoundTripAcrossWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	for _, app := range workloads.Names() {
		for _, threads := range []int{1, 4} {
			t.Run(app+"/t"+strconv.Itoa(threads), func(t *testing.T) {
				r := corpus.get(t, app, threads)
				roundTripCPGFile(t, r.analysis, app)

				// The gap goes on a private copy of the graph: the run's
				// own .cpg, loaded.
				loaded, _, err := cpgfile.Load(r.cpg)
				if err != nil {
					t.Fatal(err)
				}
				g := loaded.Graph()
				g.AddGap(0, core.Gap{FromAlpha: 0, ToAlpha: 1, Kind: core.GapAuxLoss, Bytes: 64})
				degraded := g.Analyze()
				if !degraded.Degraded() {
					t.Fatal("gap did not mark the analysis degraded")
				}
				roundTripCPGFile(t, degraded, app+"-degraded")
			})
		}
	}
}

// writeCPGThrough encodes the analysis through a faultinject-wrapped
// writer straight to disk (no atomic rename — the point is to keep the
// damaged artifact), returning the write error, if any.
func writeCPGThrough(t *testing.T, path string, a *core.Analysis, in *faultinject.Injector) error {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	encErr := cpgfile.Encode(in.WrapCPGFile(f), a, cpgfile.Meta{RunID: filepath.Base(path)})
	if cerr := f.Close(); encErr == nil {
		encErr = cerr
	}
	return encErr
}

// TestChaosCPGFileLenientSkipsCorruptFiles drops a torn and a silently
// bit-flipped columnar file (both produced through the cpgfile fault
// points) into a directory of healthy ones. Strict open must fail naming
// a damaged file; lenient open must skip exactly the damaged pair by
// name and serve the healthy neighbors with answers byte-identical to
// engines built directly from the source analyses.
func TestChaosCPGFileLenientSkipsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	a := corpus.get(t, "histogram", 1).analysis

	healthy := []string{"run-a", "run-b", "run-c"}
	for _, id := range healthy {
		if err := cpgfile.Write(filepath.Join(dir, id+".cpg"), a, cpgfile.Meta{RunID: id}); err != nil {
			t.Fatal(err)
		}
	}

	// A crash mid-export: half the bytes land, the write errors.
	torn := faultinject.New(mustSchedule(t, "cpgfile-torn:count=1"))
	if err := writeCPGThrough(t, filepath.Join(dir, "torn.cpg"), a, torn); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("torn write err = %v, want ErrInjected", err)
	}
	if torn.Fired(faultinject.CPGFileTorn) == 0 {
		t.Fatal("torn point never fired")
	}

	// Silent media corruption: every byte written, one flipped, no error.
	flip := faultinject.New(mustSchedule(t, "cpgfile-bit-flip:after=1,count=1"))
	if err := writeCPGThrough(t, filepath.Join(dir, "flipped.cpg"), a, flip); err != nil {
		t.Fatalf("bit-flip write must report success, got %v", err)
	}
	if flip.Fired(faultinject.CPGFileBitFlip) == 0 {
		t.Fatal("bit-flip point never fired")
	}

	if _, err := provenance.OpenDir(dir, provenance.StoreOptions{}); err == nil {
		t.Fatal("strict OpenDir accepted a directory with damaged files")
	}

	var logs []string
	store, err := provenance.OpenDir(dir, provenance.StoreOptions{
		Lenient: true,
		Logf:    func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatalf("lenient OpenDir: %v", err)
	}
	defer store.Close()

	if got := store.IDs(); len(got) != len(healthy) {
		t.Fatalf("lenient store ids = %v, want %v", got, healthy)
	}
	skipped := map[string]bool{}
	for _, line := range logs {
		for _, name := range []string{"torn.cpg", "flipped.cpg"} {
			if bytes.Contains([]byte(line), []byte(name)) {
				skipped[name] = true
			}
		}
	}
	if len(logs) != 2 || !skipped["torn.cpg"] || !skipped["flipped.cpg"] {
		t.Fatalf("lenient skip logs = %q, want both damaged files named", logs)
	}

	// Survivors answer byte-identically to an engine built from source.
	want := exportAnalysisJSON(t, a)
	for _, id := range healthy {
		loaded, _, err := cpgfile.Load(filepath.Join(dir, id+".cpg"))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := exportAnalysisJSON(t, loaded); !bytes.Equal(want, got) {
			t.Fatalf("%s: survivor drifted from source analysis", id)
		}
	}
}

// mustSchedule parses a fault schedule spec.
func mustSchedule(t *testing.T, spec string) faultinject.Schedule {
	t.Helper()
	s, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
