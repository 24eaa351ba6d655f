package main

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/repro/inspector/internal/perf"
)

func TestRunOnGeneratedSession(t *testing.T) {
	// Build a session with a few records and a raw trace, serialize it,
	// and make sure pt-dump walks it without error.
	sess := perf.NewSession(perf.SessionOptions{AutoDrain: true})
	st := sess.Attach(7)
	sess.RecordComm(7, "demo")
	sess.RecordMMAP(7, 0x400000, 4096, "demo.text")
	// A short TNT packet (0b0101100 -> bits) plus a PAD.
	st.WriteTrace([]byte{0x2C, 0x00})
	sess.RecordExit(7)

	path := filepath.Join(t.TempDir(), "s.perfdata")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Serialize(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if err := run([]string{path}); err != nil {
		t.Fatalf("plain dump: %v", err)
	}
	if err := run([]string{"-packets", "-max", "8", path}); err != nil {
		t.Fatalf("packet dump: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"/nonexistent.perfdata"}); err == nil {
		t.Error("missing file accepted")
	}
}
