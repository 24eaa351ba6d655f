package journal_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/repro/inspector/internal/journal"
	"github.com/repro/inspector/internal/wire"
)

// rawBody is a record body built by hand: AppendFrame frames it as is.
type rawBody []byte

func (r rawBody) AppendWire(b []byte) ([]byte, error) { return append(b, r...), nil }

// FuzzJournalRecords throws arbitrary bytes at the segment decoder as a
// lone journal-000001.isj. The contract under attack: Recover never
// panics, and on any input it either fails cleanly (nothing to recover)
// or returns a Recovery whose invariants hold — epoch equals replayed
// records, a tear or missing seal always reads as unsealed, and asking
// again for the epoch it just recovered reproduces the same answer.
func FuzzJournalRecords(f *testing.F) {
	// Seed with a real journal and characteristic damage so the fuzzer
	// starts inside the format rather than rediscovering the magic.
	seedDir := f.TempDir()
	writeJournal(&testing.T{}, seedDir, 2, 12, 99, journal.Options{})
	segs, err := filepath.Glob(filepath.Join(seedDir, "journal-*.isj"))
	if err != nil || len(segs) == 0 {
		f.Fatalf("seed journal: %v (%d segments)", err, len(segs))
	}
	valid, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:13]) // inside the preamble
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)*2/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("INSPISJ1"))
	f.Add([]byte{})
	// Well-framed delta records whose bodies claim counts nothing backs
	// (lens, then vertices), after the genuine preamble and header.
	_, _, hdrLen, err := wire.ParseFrame(valid[wire.PreambleLen:], 0)
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range []rawBody{
		{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1f},
		{1, 2, 0, 0, 1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1f},
	} {
		seg := append([]byte(nil), valid[:wire.PreambleLen+int(hdrLen)]...)
		if seg, err = wire.AppendFrame(seg, wire.KindDelta, body); err != nil {
			f.Fatal(err)
		}
		f.Add(seg)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal-000001.isj"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := journal.Recover(dir, journal.RecoverOptions{})
		if err != nil {
			return // rejected cleanly: nothing usable to recover
		}
		if rep.Graph == nil || rep.Analysis == nil {
			t.Fatalf("accepted input yielded nil graph/analysis")
		}
		if rep.Epoch != uint64(rep.Records) {
			t.Fatalf("epoch %d != %d replayed records", rep.Epoch, rep.Records)
		}
		if rep.Sealed && rep.Degraded() {
			t.Fatal("sealed recovery marked degraded")
		}
		if rep.Epoch > 0 {
			again, err := journal.Recover(dir, journal.RecoverOptions{MaxEpoch: rep.Epoch})
			if err != nil {
				t.Fatalf("re-recover at epoch %d: %v", rep.Epoch, err)
			}
			if again.Epoch != rep.Epoch {
				t.Fatalf("re-recover epoch %d != %d", again.Epoch, rep.Epoch)
			}
		}
	})
}
