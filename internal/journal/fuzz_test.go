package journal_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"

	"github.com/repro/inspector/internal/journal"
	"github.com/repro/inspector/internal/wire"
)

// rawBody is a record body built by hand: AppendFrame frames it as is.
type rawBody []byte

func (r rawBody) AppendWire(b []byte) ([]byte, error) { return append(b, r...), nil }

// helloFrame frames a hello body built by hand, so a test can name a
// width Hello.AppendWire refuses to write.
func helloFrame(t testing.TB, threads uint64) []byte {
	t.Helper()
	body := binary.AppendUvarint(nil, wire.Version)
	body = wire.AppendString(body, "wide-run")
	body = wire.AppendString(body, "")
	body = binary.AppendUvarint(body, threads)
	body = binary.AppendUvarint(body, 1)
	frame, err := wire.AppendFrame(nil, wire.KindHeader, rawBody(body))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// FuzzJournalRecords throws arbitrary bytes at the decoder as a
// journal.isj. The contract under attack: Recover never
// panics, and on any input it either fails cleanly (nothing to recover)
// or returns a Recovery whose invariants hold — the replayed frames end
// inside the file and a tear sits exactly there, a sealed recovery is
// not degraded, asking again for the epoch it just recovered
// reproduces the same answer, and zero bytes appended to it — the
// never-written rest of a mapped journal's window — recover the same
// epoch, seal and torn-ness, unless the zeros complete a CRC-valid
// frame the input cut short.
func FuzzJournalRecords(f *testing.F) {
	// Seed with a real journal and characteristic damage so the fuzzer
	// starts inside the format rather than rediscovering the magic.
	seedDir := f.TempDir()
	writeJournal(&testing.T{}, seedDir, 2, 12, 99, journal.Options{})
	valid, err := os.ReadFile(journal.Path(seedDir))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:13]) // inside the preamble
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)*2/3] ^= 0x40
	f.Add(flipped)
	// The zero tail a killed mapped journal ends in, after the seal, in
	// place of the seal, shorter than a frame header, and after a tear.
	zeros := make([]byte, 100)
	f.Add(append(bytes.Clone(valid), zeros...))
	f.Add(append(bytes.Clone(valid[:len(valid)-sealFrameLen(f, valid)]), zeros...))
	f.Add(append(bytes.Clone(valid), zeros[:5]...))
	f.Add(append(bytes.Clone(valid[:len(valid)/2]), zeros...))
	f.Add([]byte("INSPISJ1"))
	f.Add([]byte{})
	// Well-framed delta records whose bodies claim counts nothing backs
	// (lens, then vertices), after the genuine preamble and hello.
	_, _, helloLen, err := wire.ParseFrame(valid[wire.PreambleLen:], 0)
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range []rawBody{
		{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1f},
		{1, 2, 0, 0, 1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1f},
	} {
		rec := append([]byte(nil), valid[:wire.PreambleLen+int(helloLen)]...)
		if rec, err = wire.AppendFrame(rec, wire.KindDelta, body); err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
	}
	// A CRC-valid hello naming 2^26 threads: refused before any graph
	// that wide is allocated.
	f.Add(append(wire.Preamble(), helloFrame(f, 1<<26)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(journal.Path(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := journal.Recover(dir, journal.RecoverOptions{})
		if err != nil {
			return // rejected cleanly: nothing usable to recover
		}
		if rep.Graph == nil || rep.Analysis == nil {
			t.Fatalf("accepted input yielded nil graph/analysis")
		}
		if rep.End < wire.PreambleLen || rep.End > int64(len(data)) || (rep.Torn != nil && rep.Torn.Offset != rep.End) {
			t.Fatalf("replayed frames end at %d in a %d-byte file, torn %v", rep.End, len(data), rep.Torn)
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
		if err := os.WriteFile(journal.Path(dir), append(bytes.Clone(data), make([]byte, 4096)...), 0o644); err != nil {
			t.Fatal(err)
		}
		tailed, err := journal.Recover(dir, journal.RecoverOptions{})
		if err != nil {
			t.Fatalf("zero tail refused an accepted input: %v", err)
		}
		if tailed.End <= int64(len(data)) && (tailed.Epoch != rep.Epoch || tailed.Sealed != rep.Sealed || (tailed.Torn == nil) != (rep.Torn == nil)) {
			t.Fatalf("zero tail moved the recovery: epoch %d sealed=%v torn=%v, without it epoch %d sealed=%v torn=%v",
				tailed.Epoch, tailed.Sealed, tailed.Torn, rep.Epoch, rep.Sealed, rep.Torn)
		}
	})
}

// sealFrameLen returns the length of a sealed journal's last frame.
func sealFrameLen(f *testing.F, valid []byte) int {
	rest := valid[wire.PreambleLen:]
	for {
		_, _, n, err := wire.ParseFrame(rest, 0)
		if err != nil {
			f.Fatal(err)
		}
		if int(n) == len(rest) {
			return int(n)
		}
		rest = rest[n:]
	}
}
