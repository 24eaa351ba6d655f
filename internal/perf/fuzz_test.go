package perf

import (
	"bytes"
	"testing"
)

// FuzzReadRecords feeds ReadRecords arbitrary files: it must return
// records or an error — never panic, and never size an allocation by a
// count or length the file does not back — and what it accepts must
// survive a write/read round trip.
func FuzzReadRecords(f *testing.F) {
	s := NewSession(SessionOptions{AutoDrain: true, AuxSize: 16})
	for _, pid := range []int32{1001, 1000} {
		st := s.Attach(pid)
		s.RecordComm(pid, "fuzz")
		s.RecordMMAP(pid, 0x400000, 4096, "fuzz.text")
		st.WriteTrace(bytes.Repeat([]byte{0x2C}, 40)) // overruns the 16-byte ring: a LOST record
		s.RecordExit(pid)
	}
	var file bytes.Buffer
	if err := s.Serialize(&file); err != nil {
		f.Fatal(err)
	}
	f.Add(file.Bytes())
	f.Add(forgedCount)
	f.Add([]byte("PERFSIM\x01\xff\xff\xff\x0f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadRecords(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteRecords(&out, recs); err != nil {
			t.Fatalf("accepted records do not re-serialize: %v", err)
		}
		again, err := ReadRecords(&out)
		if err != nil || len(again) != len(recs) {
			t.Fatalf("round trip: %d records, err %v; want %d", len(again), err, len(recs))
		}
	})
}
