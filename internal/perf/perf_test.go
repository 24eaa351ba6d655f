package perf

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestAuxFullTraceBasic(t *testing.T) {
	b := NewAuxBuffer(16, ModeFullTrace)
	if n := b.WriteTrace([]byte("hello")); n != 5 {
		t.Fatalf("write = %d", n)
	}
	if b.Len() != 5 {
		t.Fatalf("Len = %d", b.Len())
	}
	if got := b.Read(-1); string(got) != "hello" {
		t.Fatalf("read = %q", got)
	}
	if b.Len() != 0 {
		t.Fatalf("Len after drain = %d", b.Len())
	}
}

func TestAuxFullTraceOverrunLoses(t *testing.T) {
	b := NewAuxBuffer(8, ModeFullTrace)
	if n := b.WriteTrace([]byte("12345678")); n != 8 {
		t.Fatalf("first write = %d", n)
	}
	// Ring full, consumer behind: new data must be dropped, old kept.
	if n := b.WriteTrace([]byte("ABCD")); n != 0 {
		t.Fatalf("overrun write accepted %d bytes", n)
	}
	if b.Lost() != 4 {
		t.Fatalf("Lost = %d, want 4", b.Lost())
	}
	if got := b.Read(-1); string(got) != "12345678" {
		t.Fatalf("read = %q, old data must be preserved", got)
	}
}

func TestAuxFullTracePartialAccept(t *testing.T) {
	b := NewAuxBuffer(8, ModeFullTrace)
	b.WriteTrace([]byte("123456"))
	if n := b.WriteTrace([]byte("ABCD")); n != 2 {
		t.Fatalf("partial write = %d, want 2", n)
	}
	if got := b.Read(-1); string(got) != "123456AB" {
		t.Fatalf("read = %q", got)
	}
}

func TestAuxWrapAround(t *testing.T) {
	b := NewAuxBuffer(8, ModeFullTrace)
	b.WriteTrace([]byte("abcdef"))
	if got := b.Read(4); string(got) != "abcd" {
		t.Fatalf("read = %q", got)
	}
	b.WriteTrace([]byte("ghij")) // wraps
	if got := b.Read(-1); string(got) != "efghij" {
		t.Fatalf("wrapped read = %q", got)
	}
}

func TestAuxSnapshotOverwrites(t *testing.T) {
	b := NewAuxBuffer(8, ModeSnapshot)
	for i := 0; i < 4; i++ {
		if n := b.WriteTrace([]byte("0123")); n != 4 {
			t.Fatalf("snapshot write = %d", n)
		}
	}
	if b.Lost() != 0 {
		t.Fatalf("snapshot mode lost = %d", b.Lost())
	}
	win := b.SnapshotWindow()
	if len(win) != 8 {
		t.Fatalf("window = %d bytes, want 8", len(win))
	}
	if string(win) != "01230123" {
		t.Fatalf("window = %q", win)
	}
}

func TestAuxSnapshotWindowSmallerThanRing(t *testing.T) {
	b := NewAuxBuffer(64, ModeSnapshot)
	b.WriteTrace([]byte("xyz"))
	win := b.SnapshotWindow()
	if string(win) != "xyz" {
		t.Fatalf("window = %q", win)
	}
	// Window capture does not consume.
	if string(b.SnapshotWindow()) != "xyz" {
		t.Fatal("second capture differs")
	}
}

func TestQuickAuxFullTraceNeverCorrupts(t *testing.T) {
	// Whatever the write/read interleaving, the consumer must read back
	// exactly the accepted prefix of the produced stream.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := NewAuxBuffer(32+r.Intn(64), ModeFullTrace)
		var produced, accepted, consumed []byte
		for i := 0; i < 50; i++ {
			if r.Intn(2) == 0 {
				chunk := make([]byte, r.Intn(24))
				r.Read(chunk)
				n := b.WriteTrace(chunk)
				produced = append(produced, chunk...)
				accepted = append(accepted, chunk[:n]...)
			} else {
				consumed = append(consumed, b.Read(r.Intn(40))...)
			}
		}
		consumed = append(consumed, b.Read(-1)...)
		return bytes.Equal(consumed, accepted)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Type: RecordCOMM, PID: 1, Time: 10, Comm: "blackscholes"},
		{Type: RecordMMAP, PID: 1, Time: 20, Addr: 0x400000, MapLen: 4096, Filename: "/app/bin"},
		{Type: RecordITraceStart, PID: 2, Time: 30},
		{Type: RecordAUX, PID: 2, Time: 40, Data: []byte{1, 2, 3, 4}},
		{Type: RecordLOST, PID: 2, Time: 50, LostBytes: 999},
		{Type: RecordExit, PID: 2, Time: 60},
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		a, b := recs[i], got[i]
		if a.Type != b.Type || a.PID != b.PID || a.Time != b.Time ||
			a.Addr != b.Addr || a.MapLen != b.MapLen || a.Filename != b.Filename ||
			a.Comm != b.Comm || a.LostBytes != b.LostBytes || !bytes.Equal(a.Data, b.Data) {
			t.Errorf("record %d mismatch:\n got %+v\nwant %+v", i, b, a)
		}
	}
}

func TestReadRecordsBadMagic(t *testing.T) {
	if _, err := ReadRecords(bytes.NewReader([]byte("NOTPERF0xxxx"))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
}

func TestReadRecordsTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecords(&buf, []Record{{Type: RecordCOMM, PID: 1, Comm: "x"}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadRecords(bytes.NewReader(data[:len(data)-1])); err == nil {
		t.Error("truncated file parsed successfully")
	}
}

// forgedCount is a header whose record count no 12-byte file can hold.
// Under the version-1 magic, where the four bytes were a fixed-width
// count, it made ReadRecords ask for a 25 GB slice.
var forgedCount = slices.Concat(fileMagic[:], []byte{0xff, 0xff, 0xff, 0x0f})

// TestReadRecordsRejectsForgedLengths: a count or length the bytes that
// arrived cannot back is an error, decided before anything that size is
// allocated.
func TestReadRecordsRejectsForgedLengths(t *testing.T) {
	// field is a one-record file that ends in a length of 4 GiB - 1 with
	// no payload behind it.
	field := func(record ...byte) []byte {
		return slices.Concat(fileMagic[:], []byte{1}, record, []byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	}
	for _, tc := range []struct {
		name string
		file []byte
		want error
	}{
		{"record count", forgedCount, ErrBadRecord},
		{"version 1 header", []byte("PERFSIM\x01\xff\xff\xff\x0f"), ErrBadMagic},
		{"comm length", field(byte(RecordCOMM), 1, 0), ErrBadRecord},
		{"mmap filename length", field(byte(RecordMMAP), 1, 0, 0, 0), ErrBadRecord},
		{"aux data length", field(byte(RecordAUX), 1, 0), ErrBadRecord},
		{"unknown type", field(0, 1, 0), ErrBadRecord},
		{"trailing bytes", slices.Concat(fileMagic[:], []byte{0, 0}), ErrBadRecord},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadRecords(bytes.NewReader(tc.file))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: rejecting a %d-byte file allocated %d bytes", tc.name, len(tc.file), got)
		}
	}
}

func TestRecordTypeString(t *testing.T) {
	for _, ty := range []RecordType{RecordMMAP, RecordCOMM, RecordAUX, RecordLOST, RecordITraceStart, RecordExit} {
		if ty.String() == "UNKNOWN" {
			t.Errorf("type %d renders UNKNOWN", ty)
		}
	}
	if RecordType(200).String() != "UNKNOWN" {
		t.Error("unknown type must render UNKNOWN")
	}
	if ModeFullTrace.String() != "full-trace" || ModeSnapshot.String() != "snapshot" || Mode(0).String() != "unknown" {
		t.Error("mode strings wrong")
	}
}

func TestSessionStreamStoreAndDrain(t *testing.T) {
	s := NewSession(SessionOptions{AuxSize: 64, AutoDrain: true})
	st := s.Attach(1)
	// Write more than the ring size: auto-drain must prevent loss.
	var want []byte
	for i := 0; i < 50; i++ {
		chunk := []byte{byte(i), byte(i + 1), byte(i + 2)}
		if n := st.WriteTrace(chunk); n != 3 {
			t.Fatalf("write %d accepted %d", i, n)
		}
		want = append(want, chunk...)
	}
	if got := st.Trace(); !bytes.Equal(got, want) {
		t.Fatalf("trace mismatch: %d vs %d bytes", len(got), len(want))
	}
	if st.Lost() != 0 {
		t.Errorf("lost = %d with auto-drain", st.Lost())
	}
	if s.TotalTraceBytes() != uint64(len(want)) {
		t.Errorf("TotalTraceBytes = %d, want %d", s.TotalTraceBytes(), len(want))
	}
}

func TestSessionNoAutoDrainOverruns(t *testing.T) {
	s := NewSession(SessionOptions{AuxSize: 16, AutoDrain: false})
	st := s.Attach(1)
	for i := 0; i < 10; i++ {
		st.WriteTrace([]byte("abcdefgh"))
	}
	if st.Lost() == 0 {
		t.Error("expected ring overrun without auto-drain")
	}
	if s.TotalLost() != st.Lost() {
		t.Errorf("TotalLost = %d, stream lost = %d", s.TotalLost(), st.Lost())
	}
}

func TestSessionAttachIdempotent(t *testing.T) {
	s := NewSession(SessionOptions{})
	a := s.Attach(5)
	b := s.Attach(5)
	if a != b {
		t.Error("re-attach returned a different stream")
	}
	got, ok := s.Stream(5)
	if !ok || got != a {
		t.Error("Stream lookup failed")
	}
	if _, ok := s.Stream(6); ok {
		t.Error("unknown pid stream lookup succeeded")
	}
}

// TestSessionStreamsAscendByPID: whatever order processes attach and log
// in, every per-process walk is ascending by PID — PIDs, and the file
// Serialize writes, which groups each process's records in the order it
// logged them with its AUX record last — so two serializations of one
// session are the same bytes.
func TestSessionStreamsAscendByPID(t *testing.T) {
	s := NewSession(SessionOptions{AutoDrain: true})
	order := []int32{1003, 1001, 1002, 1000}
	for _, pid := range order {
		s.Attach(pid).WriteTrace([]byte{byte(pid)})
	}
	for _, pid := range order {
		s.RecordComm(pid, "w")
	}
	want := []int32{1000, 1001, 1002, 1003}
	if got := s.PIDs(); !slices.Equal(got, want) {
		t.Errorf("PIDs() = %v, want %v", got, want)
	}
	var first, second bytes.Buffer
	if err := s.Serialize(&first); err != nil {
		t.Fatal(err)
	}
	if err := s.Serialize(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("two serializations of one session differ")
	}
	recs, err := ReadRecords(&first)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3*len(want) {
		t.Fatalf("%d records, want %d", len(recs), 3*len(want))
	}
	for i, pid := range want {
		for j, ty := range []RecordType{RecordITraceStart, RecordCOMM, RecordAUX} {
			if r := recs[3*i+j]; r.Type != ty || r.PID != pid {
				t.Errorf("record %d is %s of pid %d, want %s of pid %d", 3*i+j, r.Type, r.PID, ty, pid)
			}
		}
		if aux := recs[3*i+2]; !bytes.Equal(aux.Data, []byte{byte(pid)}) {
			t.Errorf("pid %d: AUX data %v is another stream's", pid, aux.Data)
		}
	}
}

func TestSessionRecordsAndSerialize(t *testing.T) {
	var now uint64
	s := NewSession(SessionOptions{AutoDrain: true, Clock: func() uint64 { now += 5; return now }})
	st := s.Attach(1)
	s.RecordComm(1, "histogram")
	s.RecordMMAP(1, 0x400000, 8192, "histogram.bin")
	st.WriteTrace([]byte{0xAA, 0xBB})
	s.RecordExit(1)

	var buf bytes.Buffer
	if err := s.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var haveAux, haveComm, haveMmap, haveExit bool
	for _, r := range recs {
		switch r.Type {
		case RecordAUX:
			haveAux = bytes.Equal(r.Data, []byte{0xAA, 0xBB})
		case RecordCOMM:
			haveComm = r.Comm == "histogram"
		case RecordMMAP:
			haveMmap = r.Filename == "histogram.bin" && r.MapLen == 8192
		case RecordExit:
			haveExit = true
		}
	}
	if !haveAux || !haveComm || !haveMmap || !haveExit {
		t.Errorf("missing records: aux=%v comm=%v mmap=%v exit=%v", haveAux, haveComm, haveMmap, haveExit)
	}
	// Timestamps must be monotonically increasing via the clock.
	for i := 1; i < len(recs); i++ {
		if recs[i].Time < recs[i-1].Time {
			t.Errorf("timestamps not monotone: %d then %d", recs[i-1].Time, recs[i].Time)
		}
	}
}

func BenchmarkAuxWrite(b *testing.B) {
	buf := NewAuxBuffer(1<<20, ModeSnapshot)
	chunk := make([]byte, 64)
	b.SetBytes(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.WriteTrace(chunk)
	}
}
