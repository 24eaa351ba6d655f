package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

type testRec struct {
	Name string
	N    uint64
}

func (r *testRec) AppendWire(b []byte) ([]byte, error) {
	return binary.AppendUvarint(AppendString(b, r.Name), r.N), nil
}

func (r *testRec) ParseWire(body []byte) error {
	c := NewCursor(body)
	r.Name, r.N = c.String("name"), c.Uvarint("n")
	return c.Done()
}

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	var err error
	recs := []testRec{{"alpha", 1}, {"beta", 2}, {"gamma", 3}}
	for i, r := range recs {
		buf, err = AppendFrame(buf, byte(i), &r)
		if err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
	}

	// Slice-based parse.
	rest := buf
	for i, want := range recs {
		kind, body, flen, err := ParseFrame(rest, 0)
		if err != nil {
			t.Fatalf("ParseFrame %d: %v", i, err)
		}
		if kind != byte(i) {
			t.Fatalf("frame %d kind = %d", i, kind)
		}
		var got testRec
		if err := Decode(body, &got); err != nil {
			t.Fatalf("Decode %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("frame %d = %+v, want %+v", i, got, want)
		}
		rest = rest[flen:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after parsing all frames", len(rest))
	}

	// Stream-based parse.
	fr := NewReader(bytes.NewReader(buf), 0)
	for i, want := range recs {
		kind, body, err := fr.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if kind != byte(i) {
			t.Fatalf("stream frame %d kind = %d", i, kind)
		}
		var got testRec
		if err := Decode(body, &got); err != nil {
			t.Fatalf("stream Decode %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("stream frame %d = %+v, want %+v", i, got, want)
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("Next at end = %v, want io.EOF", err)
	}
}

func TestParseFrameErrors(t *testing.T) {
	frame, err := AppendFrame(nil, KindDelta, &testRec{"x", 9})
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, data []byte, max uint32, want error) {
		t.Helper()
		if _, _, _, err := ParseFrame(data, max); !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
	}
	check("short header", frame[:FrameOverhead-1], 0, ErrShortHeader)
	check("short body", frame[:len(frame)-1], 0, ErrShortFrame)
	check("too large", frame, 1, ErrFrameTooLarge)

	empty := make([]byte, FrameOverhead)
	check("empty", empty, 0, ErrEmptyFrame)

	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)-1] ^= 0x40
	check("bad crc", flipped, 0, ErrBadCRC)
}

func TestReaderErrors(t *testing.T) {
	frame, err := AppendFrame(nil, KindDelta, &testRec{"x", 9})
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, data []byte, max uint32, want error) {
		t.Helper()
		fr := NewReader(bytes.NewReader(data), max)
		if _, _, err := fr.Next(); !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
	}
	check("cut in header", frame[:3], 0, ErrShortHeader)
	check("cut in body", frame[:len(frame)-2], 0, ErrShortFrame)
	check("over cap", frame, 3, ErrFrameTooLarge)

	flipped := append([]byte(nil), frame...)
	flipped[FrameOverhead+2] ^= 0x01
	check("bad crc", flipped, 0, ErrBadCRC)

	// A hostile length prefix must be rejected before allocation.
	huge := make([]byte, FrameOverhead)
	binary.LittleEndian.PutUint32(huge, 1<<31)
	check("hostile length", huge, 0, ErrFrameTooLarge)
}

func TestPreamble(t *testing.T) {
	pre := Preamble()
	if len(pre) != PreambleLen {
		t.Fatalf("preamble length %d, want %d", len(pre), PreambleLen)
	}
	if string(pre[:8]) != Magic {
		t.Fatalf("preamble magic %q", pre[:8])
	}
	if v := binary.LittleEndian.Uint32(pre[8:]); v != Version {
		t.Fatalf("preamble version %d", v)
	}
}

// TestReaderAllocatesWhatArrived pins the hardening of Next: the length
// prefix is a claim, and a short body behind a giant one must cost
// about what was read, not the 64 MiB that was promised.
func TestReaderAllocatesWhatArrived(t *testing.T) {
	stream := make([]byte, FrameOverhead, FrameOverhead+100)
	binary.LittleEndian.PutUint32(stream, DefaultMaxFrameBytes)
	stream = append(stream, make([]byte, 100)...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := NewReader(bytes.NewReader(stream), 0).Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrShortFrame) {
		t.Fatalf("err = %v, want %v", err, ErrShortFrame)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("a 100-byte body behind a %d-byte length prefix allocated %d bytes", DefaultMaxFrameBytes, got)
	}

	// A frame longer than one chunk still arrives whole, and the buffer
	// is reused by the next frame.
	big := &testRec{Name: strings.Repeat("x", 3*readChunk+17), N: 7}
	frames, err := AppendFrame(nil, KindDelta, big)
	if err != nil {
		t.Fatal(err)
	}
	if frames, err = AppendFrame(frames, KindDelta, &testRec{Name: "small", N: 8}); err != nil {
		t.Fatal(err)
	}
	fr := NewReader(bytes.NewReader(frames), 0)
	for _, want := range []*testRec{big, {Name: "small", N: 8}} {
		_, body, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		var got testRec
		if err := Decode(body, &got); err != nil || got != *want {
			t.Fatalf("chunked read: got %d-byte name n=%d err=%v", len(got.Name), got.N, err)
		}
	}
}

// TestHelloSealRoundTrip covers the two records the package owns, by
// value and by pointer (both are AppendFrame payloads in the tree), and
// that a parsed hello owns its strings.
func TestHelloSealRoundTrip(t *testing.T) {
	hello := Hello{RunID: "run-1", App: "canneal", Threads: 4, BaseEpoch: 17}
	seal := Seal{FinalEpoch: 99}
	for _, payloads := range [][2]any{{hello, seal}, {&hello, &seal}} {
		buf, err := AppendFrame(nil, KindHeader, payloads[0])
		if err != nil {
			t.Fatal(err)
		}
		if buf, err = AppendFrame(buf, KindSeal, payloads[1]); err != nil {
			t.Fatal(err)
		}
		_, body, n, err := ParseFrame(buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		var gotHello Hello
		if err := Decode(body, &gotHello); err != nil {
			t.Fatal(err)
		}
		for i := range body {
			body[i] = 0xff
		}
		if gotHello != hello {
			t.Fatalf("hello = %+v, want %+v (aliases the frame body?)", gotHello, hello)
		}
		_, body, _, err = ParseFrame(buf[n:], 0)
		if err != nil {
			t.Fatal(err)
		}
		var gotSeal Seal
		if err := Decode(body, &gotSeal); err != nil || gotSeal != seal {
			t.Fatalf("seal = %+v err=%v, want %+v", gotSeal, err, seal)
		}
	}
}

// TestNoBinaryFormIsAnError pins the absence of a generic fallback: a
// payload type the codec does not know is refused in both directions.
func TestNoBinaryFormIsAnError(t *testing.T) {
	type plain struct{ N int }
	if buf, err := AppendFrame([]byte("kept"), KindDelta, &plain{1}); err == nil || string(buf) != "kept" {
		t.Fatalf("AppendFrame(plain) = %q, %v; want the buffer back and an error", buf, err)
	}
	if err := Decode([]byte{1}, &plain{}); err == nil {
		t.Fatal("Decode into a type without ParseWire accepted")
	}
	if err := Decode([]byte{1}, Seal{}); err == nil {
		t.Fatal("Decode into a non-pointer accepted")
	}
}

// TestHelloRefusesOtherVersions pins the version policy on the stream:
// the hello opens with the format version, and anything else — a
// version-1 recorder's gob stream opens with its first message's
// length — is ErrVersion, naming what this build speaks.
func TestHelloRefusesOtherVersions(t *testing.T) {
	good, _ := Hello{RunID: "r", Threads: 1}.AppendWire(nil)
	var gobHello bytes.Buffer
	if err := gob.NewEncoder(&gobHello).Encode(&Hello{RunID: "r", Threads: 1}); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"gob v1 stream": gobHello.Bytes(),
		"version 1":     append([]byte{1}, good[1:]...),
		"version 3":     append([]byte{3}, good[1:]...),
	} {
		var h Hello
		err := h.ParseWire(body)
		if !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), "version 2") || !strings.Contains(err.Error(), "version 1") {
			t.Errorf("%s: err = %v, want ErrVersion naming versions 1 and 2", name, err)
		}
	}
	var h Hello
	if err := h.ParseWire(nil); err == nil || errors.Is(err, ErrVersion) {
		t.Errorf("empty hello: err = %v, want a payload error", err)
	}
}

// TestCursorRejections is the hostile-input table for the field
// primitives: each row is one way an untrusted body lies, and the error
// must be a *PayloadError naming the field being read.
func TestCursorRejections(t *testing.T) {
	overlong := bytes.Repeat([]byte{0xff}, 11)
	rows := []struct {
		name string
		body []byte
		read func(c *Cursor)
	}{
		{"truncated uvarint", []byte{0x80}, func(c *Cursor) { c.Uvarint("f") }},
		{"overlong uvarint", overlong, func(c *Cursor) { c.Uvarint("f") }},
		{"ref over 32 bits", binary.AppendUvarint(nil, 1<<32), func(c *Cursor) { c.Uint32("f") }},
		{"int over 31 bits", binary.AppendUvarint(nil, 1<<31), func(c *Cursor) { c.Int("f") }},
		{"int that would go negative", binary.AppendUvarint(nil, 1<<63), func(c *Cursor) { c.Int("f") }},
		{"byte past its range", []byte{4}, func(c *Cursor) { c.Byte("f", 3) }},
		{"byte at the end", nil, func(c *Cursor) { c.Byte("f", 3) }},
		{"count beyond the body", []byte{5, 1, 2, 3, 4}, func(c *Cursor) { c.Count("f", 1) }},
		{"count beyond the body at 5 bytes each", []byte{2, 1, 2, 3, 4, 5, 6, 7, 8, 9}, func(c *Cursor) { c.Count("f", 5) }},
		{"giant count", binary.AppendUvarint(nil, 1<<62), func(c *Cursor) { c.Count("f", 1) }},
		{"string past the end", []byte{3, 'a', 'b'}, func(c *Cursor) { _ = c.String("f") }},
		{"trailing bytes", []byte{1, 2}, func(c *Cursor) { c.Uvarint("f") }},
	}
	for _, row := range rows {
		c := NewCursor(row.body)
		row.read(&c)
		err := c.Done()
		var pe *PayloadError
		if !errors.As(err, &pe) {
			t.Errorf("%s: err = %v, want a *PayloadError", row.name, err)
			continue
		}
		if want := "f"; row.name == "trailing bytes" {
			if pe.Field != "end of record" || pe.Offset != 1 {
				t.Errorf("%s: %v", row.name, pe)
			}
		} else if pe.Field != want || pe.Offset != 0 {
			t.Errorf("%s: field %q at %d, want %q at 0 (%v)", row.name, pe.Field, pe.Offset, want, pe)
		}
	}

	// The first failure latches: later reads return zero.
	c := NewCursor([]byte{0x80})
	c.Uvarint("first")
	if v := c.Byte("second", 9); v != 0 {
		t.Errorf("read after failure = %d", v)
	}
	var pe *PayloadError
	if !errors.As(c.Done(), &pe) || pe.Field != "first" {
		t.Errorf("latched error = %v, want the first field's", c.Done())
	}
}
