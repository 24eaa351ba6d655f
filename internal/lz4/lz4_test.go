package lz4

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// The decoder side of the block format: Compress's round-trip oracle.

// Errors returned by Decompress.
var (
	ErrCorrupt  = errors.New("lz4: corrupt block")
	ErrTooLarge = errors.New("lz4: decoded size exceeds limit")
)

// Decompress appends the decoded bytes of an LZ4 block to dst, refusing
// to grow beyond maxSize (0 means no limit). It returns the extended dst.
func Decompress(dst, src []byte, maxSize int) ([]byte, error) {
	base := len(dst)
	i := 0
	n := len(src)
	if n == 1 && src[0] == 0 {
		return dst, nil
	}
	readLen := func(initial int) (int, error) {
		v := initial
		if initial != 15 {
			return v, nil
		}
		for {
			if i >= n {
				return 0, fmt.Errorf("%w: truncated length", ErrCorrupt)
			}
			b := src[i]
			i++
			v += int(b)
			if b != 255 {
				return v, nil
			}
		}
	}
	for i < n {
		token := src[i]
		i++
		litLen, err := readLen(int(token >> 4))
		if err != nil {
			return dst, err
		}
		if i+litLen > n {
			return dst, fmt.Errorf("%w: literal run past end", ErrCorrupt)
		}
		if maxSize > 0 && len(dst)-base+litLen > maxSize {
			return dst, ErrTooLarge
		}
		dst = append(dst, src[i:i+litLen]...)
		i += litLen
		if i >= n {
			// Final sequence has no match part.
			break
		}
		if i+2 > n {
			return dst, fmt.Errorf("%w: truncated offset", ErrCorrupt)
		}
		offset := int(binary.LittleEndian.Uint16(src[i:]))
		i += 2
		if offset == 0 || offset > len(dst)-base {
			return dst, fmt.Errorf("%w: offset %d out of window", ErrCorrupt, offset)
		}
		matchLen, err := readLen(int(token & 0x0F))
		if err != nil {
			return dst, err
		}
		matchLen += minMatch
		if maxSize > 0 && len(dst)-base+matchLen > maxSize {
			return dst, ErrTooLarge
		}
		// Byte-by-byte copy: matches may overlap their own output.
		pos := len(dst) - offset
		for j := 0; j < matchLen; j++ {
			dst = append(dst, dst[pos+j])
		}
	}
	return dst, nil
}

// Ratio compresses data and returns (compressedSize, ratio). A ratio of
// 10 means the input shrank 10x.
func Ratio(data []byte) (int, float64) {
	if len(data) == 0 {
		return 0, 1
	}
	c := Compress(nil, data)
	if len(c) == 0 {
		return 0, 1
	}
	return len(c), float64(len(data)) / float64(len(c))
}

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	c := Compress(nil, src)
	got, err := Decompress(nil, c, 0)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(src))
	}
	return c
}

func TestRoundTripEmpty(t *testing.T) {
	c := roundTrip(t, nil)
	if len(c) != 1 {
		t.Errorf("empty compresses to %d bytes", len(c))
	}
}

func TestRoundTripShort(t *testing.T) {
	roundTrip(t, []byte("a"))
	roundTrip(t, []byte("hello"))
	roundTrip(t, []byte("hello world, hello world"))
}

func TestRoundTripHighlyRepetitive(t *testing.T) {
	src := bytes.Repeat([]byte("TNTTNTTIP."), 10000)
	c := roundTrip(t, src)
	ratio := float64(len(src)) / float64(len(c))
	if ratio < 20 {
		t.Errorf("repetitive ratio = %.1f, want > 20", ratio)
	}
}

func TestRoundTripAllZero(t *testing.T) {
	src := make([]byte, 1<<16)
	c := roundTrip(t, src)
	if len(c) > 1024 {
		t.Errorf("zeros compressed to %d bytes", len(c))
	}
}

func TestRoundTripRandomIncompressible(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	src := make([]byte, 4096)
	r.Read(src)
	c := roundTrip(t, src)
	// Must not expand more than ~0.5% plus slack.
	if len(c) > len(src)+len(src)/64+16 {
		t.Errorf("random data expanded to %d bytes from %d", len(c), len(src))
	}
}

func TestRoundTripText(t *testing.T) {
	src := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 500))
	c := roundTrip(t, src)
	if _, ratio := Ratio(src); ratio < 5 {
		t.Errorf("text ratio = %.1f, want > 5", ratio)
	}
	_ = c
}

func TestRoundTripOverlappingMatches(t *testing.T) {
	// "aaaa..." forces matches that overlap their own output (offset 1).
	roundTrip(t, bytes.Repeat([]byte{'a'}, 1000))
	// RLE-style 2-byte period.
	roundTrip(t, bytes.Repeat([]byte{'a', 'b'}, 1000))
}

func TestRoundTripLongLiteralRuns(t *testing.T) {
	// > 255+15 literals exercises the multi-byte length encoding.
	r := rand.New(rand.NewSource(2))
	src := make([]byte, 300)
	r.Read(src)
	src = append(src, bytes.Repeat([]byte("ABCD"), 100)...)
	roundTrip(t, src)
}

func TestRoundTripLongMatches(t *testing.T) {
	// Match length > 255+15+4 exercises multi-byte match lengths.
	src := append([]byte("prefix-0123456789"), bytes.Repeat([]byte{'x'}, 2000)...)
	roundTrip(t, src)
}

func TestDecompressCorrupt(t *testing.T) {
	cases := [][]byte{
		{0x10},                  // 1 literal promised, none present
		{0x01, 0x00},            // match with truncated offset
		{0x00, 0x00, 0x00},      // match at offset 0
		{0xF0, 0xFF},            // unterminated literal length
		{0x10, 'a', 0x05, 0x00}, // offset 5 beyond window of 1
	}
	for i, src := range cases {
		if _, err := Decompress(nil, src, 0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("case %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

func TestDecompressSizeLimit(t *testing.T) {
	src := bytes.Repeat([]byte{'z'}, 10000)
	c := Compress(nil, src)
	if _, err := Decompress(nil, c, 100); !errors.Is(err, ErrTooLarge) {
		t.Errorf("limit: err = %v, want ErrTooLarge", err)
	}
	if got, err := Decompress(nil, c, 10000); err != nil || len(got) != 10000 {
		t.Errorf("exact limit: len=%d err=%v", len(got), err)
	}
}

func TestCompressAppendsToDst(t *testing.T) {
	prefix := []byte("HEADER")
	out := Compress(prefix, []byte("payload payload payload"))
	if !bytes.HasPrefix(out, prefix) {
		t.Error("Compress clobbered dst prefix")
	}
	got, err := Decompress([]byte("OUT:"), out[len(prefix):], 0)
	if err != nil || string(got) != "OUT:payload payload payload" {
		t.Errorf("decompress with prefix: %q %v", got, err)
	}
}

func TestRatioHelper(t *testing.T) {
	if n, r := Ratio(nil); n != 0 || r != 1 {
		t.Errorf("Ratio(nil) = %d, %f", n, r)
	}
	_, r := Ratio(bytes.Repeat([]byte{1}, 10000))
	if r < 50 {
		t.Errorf("constant ratio = %.1f", r)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, kind uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(5000)
		src := make([]byte, n)
		switch kind % 3 {
		case 0: // random
			r.Read(src)
		case 1: // repetitive with small alphabet
			for i := range src {
				src[i] = byte(r.Intn(4))
			}
		case 2: // block repeats
			blk := make([]byte, 1+r.Intn(40))
			r.Read(blk)
			for i := range src {
				src[i] = blk[i%len(blk)]
			}
		}
		c := Compress(nil, src)
		got, err := Decompress(nil, c, 0)
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCompressPTLike(b *testing.B) {
	// Synthesize something like a PT stream: long TNT runs + TIPs.
	r := rand.New(rand.NewSource(3))
	src := make([]byte, 1<<20)
	for i := 0; i < len(src); {
		if r.Intn(10) == 0 && i+3 < len(src) {
			src[i] = 0x4D
			src[i+1] = byte(r.Intn(16))
			src[i+2] = byte(r.Intn(4))
			i += 3
		} else {
			src[i] = byte(r.Intn(3)) * 0x54
			i++
		}
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compress(nil, src)
	}
}

func BenchmarkDecompress(b *testing.B) {
	src := bytes.Repeat([]byte("provenance log data "), 50000)
	c := Compress(nil, src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(nil, c, 0); err != nil {
			b.Fatal(err)
		}
	}
}
