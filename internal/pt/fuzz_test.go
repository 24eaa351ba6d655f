package pt

// Fuzz target for the decoder's resync machinery: arbitrary (and
// arbitrarily corrupted) byte streams must never panic the decoder or
// wedge it in a no-progress loop — the worst allowed outcome is an
// error stream and a gap count. CI runs this briefly on every push
// (go test -fuzz=FuzzDecoderResync -fuzztime=10s ./internal/pt/).

import (
	"errors"
	"io"
	"testing"

	"github.com/repro/inspector/internal/image"
)

// fuzzImage builds a small fixed site set so decoded IPs can resolve;
// unresolvable IPs are part of what the fuzzer explores.
func fuzzImage() *image.Image {
	im := image.New()
	im.MustSite("__exit__", image.Indirect)
	im.MustSite("a", image.Conditional)
	im.MustSite("b", image.Conditional)
	im.MustSite("i0", image.Indirect)
	return im
}

func FuzzDecoderResync(f *testing.F) {
	im := fuzzImage()

	// Seed with a well-formed stream and a few truncated/flipped
	// variants so the fuzzer starts near the interesting boundary.
	events := []traceEvent{
		{label: "a", taken: true},
		{label: "i0", indirect: true},
		{label: "b", taken: false},
		{label: "a", taken: false},
	}
	data := encodeLossy(f, im, events, 16, 0, 0)
	f.Add(data)
	if len(data) > 4 {
		f.Add(data[:len(data)/2])
		f.Add(data[2:])
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/3] ^= 0xff
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{0x02, 0x82}) // PSB prefix fragment

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(im, data)
		errStreak := 0
		for steps := 0; ; steps++ {
			if steps > 4*len(data)+64 {
				t.Fatalf("decoder made no termination progress after %d steps on %d bytes", steps, len(data))
			}
			_, err := d.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				errStreak++
				// Each recoverable error must eventually advance the
				// cursor; a decoder stuck at one offset would loop
				// forever in DecodeAll.
				if errStreak > len(data)+16 {
					t.Fatalf("decoder wedged at pos %d/%d", d.Pos(), len(data))
				}
				continue
			}
			errStreak = 0
		}
		if d.Pos() > len(data) {
			t.Fatalf("decoder ran past the buffer: pos %d > %d", d.Pos(), len(data))
		}
	})
}
