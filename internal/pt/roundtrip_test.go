package pt

// Round-trip property tests for the packed-bit / dense-edge fast path:
// random branch streams, PSB periods {256, 4096}, optional injected ring
// loss. A lossless stream must decode to its ground truth exactly; a
// lossy one must decode to the same event/error/gap sequence every time
// (internal/image's TestQuickEdgeTableMatchesMap holds the dense edge
// table to the reference map under the same operation pattern).

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/repro/inspector/internal/image"
)

// randomEvents generates a random branch stream over a small site set.
func randomEvents(r *rand.Rand) []traceEvent {
	n := 50 + r.Intn(1500)
	nsites := 2 + r.Intn(8)
	events := make([]traceEvent, 0, n)
	for i := 0; i < n; i++ {
		if r.Intn(6) == 0 {
			events = append(events, traceEvent{
				label:    fmt.Sprintf("ind%d", r.Intn(nsites)),
				indirect: true,
			})
		} else {
			events = append(events, traceEvent{
				label: fmt.Sprintf("c%d", r.Intn(nsites)),
				taken: r.Intn(2) == 1,
			})
		}
	}
	return events
}

// encodeLossy drives events through a Tracer into a sink that drops
// dropLen bytes once the trace reaches dropFrom (0 length = lossless),
// under the given PSB period.
func encodeLossy(t testing.TB, im *image.Image, events []traceEvent, psbPeriod, dropFrom, dropLen int) []byte {
	t.Helper()
	sink := newMemSink()
	if dropLen > 0 {
		sink.dropFrom = dropFrom
		sink.dropLen = dropLen
	}
	enc := NewEncoder(sink, EncoderOptions{PSBPeriod: psbPeriod})
	tr, err := NewTracer(enc, im, "__exit__")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.indirect {
			tr.OnIndirect(im.MustSite(ev.label, image.Indirect))
		} else {
			tr.OnCond(im.MustSite(ev.label, image.Conditional), ev.taken)
		}
	}
	tr.Close()
	return sink.data
}

// decodeOutcome flattens one decode run — events and errors in arrival
// order — so two runs can be compared verbatim.
type decodeOutcome struct {
	lines []string
	gaps  int
}

// decodeAllOutcomes drains the decoder, recording every event and every
// recoverable error until EOF or the decoder stops making progress.
func decodeAllOutcomes(im *image.Image, data []byte) decodeOutcome {
	d := NewDecoder(im, data)
	var out decodeOutcome
	errStreak := 0
	for {
		ev, err := d.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			out.lines = append(out.lines, "error: "+err.Error())
			errStreak++
			if errStreak > len(data)+16 {
				out.lines = append(out.lines, "error: no progress")
				break
			}
			continue
		}
		errStreak = 0
		out.lines = append(out.lines, ev.String())
	}
	out.gaps = d.Gaps
	return out
}

func (a decodeOutcome) equal(b decodeOutcome) bool {
	if a.gaps != b.gaps || len(a.lines) != len(b.lines) {
		return false
	}
	for i := range a.lines {
		if a.lines[i] != b.lines[i] {
			return false
		}
	}
	return true
}

// checkRoundTripProperty runs one (seed, psbPeriod, loss) scenario and
// reports any violation as an error string (empty = ok).
func checkRoundTripProperty(t testing.TB, seed int64, psbPeriod int, withLoss bool) string {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	im := image.New()
	events := randomEvents(r)
	dropFrom, dropLen := 0, 0
	if withLoss {
		dropFrom = 32 + r.Intn(256)
		dropLen = 1 + r.Intn(96)
	}

	stream := encodeLossy(t, im, events, psbPeriod, dropFrom, dropLen)
	plain := decodeAllOutcomes(im, stream)
	if again := decodeAllOutcomes(im, stream); !plain.equal(again) {
		return "two decodes of one stream differ"
	}

	if !withLoss {
		// Lossless streams must reproduce the ground truth exactly.
		if plain.gaps != 0 {
			return fmt.Sprintf("lossless decode reported %d gaps", plain.gaps)
		}
		if len(plain.lines) != len(events) {
			return fmt.Sprintf("lossless decode produced %d events, want %d", len(plain.lines), len(events))
		}
		for i, want := range events {
			var wantLine string
			if want.indirect {
				target := "__exit__"
				if i+1 < len(events) {
					target = events[i+1].label
				}
				wantLine = want.label + "->" + target
			} else if want.taken {
				wantLine = want.label + ":t"
			} else {
				wantLine = want.label + ":nt"
			}
			if plain.lines[i] != wantLine {
				return fmt.Sprintf("event %d = %q, want %q", i, plain.lines[i], wantLine)
			}
		}
	}
	return ""
}

func TestQuickRoundTripRepresentations(t *testing.T) {
	for _, psb := range []int{256, 4096} {
		for _, withLoss := range []bool{false, true} {
			psb, withLoss := psb, withLoss
			name := fmt.Sprintf("psb%d_loss%v", psb, withLoss)
			t.Run(name, func(t *testing.T) {
				f := func(seed int64) bool {
					if msg := checkRoundTripProperty(t, seed, psb, withLoss); msg != "" {
						t.Log(msg)
						return false
					}
					return true
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestTruncatedAtIndirectSiteEOF pins the decoder's behaviour when the
// trace ends while the current site is indirect (e.g. the closing
// TIP.PGD fell victim to a ring overrun): Next must converge to io.EOF
// rather than returning a non-advancing error forever.
func TestTruncatedAtIndirectSiteEOF(t *testing.T) {
	im := image.New()
	events := []traceEvent{
		{label: "c0", taken: true},
		{label: "ind0", indirect: true},
		{label: "c0", taken: false},
		{label: "ind1", indirect: true},
	}
	sink := newMemSink()
	runTrace(t, im, sink, events, EncoderOptions{})
	// Chop the trace mid-stream so it ends with the decoder waiting for
	// a TIP at an indirect site.
	for cut := len(sink.data) - 1; cut > 0; cut-- {
		d := NewDecoder(im, sink.data[:cut])
		for i := 0; ; i++ {
			_, err := d.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if i > len(sink.data)+16 {
				t.Fatalf("cut=%d: decoder never reaches EOF", cut)
			}
		}
	}
}

// FuzzRoundTrip drives the same property from fuzz inputs, so `go test
// -fuzz=FuzzRoundTrip` explores seeds/periods beyond the quick.Check
// sample and the committed corpus replays as regression tests.
func FuzzRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(0), false)
	f.Add(int64(42), uint8(1), true)
	f.Add(int64(-7), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed int64, psbSel uint8, withLoss bool) {
		psb := 256
		if psbSel%2 == 1 {
			psb = 4096
		}
		if msg := checkRoundTripProperty(t, seed, psb, withLoss); msg != "" {
			t.Fatal(msg)
		}
	})
}
