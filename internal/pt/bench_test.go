package pt_test

// Benchmark suite for the branch-trace pipeline hot loop: per-branch
// encode cost in the steady state (pure-TNT and indirect), whole-stream
// decode throughput, and the per-branch full-pipeline round trip.
// Everything drives the public pt API only, so the scenarios stay valid
// across encoder/decoder rewrites. TestAllocsHotPaths pins the
// allocation-free paths.

import (
	"errors"
	"io"
	"testing"

	"github.com/repro/inspector/internal/image"
	"github.com/repro/inspector/internal/pt"
)

// benchSink is an appending ByteSink whose buffer the scenarios reuse.
type benchSink struct{ data []byte }

func (s *benchSink) WriteTrace(b []byte) int {
	s.data = append(s.data, b...)
	return len(b)
}

// benchChain registers n conditional sites forming a ring.
func benchChain(im *image.Image, n int) []*image.Site {
	sites := make([]*image.Site, n)
	for i := range sites {
		sites[i] = im.MustSite("bench.c"+string(rune('a'+i)), image.Conditional)
	}
	return sites
}

// benchBranch drives branch i of the steady-state pattern: site i%len,
// outcome flipping every full lap, successor always the next site. Each
// (site, outcome) pair maps to one stable successor, so after the first
// two laps every branch costs exactly one TNT bit.
func benchBranch(enc *pt.Encoder, sites []*image.Site, i int) {
	n := len(sites)
	enc.CondBranch(sites[i%n], (i/n)%2 == 0, sites[(i+1)%n])
}

// benchPrime warms both edge outcomes of every site and flushes.
func benchPrime(enc *pt.Encoder, sites []*image.Site) int {
	n := 2 * len(sites)
	for i := 0; i < n; i++ {
		benchBranch(enc, sites, i)
	}
	enc.Flush()
	return n
}

// benchDrain decodes everything remaining in the decoder, returning the
// event count.
func benchDrain(dec *pt.Decoder) (int, error) {
	n := 0
	for {
		_, err := dec.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return n, nil
			}
			return n, err
		}
		n++
	}
}

// encodeTNT returns the steady-state pure-TNT step: every outcome
// resolves to a known CFG edge (the path every hot loop iteration
// takes), one branch per call.
func encodeTNT() func() {
	im := image.New()
	sites := benchChain(im, 8)
	sink := &benchSink{data: make([]byte, 0, 1<<20)}
	enc := pt.NewEncoder(sink, pt.EncoderOptions{})
	next := benchPrime(enc, sites)
	return func() {
		benchBranch(enc, sites, next)
		next++
		if len(sink.data) > 1<<20 {
			sink.data = sink.data[:0]
		}
	}
}

// encodeIndirect returns the steady-state TIP step.
func encodeIndirect() func() {
	im := image.New()
	s1 := im.MustSite("bench.ind.a", image.Indirect)
	s2 := im.MustSite("bench.ind.b", image.Indirect)
	sink := &benchSink{data: make([]byte, 0, 1<<20)}
	enc := pt.NewEncoder(sink, pt.EncoderOptions{})
	enc.IndirectBranch(s1, s2)
	return func() {
		enc.IndirectBranch(s1, s2)
		if len(sink.data) > 1<<20 {
			sink.data = sink.data[:0]
		}
	}
}

// roundTrip returns the steady-state full-pipeline step: n branches
// encoded into the sink and decoded back into events. The decoder
// persists across chunks (Reset), mirroring an AUX-ring consumer chasing
// the producer.
func roundTrip(tb testing.TB) func(n int) {
	im := image.New()
	sites := benchChain(im, 8)
	sink := &benchSink{data: make([]byte, 0, 1<<20)}
	enc := pt.NewEncoder(sink, pt.EncoderOptions{})
	dec := pt.NewDecoder(im, nil)
	next := benchPrime(enc, sites)
	dec.Reset(sink.data)
	if n, err := benchDrain(dec); err != nil || n != next {
		tb.Fatalf("prime: %d events (%v), want %d", n, err, next)
	}
	return func(n int) {
		sink.data = sink.data[:0]
		for i := 0; i < n; i++ {
			benchBranch(enc, sites, next)
			next++
		}
		enc.Flush()
		dec.Reset(sink.data)
		got, err := benchDrain(dec)
		if err != nil {
			tb.Fatal(err)
		}
		if got != n {
			tb.Fatalf("decoded %d events, want %d", got, n)
		}
	}
}

// roundTripBatch is a multiple of 6 so TNT packets flush on the batch
// boundary.
const roundTripBatch = 6000

// BenchmarkEncode measures the per-branch encode cost in the steady
// state: the pure-TNT path and the indirect TIP path.
func BenchmarkEncode(b *testing.B) {
	for _, c := range []struct {
		name string
		step func() func()
	}{{"tnt", encodeTNT}, {"indirect", encodeIndirect}} {
		b.Run(c.name, func(b *testing.B) {
			step := c.step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// BenchmarkDecode measures whole-stream decode throughput over a
// pre-encoded trace of predominantly-TNT branches.
func BenchmarkDecode(b *testing.B) {
	const branches = 60000
	im := image.New()
	sites := benchChain(im, 8)
	sink := &benchSink{}
	enc := pt.NewEncoder(sink, pt.EncoderOptions{})
	for i := 0; i < branches; i++ {
		benchBranch(enc, sites, i)
	}
	enc.End()
	b.SetBytes(int64(len(sink.data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := benchDrain(pt.NewDecoder(im, sink.data))
		if err != nil {
			b.Fatal(err)
		}
		if n != branches {
			b.Fatalf("decoded %d events, want %d", n, branches)
		}
	}
}

// BenchmarkRoundTrip measures the steady-state cost of one branch
// through the full pipeline: encode into the sink, decode the chunk
// back into an event — the per-branch number the acceptance gate
// tracks.
func BenchmarkRoundTrip(b *testing.B) {
	trip := roundTrip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(roundTripBatch, b.N-done)
		trip(n)
		done += n
	}
}

// TestAllocsHotPaths pins what the benchmarks above report as 0
// allocs/op: steady-state TNT and TIP encode, and the encode → decode
// round trip. (Named Allocs*, not after the paths, so -race -run
// patterns never select it: the race detector allocates.)
func TestAllocsHotPaths(t *testing.T) {
	trip := roundTrip(t)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Encode/tnt", encodeTNT()},
		{"Encode/indirect", encodeIndirect()},
		{"RoundTrip", func() { trip(roundTripBatch) }},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got != 0 {
			t.Errorf("%s: %v allocs per run, want 0", c.name, got)
		}
	}
}
