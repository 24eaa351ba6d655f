package cpgfile

import (
	"bytes"
	"sync"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/core/cpgbench"
)

// encodeFixture is the core suite's DataEdges/sparse execution (8
// threads, 2000 steps, 64 pages), analyzed once.
var encodeFixture = sync.OnceValue(func() *core.Analysis {
	return cpgbench.BuildRandomGraph(8, 2000, 64, 1, 42).Analyze()
})

// BenchmarkEncode measures the encode layer of the .cpg format: one
// Encode of a finished analysis into memory, the step a recording pays
// between its Analyze and the file it serves.
func BenchmarkEncode(b *testing.B) {
	a := encodeFixture()
	var buf bytes.Buffer
	if err := Encode(&buf, a, Meta{RunID: "bench", App: "random"}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Encode(&buf, a, Meta{RunID: "bench", App: "random"}); err != nil {
			b.Fatal(err)
		}
	}
}
