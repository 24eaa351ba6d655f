package provenance

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/wire"
)

// FuzzIngestFrames throws arbitrary bytes at the ingest endpoint — the
// fabric's untrusted boundary. The handler must never panic: every
// input answers 200 or a 4xx with a JSON body, and a hostile frame can
// at worst poison its own source, never the server.
func FuzzIngestFrames(f *testing.F) {
	// Seed with a well-formed stream and systematic corruptions of it.
	g := core.NewGraph(2)
	inc := core.NewIncrementalAnalyzer(g)
	_, d := inc.FoldDelta()
	frames, err := EncodeFrames(wire.Hello{RunID: "r", App: "fuzz", Threads: 2},
		[]*core.EpochDelta{d}, &wire.Seal{FinalEpoch: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frames)
	f.Add(frames[:len(frames)/2])
	f.Add(frames[:3])
	corrupt := append([]byte(nil), frames...)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt)
	f.Add([]byte{})
	f.Add([]byte("not frames at all"))
	// A hostile length prefix: claims a giant frame.
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	// Well-framed deltas whose bodies claim counts nothing backs (lens,
	// then vertices), behind a genuine hello.
	for _, body := range []rawBody{
		{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1f},
		{1, 2, 0, 0, 1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1f},
	} {
		hostile, err := EncodeFrames(wire.Hello{RunID: "r", App: "fuzz", Threads: 2}, nil, nil)
		if err != nil {
			f.Fatal(err)
		}
		if hostile, err = wire.AppendFrame(hostile, wire.KindDelta, body); err != nil {
			f.Fatal(err)
		}
		f.Add(hostile)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		hub := NewIngestHub(IngestOptions{})
		srv := NewServer(nil, ServerOptions{Ingest: hub})
		req := httptest.NewRequest("POST", "/v1/ingest/src", bytes.NewReader(body))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		resp := w.Result()
		if resp.StatusCode != 200 && (resp.StatusCode < 400 || resp.StatusCode > 499) {
			t.Fatalf("ingest answered %d for %d-byte body", resp.StatusCode, len(body))
		}
		data, rerr := io.ReadAll(resp.Body)
		if rerr != nil {
			t.Fatal(rerr)
		}
		var v map[string]any
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("non-JSON response (%d): %q", resp.StatusCode, data)
		}
	})
}
