package provenance

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile/cpgtest"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/journal"
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

// FuzzTransportsAgree holds journal recovery and the aggregator to one
// reading of any frame stream: b is written as a journal.isj behind the
// preamble and POSTed, the same bytes, to a fresh aggregator. Both
// transports run the one frame-stream applier, so a check either of
// them skips shows here as a different stop epoch, seal, degraded flag
// or graph. When recovery refuses b, the POST is a 400 that binds
// nothing; a hello without a run id ends the check at the aggregator's
// own 400; and a body the aggregator acknowledged a duplicate in is a
// tear to recovery and read on by the aggregator, so it is not
// compared.
func FuzzTransportsAgree(f *testing.F) {
	run := recordFabric(f, 2, 24, 3)
	frames := func(deltas []*core.EpochDelta, seal *wire.Seal) []byte {
		b, err := EncodeFrames(run.hello, deltas, seal)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	// then appends one more frame, so a transport that read on past a
	// refused frame applies it.
	then := func(b []byte, kind byte, payload any) []byte {
		b, err := wire.AppendFrame(bytes.Clone(b), kind, payload)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	clean := frames(run.deltas, &wire.Seal{FinalEpoch: run.finalEpoch()})
	f.Add(clean)
	f.Add(clean[:len(clean)-5])
	flipped := bytes.Clone(clean)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	// A resent frame damaged in flight, then the stream going on intact.
	resent, err := wire.AppendFrame(frames(run.deltas[:2], nil), wire.KindDelta, run.deltas[1])
	if err != nil {
		f.Fatal(err)
	}
	resent[len(resent)-1] ^= 0x10
	f.Add(then(resent, wire.KindDelta, run.deltas[2]))
	f.Add(frames([]*core.EpochDelta{run.deltas[0], run.deltas[2], run.deltas[1]}, nil))
	f.Add(then(frames(run.deltas[:3], &wire.Seal{FinalEpoch: 7}), wire.KindDelta, run.deltas[3]))
	f.Add(append(bytes.Clone(clean), "trailing"...))
	forged := binary.AppendUvarint(binary.AppendUvarint(nil, run.deltas[2].Epoch), 1<<40)
	f.Add(then(then(frames(run.deltas[:2], nil), wire.KindDelta, rawBody(forged)), wire.KindDelta, run.deltas[2]))
	invalid := *run.deltas[2]
	invalid.Lens = append([]int(nil), invalid.Lens...)
	invalid.Lens[0]++
	f.Add(frames([]*core.EpochDelta{run.deltas[0], run.deltas[1], &invalid, run.deltas[2]}, nil))
	anonymous, err := EncodeFrames(wire.Hello{Threads: run.hello.Threads}, run.deltas[:1], nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(anonymous)

	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(journal.Path(dir), append(wire.Preamble(), b...), 0o644); err != nil {
			t.Fatal(err)
		}
		rep, rerr := journal.Recover(dir, journal.RecoverOptions{})
		hub := NewIngestHub(IngestOptions{})
		st, err := hub.ingest("src", bytes.NewReader(b))
		if rerr != nil || rep.Header.RunID == "" {
			if err == nil || ingestStatusCode(err) != http.StatusBadRequest || len(hub.IDs()) != 0 {
				t.Fatalf("recovery refused the stream (%v) or it names no run, but ingest answered %v, bound %v", rerr, err, hub.IDs())
			}
			return
		}
		if st.Duplicates > 0 {
			return
		}
		if st.NextEpoch-1 != rep.Epoch || st.Sealed != rep.Sealed {
			t.Fatalf("aggregator at epoch %d sealed=%v (%v), recovery at epoch %d sealed=%v (torn %v)",
				st.NextEpoch-1, st.Sealed, err, rep.Epoch, rep.Sealed, rep.Torn)
		}
		invalid := rep.Torn != nil && strings.HasPrefix(rep.Torn.Reason, epoch.ErrInvalid.Error())
		if st.Degraded != invalid {
			t.Fatalf("aggregator degraded=%v (%v), recovery torn %v", st.Degraded, err, rep.Torn)
		}
		src, _ := hub.Source("src")
		export, recovered := cpgtest.Bytes(t, src.Engine().Analysis()), cpgtest.Bytes(t, rep.Analysis)
		switch {
		case st.Degraded:
			// The poisoned source republished its truncated prefix as one
			// more epoch; recovery truncated under its last fold.
			a, _ := cpgtest.Decode(t, export)
			syncEdges, dataEdges := a.EdgeSections()
			renumbered, err := core.NewAnalysisFromSections(a.Graph(), a.ThreadLens(), a.Epoch()-1, syncEdges, dataEdges)
			if err != nil {
				t.Fatal(err)
			}
			export = cpgtest.Bytes(t, renumbered)
		case !rep.Sealed:
			export = cpgtest.Truncated(t, export)
		}
		if !bytes.Equal(export, recovered) {
			t.Fatalf("aggregator and recovery hold different graphs at epoch %d (sealed=%v degraded=%v)", rep.Epoch, rep.Sealed, st.Degraded)
		}
	})
}
