package provenance

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"github.com/repro/inspector/internal/allocpin"
	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/core/cpgbench"
)

// FuzzDecodeResult holds decodeResult to json.Unmarshal into a zeroed
// Result, the reference: for every input the same error-ness and a
// reflect.DeepEqual value, which must not change when the input's bytes
// are overwritten afterwards (the answer keeps no view of the body).
func FuzzDecodeResult(f *testing.F) {
	e := NewEngine(cpgbench.BuildRandomGraph(4, 60, 24, 2, 9).Analyze(), EngineOptions{})
	page := uint64(0)
	for _, q := range []Query{
		{Kind: KindSlice, Target: "T0.40"},
		{Kind: KindTaint, Target: "T1.0"},
		{Kind: KindPath, From: "T0.0", To: "T0.40"},
		{Kind: KindLineage, Target: "T0.40", Page: &page},
		{Kind: KindStats},
		{Kind: KindVerify},
		{Kind: KindEdges, Limit: 7}, // a page with next_cursor
	} {
		res, err := e.Execute(context.Background(), q)
		if err != nil {
			f.Fatal(err)
		}
		addCompactAndIndented(f, res)
	}
	invalid := false
	addCompactAndIndented(f, &Result{Version: Version, Kind: KindSlice, Epoch: 3, Degraded: true, IDs: []string{"T0.0"}, Total: 1})
	addCompactAndIndented(f, &Result{Version: Version, Kind: KindVerify, Valid: &invalid, Detail: "edge \"T0.1\" -> T1.0 <cycle>", Total: 1})
	for _, s := range []string{
		`{"Version":"provenance/v1","KIND":"slice","total":1}`,
		`{"version":"provenance/v1","version":"provenance/v2"}`,
		`{"stats":{"threads":1},"stats":{"thunks":2}}`,
		`{"ids":["T0.0"],"ids":[]}`,
		`null`, `{"total":null}`, `{"ids":null}`,
		`{"total":-1}`, `{"total":1e2}`, `{"total":1.0}`, `{"total":01}`,
		`{"epoch":18446744073709551615}`, `{"epoch":18446744073709551616}`,
		`{"total":9223372036854775808}`,
		`{"total":1} x`, `{"total":1}{}`, `{"total":1,}`, `{"ids":["a",]}`,
		`{"detail":"café"}`, "{\"detail\":\"caf\xc3\xa9\"}", `{"unknown":1}`,
		`{"edges":[{"from":"T0.0","to":"T0.1","kind":"data","pages":[]}],"lineages":[]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want, got Result
		wantErr := json.Unmarshal(data, &want)
		body := bytes.Clone(data)
		gotErr := decodeResult(body, &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: decodeResult error %v, json.Unmarshal %v", data, gotErr, wantErr)
		}
		for i := range body {
			body[i] = 'x'
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decodeResult\n%#v\njson.Unmarshal\n%#v", data, got, want)
		}
	})
}

func addCompactAndIndented(f *testing.F, res *Result) {
	compact, err := json.Marshal(res)
	if err != nil {
		f.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, compact, "", "  "); err != nil {
		f.Fatal(err)
	}
	f.Add(compact)
	f.Add(indented.Bytes())
}

// TestServerAnswersTakeTheFastPath reads the body the server writes for
// every kind of answer, compact and re-indented as servers before the
// compact form wrote it, and requires the scan to take it (a new field
// the scan does not know would send every answer through reflection)
// with json.Unmarshal's value, every slice at its element count.
func TestServerAnswersTakeTheFastPath(t *testing.T) {
	f := newLiveFixture(t)
	for page := uint64(1); page <= 4; page++ {
		f.seal(t, page)
	}
	f.g.AddGap(0, core.Gap{FromAlpha: 0, ToAlpha: 0, Kind: core.GapAuxLoss, Bytes: 64})
	live := NewLiveEngine(f.g, EngineOptions{})
	t.Cleanup(func() { live.Close() })
	sources := map[string]Source{
		"fig1":   StaticSource(NewEngine(figure1(t), EngineOptions{})),
		"gapped": StaticSource(NewEngine(degradedGraph(t).Analyze(), EngineOptions{})),
		"dense":  StaticSource(NewEngine(cpgbench.BuildRandomGraph(4, 200, 24, 2, 9).Analyze(), EngineOptions{})),
		"live":   live,
	}
	ts := httptest.NewServer(NewServerSources(maps.Clone(sources), ServerOptions{}))
	t.Cleanup(ts.Close)
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	page := uint64(101)
	type ask struct {
		id string
		q  Query
	}
	asks := []ask{
		{"fig1", Query{Kind: KindSlice, Target: "T0.1"}},
		{"fig1", Query{Kind: KindTaint, Target: "T0.0"}},
		{"fig1", Query{Kind: KindPath, From: "T0.0", To: "T0.1"}},
		{"fig1", Query{Kind: KindLineage, Target: "T0.1", Page: &page}},
		{"fig1", Query{Kind: KindStats}},
		{"fig1", Query{Kind: KindVerify}},
		{"fig1", Query{Kind: KindEdges}},
		{"dense", Query{Kind: KindEdges, EdgeKinds: []string{"data"}, Limit: 5}},
		{"dense", Query{Kind: KindSlice, Target: "T0.150", Limit: 20}},
		{"gapped", Query{Kind: KindStats}},
		{"gapped", Query{Kind: KindSlice, Target: "T0.0"}},
		{"live", Query{Kind: KindStats}},
		{"live", Query{Kind: KindTaint, Target: "T0.0"}},
	}
	var seen struct{ cursor, pages, upstream, epoch, degraded, gaps bool }
	for _, a := range asks {
		body, err := json.Marshal(a.q)
		if err != nil {
			t.Fatal(err)
		}
		var compact []byte
		if err := c.do(ctx, http.MethodPost, "/v1/cpgs/"+a.id+"/query", body, "application/json", &compact); err != nil {
			t.Fatalf("%s %+v: %v", a.id, a.q, err)
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, compact, "", "  "); err != nil {
			t.Fatal(err)
		}
		for _, doc := range [][]byte{compact, indented.Bytes()} {
			name := fmt.Sprintf("%s %s %q", a.id, a.q.Kind, doc)
			var want, got Result
			if err := json.Unmarshal(doc, &want); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !scanResult(doc, &got) {
				t.Errorf("%s: the scan fell back to json.Unmarshal", name)
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: scanned %+v, json.Unmarshal %+v", name, got, want)
			}
			if cap(got.IDs) != len(got.IDs) || cap(got.Edges) != len(got.Edges) || cap(got.Lineages) != len(got.Lineages) {
				t.Errorf("%s: a slice is not at its element count", name)
			}
		}
		var res Result
		if err := json.Unmarshal(compact, &res); err != nil {
			t.Fatal(err)
		}
		seen.cursor = seen.cursor || res.NextCursor != ""
		seen.epoch = seen.epoch || res.Epoch > 0
		seen.degraded = seen.degraded || res.Degraded
		seen.gaps = seen.gaps || res.Stats != nil && res.Stats.GapIntervals > 0
		for _, e := range res.Edges {
			seen.pages = seen.pages || len(e.Pages) > 0
		}
		for _, l := range res.Lineages {
			seen.upstream = seen.upstream || len(l.Upstream) > 0
		}
	}
	if seen != struct{ cursor, pages, upstream, epoch, degraded, gaps bool }{true, true, true, true, true, true} {
		t.Errorf("the answers miss a field: %+v", seen)
	}
}

// TestAllocsDecodeResult pins what a slice answer costs to read: a fixed
// number of objects (the scanner, the id backing, the string arena),
// however many ids it names, where json.Unmarshal allocates one string an
// id. It measures in a process of its own (allocpin.MeasureAlone).
func TestAllocsDecodeResult(t *testing.T) {
	if !allocpin.MeasureAlone(t) {
		return
	}
	for _, n := range []int{20, 2000} {
		res := &Result{Version: Version, Kind: KindSlice, Total: n}
		for i := range n {
			res.IDs = append(res.IDs, core.SubID{Thread: i % 8, Alpha: uint64(i)}.String())
		}
		body, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var got Result
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err = decodeResult(body, &got)
		runtime.ReadMemStats(&after)
		if err != nil || !reflect.DeepEqual(&got, res) {
			t.Fatalf("%d ids: decoded %v, %+v", n, err, got)
		}
		mallocs := after.Mallocs - before.Mallocs
		t.Logf("a %d-id slice answer (%d B) decoded in %d allocations", n, len(body), mallocs)
		if mallocs > 8 {
			t.Errorf("a %d-id slice answer decoded in %d allocations, want at most 8", n, mallocs)
		}
	}
}

// BenchmarkDecodeResult reads the answers of BenchmarkServeQuery's
// serving mix, on the same dense graph, with the scan (decodeResult) and
// with the reflection decoder it replaces (json.Unmarshal).
func BenchmarkDecodeResult(b *testing.B) {
	g := cpgbench.BuildRandomGraph(8, 2000, 24, 4, 43)
	var target core.SubID
	for _, sc := range g.Subs() {
		if sc.ID.Thread == 0 {
			target = sc.ID
		}
	}
	sc, _ := g.Sub(target)
	page := sc.ReadSet.Sorted()[0]
	thread, lo, hi := target.Thread, target.Alpha/2, target.Alpha/2+32
	e := NewEngine(g.Analyze(), EngineOptions{})
	for _, k := range []struct {
		name string
		q    Query
	}{
		{"slice", Query{Kind: KindSlice, Target: target.String()}},
		{"taint", Query{Kind: KindTaint, Target: "T1.0"}},
		{"path", Query{Kind: KindPath, From: "T1.0", To: target.String()}},
		{"lineage", Query{Kind: KindLineage, Target: target.String(), Page: &page}},
		{"stats", Query{Kind: KindStats}},
		{"edges", Query{Kind: KindEdges, EdgeKinds: []string{"data"}, Thread: &thread, AlphaMin: &lo, AlphaMax: &hi, Limit: 256}},
	} {
		res, err := e.Execute(context.Background(), k.q)
		if err != nil {
			b.Fatal(err)
		}
		body, err := json.Marshal(res)
		if err != nil {
			b.Fatal(err)
		}
		for _, dec := range []struct {
			name   string
			decode func([]byte, *Result) error
		}{
			{"scan", decodeResult},
			{"reflect", func(data []byte, r *Result) error { return json.Unmarshal(data, r) }},
		} {
			b.Run(k.name+"/"+dec.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(body)))
				for range b.N {
					var r Result
					if err := dec.decode(body, &r); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
