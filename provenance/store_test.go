package provenance

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/core/cpgbench"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/cpgfile/cpgtest"
)

// writeStoreDir writes n deterministic CPG files into a fresh dir and
// returns the dir plus the source analyses keyed by id.
func writeStoreDir(t testing.TB, n int) (string, map[string]*core.Analysis) {
	t.Helper()
	dir := t.TempDir()
	analyses := make(map[string]*core.Analysis, n)
	for i := 0; i < n; i++ {
		g := cpgbench.BuildRandomGraph(2, 40, 24, 4, int64(i+1))
		if i%7 == 0 {
			g.AddGap(0, core.Gap{FromAlpha: 0, ToAlpha: 1, Kind: core.GapAuxLoss, Bytes: 32})
		}
		a := g.Analyze()
		id := fmt.Sprintf("cpg-%03d", i)
		if err := cpgfile.Write(filepath.Join(dir, id+".cpg"), a, cpgfile.Meta{RunID: id, App: "store-test"}); err != nil {
			t.Fatal(err)
		}
		analyses[id] = a
	}
	return dir, analyses
}

// postQuery POSTs a raw query body and returns status + body bytes.
func postQuery(t testing.TB, base, id, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/cpgs/"+id+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestStoreServesManyUnderBudget pins the acceptance criterion: 256
// on-disk CPGs served under a resident budget far below their total
// decoded size, every response byte-identical to the eager in-memory
// path, with the budget enforced and the result cache hitting.
func TestStoreServesManyUnderBudget(t *testing.T) {
	const n = 256
	dir, analyses := writeStoreDir(t, n)

	store, err := OpenDir(dir, StoreOptions{ResidentBudget: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Len() != n {
		t.Fatalf("store serves %d CPGs, want %d", store.Len(), n)
	}

	lazy := httptest.NewServer(NewServerSources(store.Sources(), ServerOptions{Store: store}))
	defer lazy.Close()
	engines := make(map[string]*Engine, n)
	for id, a := range analyses {
		engines[id] = NewEngine(a, EngineOptions{})
	}
	eager := httptest.NewServer(NewServer(engines, ServerOptions{}))
	defer eager.Close()

	queries := []string{
		`{"kind":"stats"}`,
		`{"kind":"edges","edge_kinds":["data"],"limit":5}`,
		`{"kind":"slice","target":"T0.1"}`,
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("cpg-%03d", i)
		for _, q := range queries {
			ls, lb := postQuery(t, lazy.URL, id, q)
			es, eb := postQuery(t, eager.URL, id, q)
			if ls != es || !bytes.Equal(lb, eb) {
				t.Fatalf("%s %s: lazy (%d) and eager (%d) responses differ:\n%s\n%s", id, q, ls, es, lb, eb)
			}
		}
	}

	st := store.Stats()
	if st.ResidentBudget != 256<<10 || st.ResidentBytes > st.ResidentBudget {
		t.Fatalf("resident %d over budget %d", st.ResidentBytes, st.ResidentBudget)
	}
	if st.EngineEvictions == 0 {
		t.Fatal("no evictions: budget was not exercised (total decoded size must exceed it)")
	}
	if st.Decodes <= uint64(st.DecodedCPGs) {
		t.Fatalf("decodes = %d with %d resident: eviction+re-decode cycle not exercised", st.Decodes, st.DecodedCPGs)
	}

	// A repeated query is a pure cache hit and still byte-identical.
	before := store.Stats().ResultCache
	_, first := postQuery(t, lazy.URL, "cpg-000", queries[0])
	_, second := postQuery(t, lazy.URL, "cpg-000", queries[0])
	if !bytes.Equal(first, second) {
		t.Fatal("cached response differs from computed response")
	}
	after := store.Stats().ResultCache
	if after.Hits <= before.Hits {
		t.Fatalf("result cache hits did not advance: %+v -> %+v", before, after)
	}

	// The listing path never decodes: a fresh store must answer
	// GET /v1/cpgs for all 256 files with zero materializations.
	drained, err := OpenDir(dir, StoreOptions{ResidentBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer drained.Close()
	ds := httptest.NewServer(NewServerSources(drained.Sources(), ServerOptions{Store: drained}))
	defer ds.Close()
	resp, err := http.Get(ds.URL + "/v1/cpgs")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	if got := drained.Stats(); got.Decodes != 0 {
		t.Fatalf("listing decoded %d graphs; must answer from stats sections", got.Decodes)
	}
}

// TestStoreListingMatchesEagerListing pins that the stats-section
// listing agrees with the engine-computed listing field by field.
func TestStoreListingMatchesEagerListing(t *testing.T) {
	dir, analyses := writeStoreDir(t, 8)
	store, err := OpenDir(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	lazy := httptest.NewServer(NewServerSources(store.Sources(), ServerOptions{Store: store}))
	defer lazy.Close()
	engines := make(map[string]*Engine)
	for id, a := range analyses {
		engines[id] = NewEngine(a, EngineOptions{})
	}
	eager := httptest.NewServer(NewServer(engines, ServerOptions{}))
	defer eager.Close()

	get := func(base string) []byte {
		resp, err := http.Get(base + "/v1/cpgs")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return b
	}
	lb, eb := get(lazy.URL), get(eager.URL)
	if !bytes.Equal(lb, eb) {
		t.Fatalf("listings differ:\nlazy:  %s\neager: %s", lb, eb)
	}

	// One definition of the counters: for a loaded .cpg the file's stats
	// section, the stats query and the listing entry are all the
	// analysis's own Stats.
	for id, src := range store.Sources() {
		a := analyses[id]
		want := a.Stats()
		m, err := cpgfile.Open(filepath.Join(dir, id+".cpg"))
		if err != nil {
			t.Fatal(err)
		}
		file, err := m.Stats()
		m.Close()
		if err != nil || file != want {
			t.Errorf("%s: file stats section = %+v (err %v), want %+v", id, file, err, want)
		}
		res, err := src.Query(context.Background(), Query{Kind: KindStats})
		if err != nil {
			t.Fatalf("%s: stats query: %v", id, err)
		}
		if got := core.Stats(*res.Stats); got != want {
			t.Errorf("%s: stats query = %+v, want %+v", id, got, want)
		}
		if got := src.Info(); got != infoOf(Stats(want), a.Epoch(), a.Degraded()) || got.Edges != len(a.Edges()) {
			t.Errorf("%s: listing entry = %+v, want the entry of %+v with %d edges", id, got, want, len(a.Edges()))
		}
	}
}

// TestStoreOpenDirStrictAndLenient pins corrupt-file handling: strict
// open fails naming the file; lenient open skips it by name and serves
// the healthy neighbors. Both a flipped byte and a stats section that
// does not decode behind a valid checksum are caught at open.
func TestStoreOpenDirStrictAndLenient(t *testing.T) {
	for _, row := range []struct {
		name  string
		forge func([]byte) []byte
	}{
		{"bit flip", func(b []byte) []byte { b[len(b)-3] ^= 0x20; return b }},
		{"stats section short a counter", func(b []byte) []byte {
			return cpgtest.ForgeStats(b, func(stats []byte) []byte { return stats[:len(stats)-1] })
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir, _ := writeStoreDir(t, 4)
			victim := filepath.Join(dir, "cpg-002.cpg")
			b, err := os.ReadFile(victim)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(victim, row.forge(b), 0o644); err != nil {
				t.Fatal(err)
			}

			if _, err := OpenDir(dir, StoreOptions{}); err == nil || !strings.Contains(err.Error(), "cpg-002.cpg") {
				t.Fatalf("strict OpenDir = %v, want error naming cpg-002.cpg", err)
			}

			var logs []string
			store, err := OpenDir(dir, StoreOptions{
				Lenient: true,
				Logf:    func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
			})
			if err != nil {
				t.Fatalf("lenient OpenDir: %v", err)
			}
			defer store.Close()
			if got := store.IDs(); len(got) != 3 || got[0] != "cpg-000" || got[1] != "cpg-001" || got[2] != "cpg-003" {
				t.Fatalf("lenient store ids = %v", got)
			}
			if len(logs) != 1 || !strings.Contains(logs[0], "cpg-002.cpg") || !strings.Contains(logs[0], "-lenient") {
				t.Fatalf("lenient skip log = %q", logs)
			}
			// The survivors still answer.
			ts := httptest.NewServer(NewServerSources(store.Sources(), ServerOptions{Store: store}))
			defer ts.Close()
			if status, body := postQuery(t, ts.URL, "cpg-003", `{"kind":"stats"}`); status != http.StatusOK {
				t.Fatalf("query on healthy neighbor: %d %s", status, body)
			}
		})
	}
}

// TestStoreDecodesOnceUnderConcurrentColdQueries pins the per-entry
// single flight: many first queries of one cold file, with no result
// cache to answer them, decode it once and all get the same answer.
func TestStoreDecodesOnceUnderConcurrentColdQueries(t *testing.T) {
	dir, _ := writeStoreDir(t, 1)
	store, err := OpenDir(dir, StoreOptions{ResultCacheCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	const n = 16
	answers := make([][]byte, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := store.Query(context.Background(), "cpg-000", Query{Kind: KindSlice, Target: "T0.1"})
			if err != nil {
				t.Error(err)
				return
			}
			answers[i], err = json.Marshal(res)
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if st := store.Stats(); st.Decodes != 1 {
		t.Errorf("%d concurrent cold queries decoded %d times, want 1", n, st.Decodes)
	}
	for i := range answers {
		if !bytes.Equal(answers[i], answers[0]) {
			t.Fatalf("answer %d = %s, answer 0 = %s", i, answers[i], answers[0])
		}
	}
}

// TestStoreConcurrentQueries hammers a tiny-budget store from many
// goroutines so decode, eviction, and the result cache race (run under
// -race in CI).
func TestStoreConcurrentQueries(t *testing.T) {
	dir, analyses := writeStoreDir(t, 12)
	store, err := OpenDir(dir, StoreOptions{ResidentBudget: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ts := httptest.NewServer(NewServerSources(store.Sources(), ServerOptions{Store: store}))
	defer ts.Close()

	want := make(map[string][]byte)
	eager := make(map[string]*Engine)
	for id, a := range analyses {
		eager[id] = NewEngine(a, EngineOptions{})
	}
	es := httptest.NewServer(NewServer(eager, ServerOptions{}))
	defer es.Close()
	for id := range analyses {
		_, b := postQuery(t, es.URL, id, `{"kind":"stats"}`)
		want[id] = b
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				id := fmt.Sprintf("cpg-%03d", (w*5+i)%12)
				resp, err := http.Post(ts.URL+"/v1/cpgs/"+id+"/query", "application/json",
					strings.NewReader(`{"kind":"stats"}`))
				if err != nil {
					errc <- err
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("%s: status %d: %s", id, resp.StatusCode, b)
					return
				}
				if !bytes.Equal(b, want[id]) {
					errc <- fmt.Errorf("%s: response drifted under concurrency", id)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if st := store.Stats(); st.ResidentBytes > st.ResidentBudget {
		t.Fatalf("resident %d over budget %d", st.ResidentBytes, st.ResidentBudget)
	}
}
