package cpgfile

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/repro/inspector/internal/core"
)

// thunkyGraph records a deterministic execution whose control path
// dominates its file: subs sub-computations spread over 4 threads, each
// ending branches thunks at a dozen sites (every eighth an indirect
// transfer, some unresolved), a few pages read and written, one mutex
// handed between them, and a trace-loss gap on thread 1. With branches 0
// it is the same execution without a control path: its thunkless twin.
func thunkyGraph(subs, branches int) *core.Graph {
	const threads = 4
	r := rand.New(rand.NewSource(7))
	g := core.NewGraph(threads)
	recs := make([]*core.Recorder, threads)
	for i := range recs {
		rec, err := core.NewRecorder(g, i, 0)
		if err != nil {
			panic(err)
		}
		recs[i] = rec
	}
	sites := make([]core.SiteRef, 12)
	for i := range sites {
		sites[i] = g.InternSite(fmt.Sprintf("loop.%d", i))
	}
	lock := g.NewSyncObject("mutex:shared", false)
	ev := core.SyncEvent{Kind: core.SyncRelease, Object: lock.Ref()}
	for s := 0; s < subs; s++ {
		rec := recs[s%threads]
		for i := 0; i < 4; i++ {
			rec.OnRead(uint64(r.Intn(64)))
			rec.OnWrite(uint64(r.Intn(64)))
		}
		for b := 0; b < branches; b++ {
			rec.OnInstructions(uint64(1 + r.Intn(300)))
			site := sites[r.Intn(len(sites))]
			switch {
			case b%24 == 7:
				rec.OnIndirect(site, 0)
			case b%8 == 7:
				rec.OnIndirect(site, sites[r.Intn(len(sites))])
			default:
				rec.OnBranch(site, r.Intn(2) == 0)
			}
		}
		sc, err := rec.EndSub(ev, 0)
		if err != nil {
			panic(err)
		}
		rec.Release(lock, sc)
		rec.Acquire(lock)
	}
	g.AddGap(1, core.Gap{FromAlpha: 2, ToAlpha: 4, Kind: core.GapAuxLoss, Bytes: 96})
	return g
}

// encodeFile encodes a and writes it to a temp file, returning both.
func encodeFile(t testing.TB, a *core.Analysis) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, a, Meta{RunID: "r", App: "thunky"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.cpg")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// renders returns a graph's JSON and DOT renders.
func renders(t *testing.T, g *core.Graph) (jsonOut, dot []byte) {
	t.Helper()
	var j, d bytes.Buffer
	if err := g.EncodeJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteDOT(&d); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), d.Bytes()
}

// openMapped opens path, closing the mapping when the test ends.
func openMapped(t *testing.T, path string) *Mapped {
	t.Helper()
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// agreesWithLoad checks a mapped analysis of path against Load of the
// same file: the same encoding, the same JSON and DOT renders, and the
// stats the file's stats section stores.
func agreesWithLoad(t *testing.T, path string, m *Mapped, ma *core.Analysis) {
	t.Helper()
	la, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded(t, la), encoded(t, ma)) {
		t.Error("Encode of the mapped analysis differs from Encode of the loaded one")
	}
	lj, ld := renders(t, la.Graph())
	mj, md := renders(t, ma.Graph())
	if !bytes.Equal(lj, mj) {
		t.Error("EncodeJSON of the mapped graph differs from the loaded graph's")
	}
	if !bytes.Equal(ld, md) {
		t.Error("WriteDOT of the mapped graph differs from the loaded graph's")
	}
	st, err := m.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := ma.Stats(); got != st {
		t.Errorf("mapped Stats() = %+v, stats section %+v", got, st)
	}
}

// decodedThunks counts the thunks a's vertices carry decoded.
func decodedThunks(a *core.Analysis) int {
	n := 0
	for _, sc := range a.Subs() {
		n += len(sc.Thunks)
	}
	return n
}

// TestMappedDefersThunks pins the deferred thunks column: a Mapped keeps
// the section as bytes the analysis owns, charges exactly those bytes,
// and after its first materialization only copies and checksums them —
// while every reader of thunks (Encode, the renders, Stats) answers as
// the fully decoded Load does. A file whose symbol table does not
// re-intern to the identity still materializes, eagerly.
func TestMappedDefersThunks(t *testing.T) {
	const subs, branches = 64, 2000
	path, file := encodeFile(t, thunkyGraph(subs, branches).Analyze())
	twinPath, _ := encodeFile(t, thunkyGraph(subs, 0).Analyze())
	lay, err := parseFile(file)
	if err != nil {
		t.Fatal(err)
	}
	section := int64(lay.secs[secThunks].length)

	m := openMapped(t, path)
	ma, footprint, err := m.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	if st := ma.Stats(); st.Thunks != subs*branches {
		t.Fatalf("Stats().Thunks = %d, want %d", st.Thunks, subs*branches)
	}
	if n := decodedThunks(ma); n != 0 {
		t.Errorf("mapped vertices carry %d decoded thunks, want the column only", n)
	}
	agreesWithLoad(t, path, m, ma)

	twin := openMapped(t, twinPath)
	_, twinFootprint, err := twin.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	want := section + twinFootprint
	if d := footprint - want; d > want/10 || -d > want/10 {
		t.Errorf("footprint %d, want within 10%% of %d (thunks section %d + thunkless decode %d)",
			footprint, want, section, twinFootprint)
	}

	// The second materialization of each, after a Drop.
	m.Drop()
	got := allocatedBy(func() { _, _, err = m.Analysis() })
	if err != nil {
		t.Fatal(err)
	}
	twin.Drop()
	twinGot := allocatedBy(func() { twin.Analysis() })
	t.Logf("thunks section %d B; footprint %d (twin %d); re-materialization allocated %d B (twin %d)",
		section, footprint, twinFootprint, got, twinGot)
	if limit := uint64(section)*5/4 + twinGot; got > limit {
		t.Errorf("re-materialization allocated %d bytes, limit %d (1.25 x thunks section %d + thunkless decode %d)",
			got, limit, section, twinGot)
	}

	t.Run("the first materialization walks the column and checks the stats", func(t *testing.T) {
		thunks := file[lay.secs[secThunks].off:][:section]
		stats := file[lay.secs[secStats].off:][:lay.secs[secStats].length]
		for _, row := range []struct {
			name string
			kind uint32
			sec  []byte
		}{
			{"thunk count", secThunks, forgeUvarint(t, thunks, 0, uvarintAt(t, thunks, 0)+1)},
			{"trailing byte", secThunks, append(append([]byte(nil), thunks...), 0)},
			{"site ref outside the table", secThunks, forgeUvarint(t, thunks, 2, 1000)}, // count, index, site
			{"stored thunk total", secStats, forgeUvarint(t, stats, 2, subs*branches-1)},
		} {
			path := filepath.Join(t.TempDir(), "forged.cpg")
			if err := os.WriteFile(path, restamp(t, file, lay, row.kind, row.sec), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := openMapped(t, path).Analysis()
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Section != sectionName(row.kind) {
				t.Errorf("%s: err = %v, want a *CorruptError naming %q", row.name, err, sectionName(row.kind))
			}
		}
	})

	t.Run("a remembered walk still checks the copy's CRC", func(t *testing.T) {
		data := append([]byte(nil), file...)
		var walk thunkWalk
		if _, _, err := decodeAnalysis(data, lay, &walk); err != nil || walk != (thunkWalk{done: true, total: subs * branches}) {
			t.Fatalf("first materialization: walk %+v, err %v", walk, err)
		}
		data[lay.secs[secThunks].off+uint64(section)/2] ^= 0x40
		_, _, err := decodeAnalysis(data, lay, &walk)
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Section != "thunks" {
			t.Fatalf("err = %v, want a *CorruptError naming \"thunks\"", err)
		}
	})

	t.Run("duplicate symbol takes the eager path", func(t *testing.T) {
		cs, err := lay.section(file, secSymbols)
		if err != nil {
			t.Fatal(err)
		}
		syms := core.ParseSymbols(&cs)
		dup := append(syms, syms[len(syms)-1])
		forged := restamp(t, file, lay, secSymbols, core.AppendSymbols(nil, dup))
		path := filepath.Join(t.TempDir(), "dup.cpg")
		if err := os.WriteFile(path, forged, 0o644); err != nil {
			t.Fatal(err)
		}
		m := openMapped(t, path)
		ma, _, err := m.Analysis()
		if err != nil {
			t.Fatalf("Mapped analysis of a duplicate-symbol file: %v", err)
		}
		if n := decodedThunks(ma); n != subs*branches {
			t.Fatalf("eager vertices carry %d decoded thunks, want %d", n, subs*branches)
		}
		agreesWithLoad(t, path, m, ma)
	})
}
