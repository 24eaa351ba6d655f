package cpgfile

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/wire"
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

// renders returns an analysis's graph JSON and DOT renders.
func renders(t *testing.T, a *core.Analysis) (jsonOut, dot []byte) {
	t.Helper()
	var j, d bytes.Buffer
	if err := a.Graph().EncodeJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteDOT(&d); err != nil {
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

// eagerDecode is the per-vertex reference decode of a file's control
// path, the one the thunks column is held to: the file decoded as Load
// decodes it, then rebuilt over a twin graph whose vertices carry their
// own paths — one parseThunks list per vertex in (thread, alpha) order,
// every site and target ref inside the symbol table, no byte past the
// last list — with the same symbols, sync-edge log, gaps, edge sections
// and epoch.
func eagerDecode(data []byte) (*core.Analysis, error) {
	a, _, err := decodeFile(data)
	if err != nil {
		return nil, err
	}
	lay, err := parseFile(data)
	if err != nil {
		return nil, err
	}
	c, err := lay.section(data, secThunks)
	if err != nil {
		return nil, err
	}
	src, syms := a.Graph(), a.Symbols()
	g := core.NewGraph(src.Threads())
	for _, s := range syms {
		g.InternSite(s)
	}
	for t, n := range a.ThreadLens() {
		run := make([]*core.SubComputation, n)
		for i, sc := range src.ThreadSeq(t)[:n] {
			twin := *sc
			thunks := parseThunks(&c)
			if err := c.Err(); err != nil {
				return nil, fmt.Errorf("%v: %w", sc.ID, err)
			}
			for _, th := range thunks {
				if int(th.Site) >= len(syms) || int(th.Target) >= len(syms) {
					return nil, fmt.Errorf("%v: thunk %d refs outside the %d-entry table", sc.ID, th.Index, len(syms))
				}
			}
			twin.SetThunks(thunks)
			run[i] = &twin
		}
		if err := g.RestoreSubs(t, run); err != nil {
			return nil, err
		}
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	syncEdges, dataEdges := a.EdgeSections()
	log := core.MakeEdgeRows(len(syncEdges))
	for _, e := range syncEdges {
		log.AppendSync(e.From, e.To, g.InternObject(e.Object))
	}
	g.RestoreSyncLog(&log)
	for t := range src.Threads() {
		for _, gp := range src.ThreadGapList(t) {
			g.AddGap(t, gp)
		}
	}
	return core.NewAnalysisFromSections(g, a.ThreadLens(), a.Epoch(), syncEdges, dataEdges)
}

// parseThunks reads one AppendThunks list field by field through the
// cursor, numbering thunks by position: per thunk the head site<<3 |
// flags (1 taken, 2 indirect, 4 a non-zero target follows), the
// target if flagged, the instruction count.
func parseThunks(c *wire.Cursor) []core.Thunk {
	thunks := make([]core.Thunk, c.Count("thunks", core.MinThunkBytes))
	for i := range thunks {
		th := &thunks[i]
		th.Index = uint64(i)
		head := c.Uvarint("thunk.site")
		if head>>3 > math.MaxUint32 {
			c.Fail("thunk.site", "exceeds 32 bits")
		}
		th.Site = core.SiteRef(head >> 3)
		th.Taken, th.Indirect = head&1 != 0, head&2 != 0
		if head&4 != 0 {
			if th.Target = core.SiteRef(c.Uint32("thunk.target")); th.Target == 0 {
				c.Fail("thunk.target", "flagged target 0")
			}
		}
		th.Instructions = c.Uvarint("thunk.instructions")
	}
	return thunks
}

// agreesWithEager checks a mapped analysis of file against the file's
// eager per-vertex decode and against src, the analysis the file was
// encoded from: the same encoding, the same JSON and DOT renders, and
// the stats the file's stats section stores.
func agreesWithEager(t *testing.T, file []byte, src *core.Analysis, m *Mapped, ma *core.Analysis) {
	t.Helper()
	ea, err := eagerDecode(file)
	if err != nil {
		t.Fatal(err)
	}
	if n, want := decodedThunks(ea), src.Stats().Thunks; n != want {
		t.Fatalf("the eager decode carries %d thunks, want %d", n, want)
	}
	if want := encoded(t, src); !bytes.Equal(want, encoded(t, ea)) || !bytes.Equal(want, encoded(t, ma)) {
		t.Error("Encode of the mapped or eagerly decoded analysis differs from Encode of the source")
	}
	ej, ed := renders(t, ea)
	mj, md := renders(t, ma)
	if !bytes.Equal(ej, mj) {
		t.Error("EncodeJSON of the mapped graph differs from the eagerly decoded graph's")
	}
	if !bytes.Equal(ed, md) {
		t.Error("WriteDOT of the mapped analysis differs from the eagerly decoded analysis's")
	}
	st, err := m.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := ma.Stats(); got != st || ea.Stats() != st {
		t.Errorf("mapped Stats() = %+v, eager %+v, stats section %+v", got, ea.Stats(), st)
	}
}

// decodedThunks counts the thunks a's vertices carry decoded.
func decodedThunks(a *core.Analysis) int {
	n := 0
	for _, sc := range a.Subs() {
		n += sc.NumThunks()
	}
	return n
}

// TestMappedDefersThunks pins the deferred thunks column: a Mapped keeps
// the section as bytes the analysis owns, charges exactly those bytes,
// and after its first materialization only checksums them, reading the
// column from the file when a reader first needs it —
// while every reader of thunks (Encode, the renders, Stats) answers as
// the eager per-vertex decode and the source analysis do. A file whose
// symbol table does not re-intern to the identity is refused by both
// read paths.
func TestMappedDefersThunks(t *testing.T) {
	const subs, branches = 64, 2000
	src := thunkyGraph(subs, branches).Analyze()
	path, file := encodeFile(t, src)
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
	agreesWithEager(t, file, src, m, ma)
	la, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := decodedThunks(la); n != 0 {
		t.Errorf("loaded vertices carry %d decoded thunks, want the column only", n)
	}

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

	// The second materialization of each.
	got := allocatedBy(func() { _, _, err = m.Analysis() })
	if err != nil {
		t.Fatal(err)
	}
	twinGot := allocatedBy(func() { twin.Analysis() })
	t.Logf("thunks section %d B; footprint %d (twin %d); re-materialization allocated %d B (twin %d)",
		section, footprint, twinFootprint, got, twinGot)
	if limit := uint64(section)*5/4 + twinGot; got > limit {
		t.Errorf("re-materialization allocated %d bytes, limit %d (1.25 x thunks section %d + thunkless decode %d)",
			got, limit, section, twinGot)
	}
	if limit := uint64(section)/4 + twinGot; got > limit {
		t.Errorf("re-materialization allocated %d bytes, limit %d (a quarter of the thunks section %d + thunkless decode %d): it copied the column before a reader asked",
			got, limit, section, twinGot)
	}

	t.Run("a later analysis reads its column from the file, after Close too", func(t *testing.T) {
		path, _ := encodeFile(t, src)
		m, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.Analysis(); err != nil {
			t.Fatal(err)
		}
		later, _, err := m.Analysis()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encoded(t, later), encoded(t, src)) {
			t.Error("a later analysis encodes differently after Close")
		}
	})

	t.Run("a later analysis checks the CRC of the column it reads", func(t *testing.T) {
		path, _ := encodeFile(t, src)
		m, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.Analysis(); err != nil {
			t.Fatal(err)
		}
		later, _, err := m.Analysis()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		damaged := append([]byte(nil), file...)
		damaged[lay.secs[secThunks].off+uint64(section)/2] ^= 0x40
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		err = Encode(io.Discard, later, Meta{})
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Section != "thunks" {
			t.Fatalf("Encode: err = %v, want a *CorruptError naming \"thunks\"", err)
		}
		if st := later.Stats(); st.Thunks != subs*branches {
			t.Errorf("Stats().Thunks = %d, want %d: the total needs no column", st.Thunks, subs*branches)
		}
	})

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
			{"site ref outside the table", secThunks, forgeUvarint(t, thunks, 1, 1000<<3|uvarintAt(t, thunks, 1)&7)}, // count, head (site<<3 | flags)
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
		// A later materialization copies nothing, so it checks the
		// section's CRC in place.
		data := append([]byte(nil), file...)
		var walk thunkWalk
		if _, _, err := decodeAnalysis(data, lay, &walk, nil); err != nil || walk != (thunkWalk{done: true, total: subs * branches}) {
			t.Fatalf("first materialization: walk %+v, err %v", walk, err)
		}
		data[lay.secs[secThunks].off+uint64(section)/2] ^= 0x40
		_, _, err := decodeAnalysis(data, lay, &walk, nil)
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Section != "thunks" {
			t.Fatalf("err = %v, want a *CorruptError naming \"thunks\"", err)
		}
	})

	t.Run("a duplicate symbol is refused", func(t *testing.T) {
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
		_, _, lerr := Load(path)
		_, _, merr := openMapped(t, path).Analysis()
		for name, err := range map[string]error{"Load": lerr, "Mapped": merr} {
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Section != "symbols" {
				t.Errorf("%s of a duplicate-symbol file: err = %v, want a *CorruptError naming \"symbols\"", name, err)
			}
		}
	})
}
