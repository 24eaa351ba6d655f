package cpgfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/core/cpgbench"
	"github.com/repro/inspector/internal/wire"
)

// buildAnalysis produces a deterministic analysis to serialize,
// optionally degraded by recorded gaps.
func buildAnalysis(t *testing.T, seed int64, degraded bool) *core.Analysis {
	t.Helper()
	g := cpgbench.BuildRandomGraph(4, 200, 64, 8, seed)
	if degraded {
		g.AddGap(1, core.Gap{FromAlpha: 2, ToAlpha: 5, Kind: core.GapAuxLoss, Bytes: 128})
		g.AddGap(3, core.Gap{FromAlpha: 0, ToAlpha: 1, Kind: core.GapTruncated})
	}
	return g.Analyze()
}

// encoded is the analysis's identity: its encoding under an empty Meta.
func encoded(t *testing.T, a *core.Analysis) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, a, Meta{}); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// writeTemp serializes the analysis to a temp file and returns its path.
func writeTemp(t *testing.T, a *core.Analysis, meta Meta) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.cpg")
	if err := Write(path, a, meta); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return path
}

func TestRoundTripLoad(t *testing.T) {
	for _, degraded := range []bool{false, true} {
		a := buildAnalysis(t, 1, degraded)
		meta := Meta{RunID: "run-1", App: "histogram"}
		path := writeTemp(t, a, meta)

		got, hdr, err := Load(path)
		if err != nil {
			t.Fatalf("Load (degraded=%v): %v", degraded, err)
		}
		if hdr.RunID != meta.RunID || hdr.App != meta.App {
			t.Fatalf("header meta = %q/%q, want %q/%q", hdr.RunID, hdr.App, meta.RunID, meta.App)
		}
		if hdr.Threads != 4 || hdr.Epoch != a.Epoch() || hdr.Degraded != degraded {
			t.Fatalf("header = %+v", hdr)
		}
		if want, have := encoded(t, a), encoded(t, got); !bytes.Equal(want, have) {
			t.Fatalf("degraded=%v: loaded analysis encodes differently", degraded)
		}
		if got.Degraded() != degraded {
			t.Fatalf("loaded Degraded = %v, want %v", got.Degraded(), degraded)
		}
		if degraded {
			if c := got.Completeness(); c.GapIntervals != 2 || c.LostBytes != 128 {
				t.Fatalf("loaded completeness = %+v", c)
			}
		}
		if err := got.Verify(); err != nil {
			t.Fatalf("loaded analysis fails verification: %v", err)
		}
	}
}

func TestMappedLazyAndDrop(t *testing.T) {
	a := buildAnalysis(t, 2, true)
	path := writeTemp(t, a, Meta{RunID: "r", App: "a"})

	m, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer m.Close()
	if err := m.VerifyChecksums(); err != nil {
		t.Fatalf("VerifyChecksums: %v", err)
	}
	st, err := m.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.SubComputations == 0 || st.GapIntervals != 2 {
		t.Fatalf("stats = %+v", st)
	}

	got, n, err := m.Analysis()
	if err != nil {
		t.Fatalf("Analysis: %v", err)
	}
	if n <= 0 {
		t.Fatalf("footprint = %d, want > 0", n)
	}
	want := encoded(t, a)
	if !bytes.Equal(want, encoded(t, got)) {
		t.Fatal("mapped analysis encodes differently")
	}
	// Stats section must agree with the engine-visible counts.
	if st.SubComputations != got.NumVertices() {
		t.Fatalf("stats subs = %d, analysis has %d", st.SubComputations, got.NumVertices())
	}

	// The mapping keeps no analysis: the next Analysis call materializes
	// a distinct, equal one at the same footprint.
	got2, n2, err := m.Analysis()
	if err != nil {
		t.Fatalf("second Analysis: %v", err)
	}
	if got2 == got {
		t.Fatal("second Analysis call returned the first call's analysis")
	}
	if n2 != n {
		t.Fatalf("second footprint = %d, first was %d", n2, n)
	}
	if !bytes.Equal(want, encoded(t, got2)) {
		t.Fatal("re-materialized analysis encodes differently")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !bytes.Equal(want, encoded(t, got)) {
		t.Fatal("analysis invalidated by Close")
	}
}

// TestMappedConcurrentReaders shares one Mapped across goroutines that
// materialize, encode, render and count concurrently (meaningful under
// -race). Every reader must see a complete, correct analysis, and the
// readers of the deferred thunks column must not race each other.
func TestMappedConcurrentReaders(t *testing.T) {
	a := thunkyGraph(24, 50).Analyze()
	want := encoded(t, a)
	path := writeTemp(t, a, Meta{RunID: "r"})
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	wantStats, err := m.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON bytes.Buffer
	if err := a.Graph().EncodeJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				got, n, err := m.Analysis()
				if err != nil {
					errc <- err
					return
				}
				if n <= 0 {
					errc <- fmt.Errorf("footprint = %d", n)
					return
				}
				var buf bytes.Buffer
				if err := Encode(&buf, got, Meta{}); err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(want, buf.Bytes()) {
					errc <- fmt.Errorf("worker %d iter %d: encoding drifted", w, i)
					return
				}
				buf.Reset()
				if err := got.Graph().EncodeJSON(&buf); err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(wantJSON.Bytes(), buf.Bytes()) {
					errc <- fmt.Errorf("worker %d iter %d: JSON render drifted", w, i)
					return
				}
				if st := got.Stats(); st != wantStats {
					errc <- fmt.Errorf("worker %d iter %d: Stats() = %+v, want %+v", w, i, st, wantStats)
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
}

func TestContentHashStable(t *testing.T) {
	a := buildAnalysis(t, 3, false)
	var one, two bytes.Buffer
	if err := Encode(&one, a, Meta{RunID: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&two, a, Meta{RunID: "x"}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Fatal("encoding is not deterministic")
	}
	if err := Encode(&two, a, Meta{RunID: "y"}); err != nil {
		t.Fatal(err)
	}
	p1 := filepath.Join(t.TempDir(), "a.cpg")
	if err := os.WriteFile(p1, one.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(p1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.ContentHash() != m.ContentHash() {
		t.Fatal("hash not stable")
	}
}

func TestCorruptionIsTypedAndNamed(t *testing.T) {
	a := buildAnalysis(t, 4, true)
	var buf bytes.Buffer
	if err := Encode(&buf, a, Meta{RunID: "r"}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	dir := t.TempDir()

	load := func(t *testing.T, b []byte) error {
		path := filepath.Join(dir, "c.cpg")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := Load(path)
		return err
	}

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[0] ^= 0xFF
		if err := load(t, b); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("version 1, whose thunks spelled their index", func(t *testing.T) {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(b[len(Magic):], 1)
		if err := load(t, b); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("err = %v, want ErrBadVersion", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[len(Magic)] = 99
		if err := load(t, b); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("err = %v, want ErrBadVersion", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, preambleLen, len(good) / 2, len(good) - 1} {
			err := load(t, good[:cut])
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("cut=%d: err = %v, want *CorruptError", cut, err)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut=%d: not ErrCorrupt", cut)
			}
		}
	})
	t.Run("bit flips name a section", func(t *testing.T) {
		flipped := 0
		for off := preambleLen; off < len(good); off += 31 {
			b := append([]byte(nil), good...)
			b[off] ^= 0x40
			err := load(t, b)
			if err == nil {
				// A flip inside a section must fail its CRC; only a
				// flip that CRC-compensates could pass, and single-bit
				// flips cannot.
				t.Fatalf("flip at %d: corruption not detected", off)
			}
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("flip at %d: err = %v, want *CorruptError", off, err)
			}
			if ce.Section == "" {
				t.Fatalf("flip at %d: error does not name a section", off)
			}
			flipped++
		}
		if flipped == 0 {
			t.Fatal("no offsets exercised")
		}
	})
	t.Run("forged counts name the section and allocate little", func(t *testing.T) {
		lay, err := parseFile(good)
		if err != nil {
			t.Fatal(err)
		}
		// Where each count sits: the index of its uvarint from the start
		// of its section (the vertices section opens with the thread
		// count and one length per thread; the gaps section with the
		// thread-group count and the first group's thread).
		threads := lay.hdr.Threads
		rows := []struct {
			name  string
			kind  uint32
			index int
		}{
			{"symbol count", secSymbols, 0},
			{"layout thread count", secVertices, 0},
			{"vertex count of thread 0", secVertices, 1},
			{"clock count of the first vertex", secVertices, 1 + threads},
			{"read-set page count", secReadSets, 0},
			{"write-set page count", secWriteSets, 0},
			{"thunk count", secThunks, 0},
			{"sync edge count", secSyncEdges, 0},
			{"data edge count", secDataEdges, 0},
			{"gap thread count", secGaps, 0},
			{"gap interval count", secGaps, 2},
			{"stored sub-computation count", secStats, 0},
			{"stored thunk total", secStats, 2},
		}
		// What refusing a forged file may cost: the file read plus the
		// sections decoded before the lie, which an intact load of this
		// file bounds, plus at most 16 bytes per byte of the lying
		// section (a core.Edge per minEdgeBytes, the widest element per
		// narrowest encoding).
		intact := allocatedBy(func() { load(t, good) })
		for _, row := range rows {
			s := lay.secs[row.kind]
			sec := good[s.off : s.off+s.length]
			for _, lie := range []uint64{1 << 40, uint64(len(sec)) / 8, uint64(len(sec))} {
				if lie == uvarintAt(t, sec, row.index) {
					lie++ // not a lie otherwise
				}
				forged := restamp(t, good, lay, row.kind, forgeUvarint(t, sec, row.index, lie))
				var err error
				got := allocatedBy(func() { err = load(t, forged) })
				var ce *CorruptError
				if !errors.As(err, &ce) || ce.Section != sectionName(row.kind) {
					t.Errorf("%s = %d: err = %v, want a *CorruptError naming %q", row.name, lie, err, sectionName(row.kind))
				}
				if limit := intact + 16*uint64(len(sec)) + 64<<10; got > limit {
					t.Errorf("%s = %d: refusing allocated %d bytes, limit %d (file %d bytes, intact load %d)",
						row.name, lie, got, limit, len(forged), intact)
				}
			}
		}
	})
	t.Run("a thunk element that lies names the thunks section", func(t *testing.T) {
		// The first vertex's list opens: count, then per thunk a head
		// (site<<3 | flags, 4 = a target follows), the target if
		// flagged, the instruction count (thunk 15 of a thunkyGraph sub
		// is the first to carry a target). Each row forges one field
		// and must be refused on that field, where it starts.
		var buf bytes.Buffer
		if err := Encode(&buf, thunkyGraph(8, 16).Analyze(), Meta{RunID: "r"}); err != nil {
			t.Fatal(err)
		}
		file := buf.Bytes()
		lay, err := parseFile(file)
		if err != nil {
			t.Fatal(err)
		}
		s := lay.secs[secThunks]
		sec := file[s.off : s.off+s.length]
		// The uvarint index of the first vertex's first flagged target,
		// and the offset of the section's last uvarint: the last
		// vertex's last instruction count.
		target := 0
		for i, n := 1, 0; target == 0 && n < int(uvarintAt(t, sec, 0)); n++ {
			if uvarintAt(t, sec, i)&4 != 0 {
				target = i + 1
			}
			i += 2 + int(uvarintAt(t, sec, i)>>2&1)
		}
		if target == 0 {
			t.Fatal("the first vertex's thunks carry no target")
		}
		last := 0
		for i := 0; ; i++ {
			if off, n := uvarintSpan(t, sec, i); off+n == len(sec) {
				last = off
				break
			}
		}
		head, _ := uvarintSpan(t, sec, 1)
		targetOff, _ := uvarintSpan(t, sec, target)
		for _, row := range []struct {
			name, field string
			sec         []byte
			off         int
		}{
			{"the first thunk's site exceeds 32 bits", "thunk.site", forgeUvarint(t, sec, 1, 1<<35|uvarintAt(t, sec, 1)&7), head},
			{"a flagged target of 0", "thunk.target", forgeUvarint(t, sec, target, 0), targetOff},
			{"a flagged target exceeds 32 bits", "thunk.target", forgeUvarint(t, sec, target, 1<<32), targetOff},
			{"the last thunk's instructions are cut off", "thunk.instructions", sec[:len(sec)-1], last},
		} {
			err := load(t, restamp(t, file, lay, secThunks, row.sec))
			var ce *CorruptError
			var pe *wire.PayloadError
			if !errors.As(err, &ce) || ce.Section != "thunks" || !errors.As(err, &pe) || pe.Field != row.field || pe.Offset != row.off {
				t.Errorf("%s: err = %v, want a *CorruptError naming \"thunks\" around %s at byte %d", row.name, err, row.field, row.off)
			}
		}
	})
	t.Run("verify checksums catches section damage", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[len(b)-2] ^= 0x10
		path := filepath.Join(dir, "v.cpg")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := Open(path)
		if err != nil {
			t.Fatalf("Open should defer section checks, got %v", err)
		}
		defer m.Close()
		err = m.VerifyChecksums()
		var ce *CorruptError
		if !errors.As(err, &ce) || !strings.Contains(ce.Section, "stats") {
			t.Fatalf("VerifyChecksums = %v, want corrupt stats section", err)
		}
	})
}

// allocatedBy returns the heap bytes f allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// uvarintSpan locates the index-th leading uvarint of sec.
func uvarintSpan(t *testing.T, sec []byte, index int) (off, n int) {
	t.Helper()
	for i := 0; ; i++ {
		if _, n = binary.Uvarint(sec[off:]); n <= 0 {
			t.Fatalf("section has no uvarint %d", i)
		}
		if i == index {
			return off, n
		}
		off += n
	}
}

// uvarintAt returns the index-th leading uvarint of sec.
func uvarintAt(t *testing.T, sec []byte, index int) uint64 {
	t.Helper()
	off, _ := uvarintSpan(t, sec, index)
	v, _ := binary.Uvarint(sec[off:])
	return v
}

// forgeUvarint returns sec with its index-th leading uvarint replaced
// by v.
func forgeUvarint(t *testing.T, sec []byte, index int, v uint64) []byte {
	t.Helper()
	off, n := uvarintSpan(t, sec, index)
	out := append([]byte(nil), sec[:off]...)
	out = binary.AppendUvarint(out, v)
	return append(out, sec[off+n:]...)
}

// restamp returns file with section kind replaced by sec and the header
// brought back in line — the section's length and CRC, the offsets of
// the sections behind it, the header's own CRC — so the only thing
// wrong with the result is what sec says.
func restamp(t *testing.T, file []byte, lay *fileLayout, kind uint32, sec []byte) []byte {
	t.Helper()
	old := lay.secs[kind]
	out := append([]byte(nil), file[:old.off]...)
	out = append(out, sec...)
	out = append(out, file[old.off+old.length:]...)

	hdrLen := int(binary.LittleEndian.Uint32(out[len(Magic)+4:]))
	hdr := out[preambleLen : preambleLen+hdrLen]
	table := hdr[len(hdr)-numSections*tableEntryLen:]
	for k := kind; k <= numSections; k++ {
		entry := table[(k-1)*tableEntryLen:]
		if k == kind {
			binary.LittleEndian.PutUint64(entry[12:], uint64(len(sec)))
			binary.LittleEndian.PutUint32(entry[20:], crc32.Checksum(sec, castagnoli))
			continue
		}
		off := binary.LittleEndian.Uint64(entry[4:])
		binary.LittleEndian.PutUint64(entry[4:], off-old.length+uint64(len(sec)))
	}
	binary.LittleEndian.PutUint32(out[len(Magic)+8:], crc32.Checksum(hdr, castagnoli))
	if _, err := parseFile(out); err != nil {
		t.Fatalf("restamped file has a bad header: %v", err)
	}
	return out
}

// TestEncodeIgnoresLaterInterning: an epoch's bytes are a function of the
// epoch. A thread that keeps recording interns new symbols after the cut,
// and neither that nor encoding itself may change what the same Analysis
// encodes to.
func TestEncodeIgnoresLaterInterning(t *testing.T) {
	g := core.NewGraph(2)
	lock := g.NewSyncObject("mutex:m", false)
	r0, err := core.NewRecorder(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := core.NewRecorder(g, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r0.OnBranch(g.InternSite("main.loop"), true)
	s0, err := r0.EndSub(core.SyncEvent{Kind: core.SyncRelease, Object: lock.Ref()}, 10)
	if err != nil {
		t.Fatal(err)
	}
	r0.Release(lock, s0)
	r1.Acquire(lock)
	if _, err := r1.EndSub(core.SyncEvent{Kind: core.SyncNone}, 20); err != nil {
		t.Fatal(err)
	}
	a := core.NewIncrementalAnalyzer(g).Fold()
	if a.Stats().SyncEdges != 1 {
		t.Fatalf("epoch has %d sync edges, want 1", a.Stats().SyncEdges)
	}
	encode := func() []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := Encode(&buf, a, Meta{RunID: "r", App: "a"}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	first := encode()
	syms := len(g.Symbols())
	if again := encode(); !bytes.Equal(first, again) {
		t.Fatal("two encodes of one analysis differ")
	}
	if got := len(g.Symbols()); got != syms {
		t.Fatalf("Encode grew the graph's symbol table %d -> %d", syms, got)
	}
	g.InternSite("worker.loop")
	g.InternObject("mutex:late")
	if later := encode(); !bytes.Equal(first, later) {
		t.Fatalf("encode after later interning: %d bytes, first encode %d", len(later), len(first))
	}

	loaded, _, err := decodeFile(first)
	if err != nil {
		t.Fatal(err)
	}
	var re bytes.Buffer
	if err := Encode(&re, loaded, Meta{RunID: "r", App: "a"}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, re.Bytes()) {
		t.Fatal("loaded epoch re-encodes differently")
	}
}
