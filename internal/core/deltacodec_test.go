package core_test

// Tests of the epoch delta's binary form (wire format version 3): what
// goes in comes out — as the value the version-1 gob payload decoded to,
// nil-for-empty and inline-or-spilled page sets included — nothing
// decoded points into the frame body, and every way an untrusted body
// can lie is a typed error naming the field.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/repro/inspector/internal/allocpin"
	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/vtime"
	"github.com/repro/inspector/internal/wire"
)

// wireRoundTrip pushes a delta through its binary form, so replay sees
// exactly what a recovered journal record or an ingested frame carries.
func wireRoundTrip(t testing.TB, d *core.EpochDelta) *core.EpochDelta {
	t.Helper()
	body, err := d.AppendWire(nil)
	if err != nil {
		t.Fatalf("encode delta: %v", err)
	}
	out := new(core.EpochDelta)
	if err := out.ParseWire(body); err != nil {
		t.Fatalf("decode delta: %v", err)
	}
	return out
}

// gobRoundTrip is the reference for the decoded in-memory form: the
// version-1 payload codec, kept here only as the oracle.
func gobRoundTrip(t testing.TB, d *core.EpochDelta) *core.EpochDelta {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(d); err != nil {
		t.Fatalf("gob encode delta: %v", err)
	}
	out := new(core.EpochDelta)
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("gob decode delta: %v", err)
	}
	return out
}

// codecDeltas records a seeded random execution that exercises every
// field of a delta and returns the FoldDelta sequence with each epoch's
// reference export: new branch sites interned as it goes (symbols),
// conditional and indirect thunks with and without targets, page sets
// from empty to well past the inline size with sparse high pages,
// acquires logged before their sub-computation seals (a sync edge whose
// To a later epoch captures), trace-loss gaps, back-to-back folds (an
// empty epoch) and multi-vertex epochs.
func codecDeltas(t testing.TB, threads int, seed int64) (deltas []*core.EpochDelta, exports [][]byte) {
	t.Helper()
	g := core.NewGraph(threads)
	r := rand.New(rand.NewSource(seed))
	recs := make([]*core.Recorder, threads)
	for i := range recs {
		rec, err := core.NewRecorder(g, i, 0)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
	}
	locks := []*core.SyncObject{g.NewSyncObject("m0", false), g.NewSyncObject("bar", true)}
	inc := core.NewIncrementalAnalyzer(g)
	fold := func() {
		a, d := inc.FoldDelta()
		var buf bytes.Buffer
		if err := a.ExportJSON(&buf); err != nil {
			t.Fatal(err)
		}
		deltas, exports = append(deltas, d), append(exports, buf.Bytes())
	}
	now := vtime.Cycles(0)
	for s := 0; s < 60; s++ {
		rec := recs[r.Intn(threads)]
		for i, n := 0, r.Intn(12); i < n; i++ {
			rec.OnRead(uint64(r.Intn(64)) << uint(r.Intn(40)))
			if r.Intn(2) == 0 {
				rec.OnWrite(uint64(r.Intn(64)))
			}
		}
		for i, n := 0, r.Intn(4); i < n; i++ {
			rec.OnInstructions(uint64(r.Intn(1000)))
			site := g.InternSite(fmt.Sprintf("site-%d", r.Intn(s+2)))
			switch r.Intn(3) {
			case 0:
				rec.OnBranch(site, r.Intn(2) == 0)
			case 1:
				rec.OnIndirect(site, 0)
			default:
				rec.OnIndirect(site, g.InternSite(fmt.Sprintf("target-%d", r.Intn(8))))
			}
		}
		if r.Intn(10) == 0 {
			rec.MarkGap(core.Gap{FromAlpha: rec.Alpha(), ToAlpha: rec.Alpha(), Kind: core.GapAuxLoss, Bytes: uint64(r.Intn(4096))})
		}
		lock := locks[r.Intn(len(locks))]
		now += vtime.Cycles(r.Intn(5000))
		sc, err := rec.EndSub(core.SyncEvent{Kind: core.SyncRelease, Object: lock.Ref()}, now)
		if err != nil {
			t.Fatal(err)
		}
		rec.Release(lock, sc)
		rec.Acquire(lock)
		switch r.Intn(5) {
		case 0:
			fold()
		case 1:
			fold()
			fold()
		}
	}
	for _, rec := range recs {
		if _, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, now); err != nil {
			t.Fatal(err)
		}
	}
	fold()
	return deltas, exports
}

// TestDeltaCodecRoundTrip is the codec's property: over random
// recordings a decoded delta is deeply equal to what the version-1 gob
// payload decoded to (so every consumer sees the same in-memory forms
// as before), re-encodes to the same bytes, and — applied and folded on
// a replica — exports byte-identically to the recorder's own fold at
// every epoch.
func TestDeltaCodecRoundTrip(t *testing.T) {
	covered := map[string]bool{}
	for _, threads := range []int{1, 3} {
		for seed := int64(0); seed < 6; seed++ {
			deltas, exports := codecDeltas(t, threads, seed)
			replica := core.NewGraph(threads)
			rinc := core.NewIncrementalAnalyzer(replica)
			captured := make([]int, threads)
			for i, d := range deltas {
				body, err := d.AppendWire(nil)
				if err != nil {
					t.Fatalf("threads=%d seed=%d epoch %d: encode: %v", threads, seed, d.Epoch, err)
				}
				got := new(core.EpochDelta)
				if err := got.ParseWire(body); err != nil {
					t.Fatalf("threads=%d seed=%d epoch %d: decode: %v", threads, seed, d.Epoch, err)
				}
				// gob carries exported fields only, so it is the oracle for
				// everything but the control paths, which are held to the
				// recorded ones thunk by thunk.
				if want := gobRoundTrip(t, d); !reflect.DeepEqual(core.WithoutPaths(got), want) {
					t.Fatalf("threads=%d seed=%d epoch %d: decoded delta differs from the gob form\n got %+v\nwant %+v",
						threads, seed, d.Epoch, got, want)
				}
				for j, sc := range got.Subs {
					// DeepEqual tells a nil path from an empty one.
					if want := d.Subs[j]; !reflect.DeepEqual(core.PathBytes(sc), core.PathBytes(want)) || sc.NumThunks() != want.NumThunks() {
						t.Fatalf("threads=%d seed=%d epoch %d: %v's decoded path differs from the recorded one", threads, seed, d.Epoch, sc.ID)
					}
				}
				if again, _ := got.AppendWire(nil); !bytes.Equal(again, body) {
					t.Fatalf("threads=%d seed=%d epoch %d: re-encoding a decoded delta changes its bytes", threads, seed, d.Epoch)
				}
				if err := core.ApplyDelta(replica, got); err != nil {
					t.Fatalf("threads=%d seed=%d epoch %d: ApplyDelta: %v", threads, seed, d.Epoch, err)
				}
				if !bytes.Equal(exportBytes(t, rinc.Fold()), exports[i]) {
					t.Fatalf("threads=%d seed=%d epoch %d: replica export diverges from the recorder's fold", threads, seed, d.Epoch)
				}

				// What this delta exercised, so the test fails if the
				// generator stops reaching a case the codec must carry.
				covered["empty epoch"] = covered["empty epoch"] || len(d.Subs)+len(d.Sync)+len(d.Gaps)+len(d.Symbols) == 0
				covered["multi-sub"] = covered["multi-sub"] || len(d.Subs) > 1
				covered["symbols"] = covered["symbols"] || len(d.Symbols) > 0
				covered["gaps"] = covered["gaps"] || len(d.Gaps) > 0
				for _, sc := range d.Subs {
					captured[sc.ID.Thread]++
					covered["spilled page set"] = covered["spilled page set"] || sc.ReadSet.Len() > 6
					covered["inline page set"] = covered["inline page set"] || (sc.ReadSet.Len() > 0 && sc.ReadSet.Len() <= 6)
					covered["empty page set"] = covered["empty page set"] || sc.WriteSet.Len() == 0
					covered["no thunks"] = covered["no thunks"] || sc.NumThunks() == 0
					for _, th := range sc.Thunks {
						covered["indirect thunk"] = covered["indirect thunk"] || (th.Indirect && th.Target != 0)
						covered["taken thunk"] = covered["taken thunk"] || th.Taken
					}
				}
				for _, e := range d.Sync {
					covered["sync edge to a later epoch"] = covered["sync edge to a later epoch"] || e.To.Alpha >= uint64(captured[e.To.Thread])
				}
			}
		}
	}
	for _, c := range []string{"empty epoch", "multi-sub", "symbols", "gaps", "spilled page set", "inline page set",
		"empty page set", "no thunks", "indirect thunk", "taken thunk", "sync edge to a later epoch"} {
		if !covered[c] {
			t.Errorf("generator never produced: %s", c)
		}
	}
}

// TestDeltaCodecDoesNotAliasBody pins the rule that lets wire.Reader
// reuse its buffer while ApplyDelta keeps the decoded vertices for the
// life of the graph: scribbling over the body after the decode changes
// nothing the delta holds.
func TestDeltaCodecDoesNotAliasBody(t *testing.T) {
	deltas, exports := codecDeltas(t, 2, 42)
	replica := core.NewGraph(2)
	rinc := core.NewIncrementalAnalyzer(replica)
	var body []byte
	for i, d := range deltas {
		var err error
		if body, err = d.AppendWire(body[:0]); err != nil { // one buffer for every record, as Reader.Next has
			t.Fatal(err)
		}
		got := new(core.EpochDelta)
		if err := got.ParseWire(body); err != nil {
			t.Fatal(err)
		}
		for j := range body {
			body[j] = 0xff
		}
		if want := wireRoundTrip(t, d); !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: decoded delta changed when its body was overwritten", d.Epoch)
		}
		if err := core.ApplyDelta(replica, got); err != nil {
			t.Fatalf("epoch %d: ApplyDelta: %v", d.Epoch, err)
		}
		if !bytes.Equal(exportBytes(t, rinc.Fold()), exports[i]) {
			t.Fatalf("epoch %d: export diverges after the body was overwritten", d.Epoch)
		}
	}
}

// TestDeltaCodecRefusesToEncode covers the values no fold produces and
// the uvarint form cannot carry.
func TestDeltaCodecRefusesToEncode(t *testing.T) {
	for name, d := range map[string]*core.EpochDelta{
		"nil delta":       nil,
		"nil vertex":      {Subs: []*core.SubComputation{nil}},
		"negative lens":   {Lens: []int{-1}},
		"negative thread": {Subs: []*core.SubComputation{{ID: core.SubID{Thread: -1}}}},
		"negative sync":   {Sync: []core.DeltaSyncEdge{{To: core.SubID{Thread: -2}}}},
		"negative gap":    {Gaps: []core.DeltaGap{{Thread: -1}}},
	} {
		if _, err := d.AppendWire(nil); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
	if buf, err := wire.AppendFrame([]byte("kept"), wire.KindDelta, &core.EpochDelta{Lens: []int{-1}}); err == nil || string(buf) != "kept" {
		t.Errorf("AppendFrame of an unencodable delta = %q, %v; want the buffer back and an error", buf, err)
	}
}

// uv concatenates uvarints.
func uv(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestDeltaCodecRejectsHostileBodies is the hostile-input table: one
// row per way a body that passed its CRC can still lie about its shape.
// Each must be a *wire.PayloadError naming the field — the journal's
// torn-tail reason, the ingest endpoint's 400 — before anything is
// allocated on the lie's behalf.
func TestDeltaCodecRejectsHostileBodies(t *testing.T) {
	overlong := bytes.Repeat([]byte{0xff}, 11)
	huge := uv(1 << 40) // a count or length no body backs
	var (
		head    = uv(7, 2, 1, 0, 1, 0)              // epoch 7, lens {1,0}, symBase 1, no symbols
		subID   = uv(0, 0)                          // T0.0
		clock   = uv(2, 1, 0)                       // two entries
		scalars = cat([]byte{2}, uv(0, 10, 20, 30)) // release, object 0, start, finish, instructions
		sets    = uv(0, 0)                          // empty read and write sets
		sub     = cat(subID, clock, scalars, sets)  // up to the thunk count
		tail    = uv(0, 0)                          // no sync edges, no gaps
		thunk   = uv(1<<3|3, 300)                   // site 1, taken and indirect, no target
	)
	valid := cat(head, uv(1), sub, uv(1), thunk, tail)
	if err := new(core.EpochDelta).ParseWire(valid); err != nil {
		t.Fatalf("the table's well-formed template does not parse: %v", err)
	}

	rows := []struct {
		name, field string
		body        []byte
	}{
		{"empty body", "delta.epoch", nil},
		{"overlong uvarint", "delta.epoch", overlong},
		{"lens count beyond the body", "delta.lens", cat(uv(7), huge)},
		{"oversized lens", "delta.lens", cat(uv(7, 1, 1<<31), uv(1, 0), tail)},
		{"lens that would go negative", "delta.lens", cat(uv(7, 1, 1<<63), uv(1, 0), tail)},
		{"symbol base over 32 bits", "delta.sym_base", cat(uv(7, 1, 0, 1<<32))},
		{"symbol count beyond the body", "symbols", cat(uv(7, 1, 0, 1), huge)},
		{"symbol longer than the body", "symbol", cat(uv(7, 1, 0, 1, 1, 9), []byte("abc"))},
		{"sub count beyond the body", "delta.subs", cat(head, uv(3), sub, uv(0), tail)},
		{"oversized thread slot", "delta.sub.id", cat(head, uv(1), uv(1<<31, 0), clock, scalars, sets, uv(0), tail)},
		{"clock count beyond the body", "vertex.clock", cat(head, uv(1), subID, huge, make([]byte, 16))},
		{"sync kind byte out of range", "vertex.end.kind", cat(head, uv(1), subID, clock, []byte{3}, uv(0, 10, 20, 30), sets, uv(0), tail)},
		{"object ref over 32 bits", "vertex.end.object", cat(head, uv(1), subID, clock, []byte{2}, uv(1<<32, 10, 20, 30), sets, uv(0), tail)},
		{"page count beyond the body", "delta.sub.read_set", cat(head, uv(1), subID, clock, scalars, huge)},
		{"pages not ascending", "delta.sub.read_set", cat(head, uv(1), subID, clock, scalars, uv(2, 5, 0), uv(0), uv(0), tail)},
		{"page delta overflow", "delta.sub.write_set", cat(head, uv(1), subID, clock, scalars, uv(0), uv(2, 1<<63, 1<<63), uv(0), tail)},
		{"truncated page list", "delta.sub.write_set", cat(head, uv(1), subID, clock, scalars, uv(0), uv(3, 1, 1))},
		{"thunk count beyond the body", "thunks", cat(head, uv(1), sub, uv(9), thunk, tail)},
		{"overlong thunk head", "thunk.site", cat(head, uv(1), sub, uv(1), overlong, tail)},
		{"thunk site over 32 bits", "thunk.site", cat(head, uv(1), sub, uv(1), uv(1<<35, 5), tail)},
		{"flagged thunk target of 0", "thunk.target", cat(head, uv(1), sub, uv(1), uv(1<<3|6, 0, 5), tail)},
		{"flagged thunk target over 32 bits", "thunk.target", cat(head, uv(1), sub, uv(1), uv(1<<3|6, 1<<32, 5), tail)},
		{"flagged thunk target cut off", "thunk.target", cat(head, uv(1), sub, uv(1), uv(1<<3|6), []byte{0x80})},
		{"second thunk's instructions cut off", "thunk.instructions", cat(head, uv(1), sub, uv(2), thunk, uv(2<<3), []byte{0x80})},
		{"sync count beyond the body", "delta.sync", cat(head, uv(0), huge)},
		{"sync object over 32 bits", "delta.sync.object", cat(head, uv(0), uv(1, 0, 0, 1, 0, 1<<32), uv(0))},
		{"gap count beyond the body", "delta.gaps", cat(head, uv(0, 0), huge)},
		{"gap kind byte out of range", "gap.kind", cat(head, uv(0, 0, 1), uv(0, 0, 0), []byte{4}, uv(0))},
		{"gap kind byte zero", "gap.kind", cat(head, uv(0, 0, 1), uv(0, 0, 0), []byte{0}, uv(0))},
		{"cut mid-uvarint", "thunk.instructions", valid[:len(valid)-len(tail)-1]},
		{"cut between fields", "thunks", valid[:len(valid)-len(tail)-2]},
		{"trailing bytes", "end of record", cat(valid, []byte{0})},
	}
	// The thunk element rows pin the offset too: where the lying field
	// starts, past the prefix that ends with the thunk count.
	elems := len(cat(head, uv(1), sub, uv(1)))
	at := map[string]int{
		"overlong thunk head":                 elems,
		"thunk site over 32 bits":             elems,
		"flagged thunk target of 0":           elems + 1,
		"flagged thunk target over 32 bits":   elems + 1,
		"flagged thunk target cut off":        elems + 1,
		"second thunk's instructions cut off": elems + len(thunk) + 1,
	}
	for _, row := range rows {
		err := new(core.EpochDelta).ParseWire(row.body)
		var pe *wire.PayloadError
		if !errors.As(err, &pe) {
			t.Errorf("%s: err = %v, want a *wire.PayloadError", row.name, err)
			continue
		}
		if pe.Field != row.field {
			t.Errorf("%s: error names %q, want %q (%v)", row.name, pe.Field, row.field, err)
		}
		if off, ok := at[row.name]; ok && pe.Offset != off {
			t.Errorf("%s: error at byte %d, want %d (%v)", row.name, pe.Offset, off, err)
		}
	}

	// The count checks come before the allocations they guard: a body of
	// a few bytes claiming 2^40 elements costs next to nothing to refuse.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, row := range rows {
		new(core.EpochDelta).ParseWire(row.body)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("refusing the table's %d bodies allocated %d bytes", len(rows), got)
	}
}

// FuzzDeltaPayload throws arbitrary bodies at ParseWire, seeded from
// real deltas and from the forged-count shapes the hostile table pins.
// The parser must not panic; whatever it accepts must re-encode, parse
// back to the same value, and be safe to hand to ApplyDelta (which may
// refuse it, never crash on it).
func FuzzDeltaPayload(f *testing.F) {
	deltas, _ := codecDeltas(f, 2, 1)
	for _, d := range deltas {
		body, err := d.AppendWire(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)/2])
	}
	f.Add([]byte{})
	f.Add(cat(uv(1), uv(1<<40)))
	f.Add(cat(uv(1, 1, 0, 1, 0), uv(1<<62)))
	f.Add(cat(uv(1, 1, 1, 1, 0, 1, 0, 0), uv(1<<33)))
	f.Add(bytes.Repeat([]byte{0xff}, 32))

	f.Fuzz(func(t *testing.T, body []byte) {
		d := new(core.EpochDelta)
		if err := d.ParseWire(body); err != nil {
			var pe *wire.PayloadError
			if !errors.As(err, &pe) {
				t.Fatalf("rejection is not a *wire.PayloadError: %v", err)
			}
			return
		}
		again, err := d.AppendWire(nil)
		if err != nil {
			t.Fatalf("accepted delta does not re-encode: %v", err)
		}
		back := new(core.EpochDelta)
		if err := back.ParseWire(again); err != nil || !reflect.DeepEqual(back, d) {
			t.Fatalf("re-encoded delta parses to a different value (err %v)", err)
		}
		if len(d.Lens) > 0 && len(d.Lens) <= 64 {
			_ = core.ApplyDelta(core.NewGraph(len(d.Lens)), d)
		}
	})
}

// TestSetThunksRoundTrips: every path SetThunks takes comes back from
// its bytes as it went in, numbered by position — through Thunks, and
// through the walk and a delta's wire form — at the edges of each
// field: site and target 0 and 2^32-1, a conditional thunk with a
// target, an indirect one without, and 0 and 2^64-1 instructions.
func TestSetThunksRoundTrips(t *testing.T) {
	const maxRef = core.SiteRef(math.MaxUint32)
	edges := []core.Thunk{
		{},
		{Site: maxRef, Taken: true, Instructions: math.MaxUint64},
		{Site: 15, Target: 1, Instructions: 127}, // a conditional thunk with a target
		{Site: 16, Taken: true, Target: maxRef, Instructions: 128},
		{Site: 1, Indirect: true}, // unresolved: target 0
		{Site: 2, Indirect: true, Target: 3, Instructions: 1 << 35},
		{Site: maxRef, Taken: true, Indirect: true, Target: maxRef, Instructions: math.MaxUint64},
	}
	r := rand.New(rand.NewSource(3))
	random := make([]core.Thunk, 500)
	for i := range random {
		random[i] = core.Thunk{
			Site:         core.SiteRef(r.Uint32() >> r.Intn(32)),
			Taken:        r.Intn(2) == 0,
			Indirect:     r.Intn(2) == 0,
			Instructions: r.Uint64() >> r.Intn(64),
		}
		if r.Intn(3) == 0 {
			random[i].Target = core.SiteRef(r.Uint32() >> r.Intn(32))
		}
	}
	for name, path := range map[string][]core.Thunk{"edges": edges, "random": random, "one": edges[1:2]} {
		want := make([]core.Thunk, len(path))
		var wantMax core.SiteRef
		for i, th := range path {
			th.Index = uint64(i)
			want[i] = th
			wantMax = max(wantMax, th.Site, th.Target)
		}
		var sc core.SubComputation
		sc.SetThunks(path)
		if got := core.ThunkList(&sc); !reflect.DeepEqual(got, want) || sc.NumThunks() != len(want) {
			t.Errorf("%s: Thunks decodes %d thunks, want the %d set: %v", name, len(got), len(want), got)
		}
		list := core.AppendThunks(nil, &sc)
		c := wire.NewCursor(list)
		walked, n, ref := core.WalkPath(&c)
		if err := c.Done(); err != nil || n != len(want) || ref != wantMax || string(walked) != core.PathBytes(&sc) {
			t.Errorf("%s: walk err %v, %d thunks up to ref %d, want %d up to %d and the path's own bytes", name, err, n, ref, len(want), wantMax)
		}
		ref2 := wire.NewCursor(list)
		if got := core.ParseThunks(&ref2); ref2.Done() != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the reference reader reads %v (err %v), want the thunks set", name, got, ref2.Err())
		}
		d := &core.EpochDelta{Epoch: 1, Lens: []int{1}, SymBase: 1, Subs: []*core.SubComputation{{Clock: []uint64{1}}}}
		d.Subs[0].SetThunks(path)
		if back := wireRoundTrip(t, d); !reflect.DeepEqual(core.ThunkList(back.Subs[0]), want) {
			t.Errorf("%s: the thunks do not survive a delta's wire form", name)
		}
	}
}

// FuzzControlPath holds the one reader of an AppendThunks list — the
// in-place walk ParseWire and the .cpg load share — to the reference
// that reads each field through wire.Cursor into a Thunk: the same
// accept or reject, the same error (field, offset and reason), the same
// bytes consumed, and on acceptance the same thunks, count and largest
// ref.
func FuzzControlPath(f *testing.F) {
	// One-byte fields (branchyDelta) and multi-byte refs and counts
	// (codecDeltas), so both of the walk's ways through an element start
	// out covered.
	subs := branchyDelta(f, 3, 40).Subs
	deltas, _ := codecDeltas(f, 1, 3)
	for _, d := range deltas[:min(len(deltas), 8)] {
		subs = append(subs, d.Subs...)
	}
	for _, sc := range subs {
		list := core.AppendThunks(nil, sc)
		f.Add(list)
		f.Add(list[:len(list)/2])
		f.Add(append(list, 0))
	}
	f.Add([]byte{})
	f.Add(uv(0))
	f.Add([]byte{0x80, 0x00}) // a count of 0 in two bytes
	f.Add(uv(1 << 40))
	f.Add(uv(2, 1<<3|6, 1<<32, 5, 2<<3, 1)) // a target over 32 bits
	f.Add(uv(2, 1<<3|6, 0, 5, 2<<3, 1))     // a flagged target of 0
	f.Add(uv(1, 1<<35, 5))                  // a site over 32 bits
	f.Add(cat(uv(1, 0), bytes.Repeat([]byte{0xff}, 11)))
	f.Fuzz(func(t *testing.T, list []byte) {
		walk, ref := wire.NewCursor(list), wire.NewCursor(list)
		path, n, maxRef := core.WalkPath(&walk)
		want := core.ParseThunks(&ref)
		if !reflect.DeepEqual(walk.Err(), ref.Err()) {
			t.Fatalf("walk err %v, reference err %v", walk.Err(), ref.Err())
		}
		if ref.Err() != nil {
			var pe *wire.PayloadError
			if !errors.As(walk.Err(), &pe) {
				t.Fatalf("rejection is not a *wire.PayloadError: %v", walk.Err())
			}
			return
		}
		if got, wantRest := len(walk.Rest()), len(ref.Rest()); got != wantRest {
			t.Fatalf("walk left %d bytes, reference %d", got, wantRest)
		}
		// The path is the list's elements as they lie: after the count
		// (in whatever uvarint spelling), up to what the walk left.
		_, k := binary.Uvarint(list)
		if elems := list[k : len(list)-len(walk.Rest())]; !bytes.Equal(path, elems) || (len(elems) == 0) != (path == nil) {
			t.Fatalf("walk returned %d path bytes, want the list's %d element bytes", len(path), len(elems))
		}
		var wantMax core.SiteRef
		for _, th := range want {
			wantMax = max(wantMax, th.Site, th.Target)
		}
		if n != len(want) || maxRef != wantMax {
			t.Fatalf("walk counted %d thunks up to ref %d, reference %d up to %d", n, maxRef, len(want), wantMax)
		}
		if got := core.DecodePath(path); !reflect.DeepEqual(got, want) {
			t.Fatalf("the walked path decodes to %v, reference %v", got, want)
		}
	})
}

// branchyDelta records subs sub-computations of thunks branches each on
// one thread through core.Recorder, in string_match's shape — four dozen
// sites, short thunks, every eighth an indirect transfer — and returns
// the one delta that cuts them all.
func branchyDelta(tb testing.TB, subs, thunks int) *core.EpochDelta {
	tb.Helper()
	g := core.NewGraph(1)
	rec, err := core.NewRecorder(g, 0, 0)
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	sites := make([]core.SiteRef, 48)
	for i := range sites {
		sites[i] = g.InternSite(fmt.Sprintf("match.go:%d", 100+i))
	}
	for range subs {
		for i := range thunks {
			rec.OnInstructions(uint64(1 + r.Intn(40)))
			if i%8 == 7 {
				rec.OnIndirect(sites[r.Intn(len(sites))], sites[r.Intn(len(sites))])
			} else {
				rec.OnBranch(sites[r.Intn(len(sites))], r.Intn(2) == 0)
			}
		}
		if _, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
			tb.Fatal(err)
		}
	}
	return core.CutDelta(core.NewCutter(g))
}

// TestAllocsParseWireBranchy pins what decoding a control-path-heavy
// delta costs: its paths are copied out of the body once, not decoded,
// so the decode allocates at most 1.1x the body. It measures in a
// process of its own (allocpin.MeasureAlone).
func TestAllocsParseWireBranchy(t *testing.T) {
	if !allocpin.MeasureAlone(t) {
		return
	}
	body, err := branchyDelta(t, 8, 1<<17).AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	var d core.EpochDelta
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err = d.ParseWire(body)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("ParseWire of a %d-byte body of %d thunks allocated %d B (%.2fx)",
		len(body), 8<<17, allocated, float64(allocated)/float64(len(body)))
	if float64(allocated) > 1.1*float64(len(body)) {
		t.Errorf("ParseWire of a %d-byte body allocated %d B, want at most 1.1x", len(body), allocated)
	}
}

// BenchmarkDeltaCodec measures one record through each half of the
// codec, over the deltas of a seeded recording (mostly one small vertex
// per epoch, the shape the per-epoch path sees), and — under branchy —
// over one delta of a single 1 M-thunk sub-computation recorded through
// core.Recorder, where the control path is nearly all of the body.
func BenchmarkDeltaCodec(b *testing.B) {
	b.Run("branchy", func(b *testing.B) {
		d := branchyDelta(b, 1, 1<<20)
		body, err := d.AppendWire(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			buf := make([]byte, 0, len(body))
			for i := 0; i < b.N; i++ {
				if buf, err = d.AppendWire(buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if err := new(core.EpochDelta).ParseWire(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	deltas, _ := codecDeltas(b, 2, 7)
	bodies := make([][]byte, len(deltas))
	total := 0
	for i, d := range deltas {
		body, err := d.AppendWire(nil)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
		total += len(body)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(total / len(deltas)))
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = deltas[i%len(deltas)].AppendWire(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(total / len(deltas)))
		d := new(core.EpochDelta)
		for i := 0; i < b.N; i++ {
			if err := d.ParseWire(bodies[i%len(bodies)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestAllocsDeltaCodecEncode pins BenchmarkDeltaCodec/encode's 0
// allocs/op: AppendWire into a buffer that has reached its working size
// allocates nothing. (Named Allocs*, so the -race -run TestDeltaCodec
// pattern does not select it: the race detector allocates.) It measures
// in a process of its own (allocpin.MeasureAlone).
func TestAllocsDeltaCodecEncode(t *testing.T) {
	if !allocpin.MeasureAlone(t) {
		return
	}
	deltas, _ := codecDeltas(t, 2, 7)
	var buf []byte
	i := 0
	encode := func() {
		var err error
		if buf, err = deltas[i%len(deltas)].AppendWire(buf[:0]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range deltas {
		encode()
	}
	if got := testing.AllocsPerRun(len(deltas), encode); got != 0 {
		t.Errorf("AppendWire: %v allocs per delta, want 0", got)
	}
}
