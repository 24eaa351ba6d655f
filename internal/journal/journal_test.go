package journal_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/faultinject"
	"github.com/repro/inspector/internal/journal"
	"github.com/repro/inspector/internal/wire"
)

// liveRecording drives a deterministic random multithreaded recording
// step by step (the incremental-analysis test driver, reproduced here:
// journal tests need the same arbitrary-prefix control).
type liveRecording struct {
	g     *core.Graph
	recs  []*core.Recorder
	locks []*core.SyncObject
	r     *rand.Rand
}

func newLiveRecording(t testing.TB, threads int, seed int64) *liveRecording {
	t.Helper()
	g := core.NewGraph(threads)
	lr := &liveRecording{g: g, r: rand.New(rand.NewSource(seed))}
	for i := 0; i < threads; i++ {
		rec, err := core.NewRecorder(g, i, 0)
		if err != nil {
			t.Fatalf("recorder %d: %v", i, err)
		}
		lr.recs = append(lr.recs, rec)
	}
	lr.locks = []*core.SyncObject{
		g.NewSyncObject("m0", false),
		g.NewSyncObject("m1", false),
	}
	return lr
}

func (lr *liveRecording) step(t testing.TB) {
	t.Helper()
	rec := lr.recs[lr.r.Intn(len(lr.recs))]
	for i := 0; i < 1+lr.r.Intn(3); i++ {
		rec.OnRead(uint64(lr.r.Intn(32)))
		rec.OnWrite(uint64(lr.r.Intn(32)))
	}
	lock := lr.locks[lr.r.Intn(len(lr.locks))]
	sc, err := rec.EndSub(core.SyncEvent{Kind: core.SyncRelease, Object: lock.Ref()}, 0)
	if err != nil {
		t.Fatalf("EndSub: %v", err)
	}
	rec.Release(lock, sc)
	rec.Acquire(lock)
}

func (lr *liveRecording) finish(t testing.TB) {
	t.Helper()
	for _, rec := range lr.recs {
		if _, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
			t.Fatalf("EndSub: %v", err)
		}
	}
}

func exportBytes(t testing.TB, a *core.Analysis) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.ExportJSON(&buf); err != nil {
		t.Fatalf("ExportJSON: %v", err)
	}
	return buf.Bytes()
}

func dumpJSON(t testing.TB, g *core.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.EncodeJSON(&buf); err != nil {
		t.Fatalf("EncodeJSON: %v", err)
	}
	return buf.Bytes()
}

// writeJournal records `steps` random steps with a fold every `foldEvery`
// seals, seals the journal, and returns the original graph plus the
// per-epoch in-process exports.
func writeJournal(t testing.TB, dir string, threads, steps int, seed int64, opts journal.Options) (*core.Graph, [][]byte) {
	t.Helper()
	opts.Dir = dir
	opts.Threads = threads
	w, err := journal.Create(opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	lr := newLiveRecording(t, threads, seed)
	rec := journal.NewRecorder(lr.g, w, 1)
	var exports [][]byte
	rec.OnEpoch = func(a *core.Analysis, _ *core.EpochDelta) {
		exports = append(exports, exportBytes(t, a))
	}
	hook := rec.CommitHook()
	for s := 0; s < steps; s++ {
		lr.step(t)
		hook(core.SubID{})
	}
	lr.finish(t)
	for range lr.recs {
		hook(core.SubID{})
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("recorder close: %v", err)
	}
	return lr.g, exports
}

// segmentBytesFor returns a roll threshold that splits the journal
// writeJournal(threads, steps, seed) produces into at least n segments.
// It is measured from an unrolled recording of the same (seeded,
// deterministic) run, so the rolling tests do not depend on what a
// record happens to weigh in the current format.
func segmentBytesFor(t testing.TB, threads, steps int, seed int64, n int) int64 {
	t.Helper()
	dir := t.TempDir()
	writeJournal(t, dir, threads, steps, seed, journal.Options{})
	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.isj"))
	if len(segs) != 1 {
		t.Fatalf("unrolled reference journal has %d segments, want 1", len(segs))
	}
	st, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// A segment rolls at the first append past the threshold, so every
	// closed segment holds at least that much: size/(n+1) leaves room
	// for the records that straddle a threshold.
	return st.Size() / int64(n+1)
}

func TestRoundTripSealed(t *testing.T) {
	dir := t.TempDir()
	g, exports := writeJournal(t, dir, 2, 40, 1, journal.Options{App: "unit"})

	rep, err := journal.Recover(dir, journal.RecoverOptions{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !rep.Sealed || rep.Torn != nil || rep.Stopped {
		t.Fatalf("clean journal reads sealed=%v torn=%v stopped=%v", rep.Sealed, rep.Torn, rep.Stopped)
	}
	if rep.Epoch != uint64(len(exports)) || rep.Records != len(exports) {
		t.Fatalf("recovered %d records epoch %d, want %d", rep.Records, rep.Epoch, len(exports))
	}
	if rep.Header.App != "unit" || rep.Header.Threads != 2 || rep.Header.RunID == "" {
		t.Fatalf("header = %+v", rep.Header)
	}
	if got, want := dumpJSON(t, rep.Graph), dumpJSON(t, g); !bytes.Equal(got, want) {
		t.Fatal("recovered dump diverges from original graph")
	}
	if got, want := exportBytes(t, rep.Analysis), exports[len(exports)-1]; !bytes.Equal(got, want) {
		t.Fatal("recovered analysis diverges from final in-process fold")
	}
	if rep.Degraded() {
		t.Fatal("sealed journal recovered as degraded")
	}
}

func TestRecoverMaxEpochMatchesEveryPrefix(t *testing.T) {
	dir := t.TempDir()
	_, exports := writeJournal(t, dir, 2, 30, 2, journal.Options{})
	for e := 1; e <= len(exports); e++ {
		rep, err := journal.Recover(dir, journal.RecoverOptions{MaxEpoch: uint64(e)})
		if err != nil {
			t.Fatalf("Recover(MaxEpoch=%d): %v", e, err)
		}
		if rep.Epoch != uint64(e) {
			t.Fatalf("MaxEpoch=%d recovered epoch %d", e, rep.Epoch)
		}
		if e < len(exports) && !rep.Stopped {
			t.Fatalf("MaxEpoch=%d not marked stopped", e)
		}
		if got, want := exportBytes(t, rep.Analysis), exports[e-1]; !bytes.Equal(got, want) {
			t.Fatalf("epoch %d replay diverges from in-process fold", e)
		}
		if rep.Stopped && rep.Degraded() {
			t.Fatalf("deliberate prefix replay at epoch %d marked degraded", e)
		}
	}
}

func TestSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	threshold := segmentBytesFor(t, 2, 60, 3, 3)
	g, exports := writeJournal(t, dir, 2, 60, 3, journal.Options{SegmentBytes: threshold})
	rep, err := journal.Recover(dir, journal.RecoverOptions{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rep.Segments) < 3 {
		t.Fatalf("only %d segments with a %d-byte threshold", len(rep.Segments), threshold)
	}
	if !rep.Sealed || rep.Epoch != uint64(len(exports)) {
		t.Fatalf("sealed=%v epoch=%d, want true/%d", rep.Sealed, rep.Epoch, len(exports))
	}
	if got, want := dumpJSON(t, rep.Graph), dumpJSON(t, g); !bytes.Equal(got, want) {
		t.Fatal("multi-segment recovery diverges from original graph")
	}
}

func TestUnsealedJournalMarkedTruncated(t *testing.T) {
	dir := t.TempDir()
	w, err := journal.Create(journal.Options{Dir: dir, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	lr := newLiveRecording(t, 1, 4)
	rec := journal.NewRecorder(lr.g, w, 1)
	hook := rec.CommitHook()
	for s := 0; s < 10; s++ {
		lr.step(t)
		hook(core.SubID{})
	}
	// No Close: the process "died" here.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := journal.Recover(dir, journal.RecoverOptions{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.Sealed || rep.Torn != nil {
		t.Fatalf("unsealed intact journal: sealed=%v torn=%v", rep.Sealed, rep.Torn)
	}
	if rep.Epoch != 10 {
		t.Fatalf("recovered epoch %d, want 10", rep.Epoch)
	}
	if !rep.Degraded() {
		t.Fatal("unsealed journal not marked degraded")
	}
	comp := rep.Analysis.Completeness()
	if comp.Complete || comp.GapIntervals != 1 {
		t.Fatalf("completeness = %+v, want one gap interval", comp)
	}
	gaps := rep.Graph.Gaps()
	if len(gaps) != 1 || len(gaps[0].Gaps) != 1 || gaps[0].Gaps[0].Kind != core.GapTruncated {
		t.Fatalf("gaps = %+v, want one truncated interval", gaps)
	}
}

// TestRecoverHeaderOnlyJournal pins the zero-record case: a process that
// died before its first epoch leaves a header and nothing else, and
// recovery answers with the empty graph's batch analysis — epoch 0, no
// vertices, byte-identical to analyzing a fresh graph.
func TestRecoverHeaderOnlyJournal(t *testing.T) {
	dir := t.TempDir()
	w, err := journal.Create(journal.Options{Dir: dir, Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := journal.Recover(dir, journal.RecoverOptions{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.Records != 0 || rep.Epoch != 0 || rep.Analysis.Epoch() != 0 || rep.Analysis.NumVertices() != 0 {
		t.Fatalf("header-only journal: %d records, epoch %d, analysis epoch %d over %d vertices",
			rep.Records, rep.Epoch, rep.Analysis.Epoch(), rep.Analysis.NumVertices())
	}
	if got, want := exportBytes(t, rep.Analysis), exportBytes(t, core.NewGraph(3).Analyze()); !bytes.Equal(got, want) {
		t.Fatalf("header-only recovery exports\n%s\nwant the empty graph's\n%s", got, want)
	}
}

// corrupt recovers a clean journal's segment list, applies mutate to the
// files, and returns the recovery of the damaged journal.
func damage(t testing.TB, dir string, mutate func(t testing.TB, segs []string)) *journal.Recovery {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.isj"))
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, segs)
	rep, err := journal.Recover(dir, journal.RecoverOptions{})
	if err != nil {
		t.Fatalf("Recover after damage: %v", err)
	}
	return rep
}

func TestTornTailTruncatedAtFirstBadByte(t *testing.T) {
	dir := t.TempDir()
	_, exports := writeJournal(t, dir, 2, 30, 5, journal.Options{})

	// Chop the single segment mid-way: recovery must stop at the torn
	// frame, report the cut, and still replay every complete record
	// byte-identically.
	rep := damage(t, dir, func(t testing.TB, segs []string) {
		data, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segs[0], data[:len(data)*2/3], 0o644); err != nil {
			t.Fatal(err)
		}
	})
	if rep.Sealed {
		t.Fatal("chopped journal reads sealed")
	}
	if rep.Torn == nil {
		t.Fatal("chopped journal reports no tear")
	}
	if rep.Epoch == 0 || rep.Epoch >= uint64(len(exports)) {
		t.Fatalf("recovered epoch %d of %d", rep.Epoch, len(exports))
	}
	if got, want := exportBytes(t, rep.Analysis), exports[rep.Epoch-1]; !bytes.Equal(got, want) {
		t.Fatal("torn-tail recovery diverges from the fold at the same epoch")
	}
	if !rep.Degraded() {
		t.Fatal("torn journal not marked degraded")
	}
	if rep.Torn.Epoch != rep.Epoch {
		t.Fatalf("torn info epoch %d, recovered %d", rep.Torn.Epoch, rep.Epoch)
	}
	if !strings.Contains(rep.Torn.String(), "short frame") && !strings.Contains(rep.Torn.String(), "decode") {
		t.Fatalf("unexpected tear reason: %s", rep.Torn)
	}
}

func TestBitFlipStopsReplayAtCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	_, exports := writeJournal(t, dir, 2, 30, 6, journal.Options{})

	// Flip one byte ~60% in: everything before must replay, everything
	// after — even though well-formed — must be dropped.
	var flipAt int
	rep := damage(t, dir, func(t testing.TB, segs []string) {
		data, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		flipAt = len(data) * 3 / 5
		data[flipAt] ^= 0x01
		if err := os.WriteFile(segs[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	if rep.Sealed {
		t.Fatal("bit-flipped journal reads sealed")
	}
	if rep.Torn == nil || rep.Torn.Reason != "bad CRC" {
		t.Fatalf("torn = %v, want a bad-CRC tear", rep.Torn)
	}
	if rep.Torn.Offset > int64(flipAt) {
		t.Fatalf("tear reported at 0x%x, after the flipped byte 0x%x", rep.Torn.Offset, flipAt)
	}
	if rep.Epoch == 0 || rep.Epoch >= uint64(len(exports)) {
		t.Fatalf("recovered epoch %d of %d", rep.Epoch, len(exports))
	}
	if got, want := exportBytes(t, rep.Analysis), exports[rep.Epoch-1]; !bytes.Equal(got, want) {
		t.Fatal("bit-flip recovery diverges from the fold at the same epoch")
	}
	if !rep.Degraded() {
		t.Fatal("bit-flipped journal not marked degraded")
	}
}

func TestTruncateRemovesTornTailPhysically(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, 2, 40, 7, journal.Options{SegmentBytes: segmentBytesFor(t, 2, 40, 7, 3)})

	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.isj"))
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, have %d", len(segs))
	}
	// Corrupt segment 2 mid-file; segments 3+ become unreachable.
	data, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(segs[1], data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := journal.Recover(dir, journal.RecoverOptions{Truncate: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Torn == nil {
		t.Fatal("no tear reported")
	}
	left, _ := filepath.Glob(filepath.Join(dir, "journal-*.isj"))
	if len(left) != 2 {
		t.Fatalf("%d segments left after truncation, want 2", len(left))
	}
	// The truncated journal re-recovers cleanly (still unsealed).
	rep2, err := journal.Recover(dir, journal.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Torn != nil {
		t.Fatalf("tear survives physical truncation: %v", rep2.Torn)
	}
	if rep2.Sealed {
		t.Fatal("truncated journal reads sealed")
	}
	if rep2.Epoch != rep.Epoch {
		t.Fatalf("re-recovery epoch %d, want %d", rep2.Epoch, rep.Epoch)
	}
	if got, want := exportBytes(t, rep2.Analysis), exportBytes(t, rep.Analysis); !bytes.Equal(got, want) {
		t.Fatal("re-recovery diverges after truncation")
	}
}

func TestRecoverRejectsGarbage(t *testing.T) {
	if _, err := journal.Recover(t.TempDir(), journal.RecoverOptions{}); err == nil {
		t.Error("empty directory accepted")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal-000001.isj"), []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := journal.Recover(dir, journal.RecoverOptions{}); err == nil {
		t.Error("garbage segment 1 accepted")
	}
}

// TestRecoverRefusesOtherFormatVersions pins the version policy on
// disk: a segment of another format version is refused by name — the
// preamble says which version wrote it, the error says which this build
// reads — and is never handed to the record decoder.
func TestRecoverRefusesOtherFormatVersions(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, 1, 5, 8, journal.Options{})
	seg := filepath.Join(dir, "journal-000001.isj")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != wire.Version {
		t.Fatalf("fresh segment carries version %d, want %d", v, wire.Version)
	}
	binary.LittleEndian.PutUint32(data[8:], 1)
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = journal.Recover(dir, journal.RecoverOptions{})
	if err == nil || !strings.Contains(err.Error(), "format version 1, want 2") {
		t.Fatalf("Recover of a version-1 segment: err = %v, want it to name versions 1 and 2", err)
	}
}

func TestCreateRefusesExistingJournal(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, 1, 5, 8, journal.Options{})
	if _, err := journal.Create(journal.Options{Dir: dir, Threads: 1}); err == nil {
		t.Error("Create over an existing journal accepted")
	}
	// Discard is Create's undo: nothing stays, and the directory takes a
	// fresh journal.
	fresh := t.TempDir()
	for range 2 {
		w, err := journal.Create(journal.Options{Dir: fresh, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Discard(); err != nil {
			t.Fatal(err)
		}
		if left, err := os.ReadDir(fresh); err != nil || len(left) != 0 {
			t.Fatalf("Discard left %v behind (err %v)", left, err)
		}
	}
}

// syncCounter counts Sync calls through the OpenFile hook.
type syncCounter struct {
	f     journal.File
	syncs *int
}

func (s *syncCounter) Write(b []byte) (int, error) { return s.f.Write(b) }
func (s *syncCounter) Sync() error                 { *s.syncs++; return s.f.Sync() }
func (s *syncCounter) Close() error                { return s.f.Close() }

func countingOpts(syncs *int) journal.Options {
	return journal.Options{
		OpenFile: func(name string) (journal.File, error) {
			f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
			if err != nil {
				return nil, err
			}
			return &syncCounter{f: f, syncs: syncs}, nil
		},
	}
}

func TestFsyncPolicies(t *testing.T) {
	const steps = 20
	run := func(t testing.TB, opts journal.Options) int {
		syncs := 0
		o := countingOpts(&syncs)
		o.Fsync, o.SyncEvery = opts.Fsync, opts.SyncEvery
		writeJournal(t, t.TempDir(), 1, steps, 9, o)
		return syncs
	}
	// Every delta append plus the seal: one sync each. The recording
	// drives one epoch per step plus the finish seals and final fold.
	always := run(t, journal.Options{Fsync: journal.PolicyAlways})
	if always < steps {
		t.Errorf("PolicyAlways synced %d times over %d epochs", always, steps)
	}
	interval := run(t, journal.Options{Fsync: journal.PolicyInterval, SyncEvery: 8})
	if interval >= always || interval == 0 {
		t.Errorf("PolicyInterval(8) synced %d times (always: %d)", interval, always)
	}
	none := run(t, journal.Options{Fsync: journal.PolicyNone})
	if none != 0 {
		t.Errorf("PolicyNone synced %d times", none)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in    string
		p     journal.Policy
		every int
		ok    bool
	}{
		{"always", journal.PolicyAlways, 0, true},
		{"none", journal.PolicyNone, 0, true},
		{"interval", journal.PolicyInterval, 0, true},
		{"", journal.PolicyInterval, 0, true},
		{"interval:4", journal.PolicyInterval, 4, true},
		{"interval:0", 0, 0, false},
		{"interval:x", 0, 0, false},
		{"interval:", 0, 0, false},
		{"interval:-3", 0, 0, false},
		// Trailing garbage used to parse as its numeric prefix.
		{"interval:5x", 0, 0, false},
		{"interval:7 9", 0, 0, false},
		{"interval: 4", 0, 0, false},
		{"sometimes", 0, 0, false},
	}
	for _, c := range cases {
		p, every, err := journal.ParsePolicy(c.in)
		if (err == nil) != c.ok || (c.ok && (p != c.p || every != c.every)) {
			t.Errorf("ParsePolicy(%q) = %v,%d,%v; want %v,%d ok=%v", c.in, p, every, err, c.p, c.every, c.ok)
		}
	}
}

// injected builds Options whose segment files run through the fault
// injector's journal wrapper.
func injectedOpts(in *faultinject.Injector) journal.Options {
	return journal.Options{
		OpenFile: func(name string) (journal.File, error) {
			f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
			if err != nil {
				return nil, err
			}
			return in.WrapJournalFile(f), nil
		},
	}
}

// recordWithFaults records steps through a faulty journal file and
// returns the recorder's latched error plus the per-epoch exports that
// succeeded before it.
func recordWithFaults(t testing.TB, dir string, steps int, in *faultinject.Injector) (error, [][]byte) {
	t.Helper()
	opts := injectedOpts(in)
	opts.Dir, opts.Threads, opts.Fsync = dir, 1, journal.PolicyAlways
	w, err := journal.Create(opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	lr := newLiveRecording(t, 1, 11)
	rec := journal.NewRecorder(lr.g, w, 1)
	var exports [][]byte
	rec.OnEpoch = func(a *core.Analysis, _ *core.EpochDelta) {
		exports = append(exports, exportBytes(t, a))
	}
	hook := rec.CommitHook()
	for s := 0; s < steps; s++ {
		lr.step(t)
		hook(core.SubID{})
	}
	lr.finish(t)
	hook(core.SubID{})
	return rec.Close(), exports
}

func TestInjectedTornRecord(t *testing.T) {
	for _, spec := range []string{
		"journal-torn:after=8,count=1",
		"journal-short-prefix:after=8,count=1",
	} {
		t.Run(spec, func(t *testing.T) {
			sched, err := faultinject.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			closeErr, exports := recordWithFaults(t, dir, 20, faultinject.New(sched))
			if !errors.Is(closeErr, faultinject.ErrInjected) {
				t.Fatalf("recorder close error = %v, want injected fault", closeErr)
			}
			rep, err := journal.Recover(dir, journal.RecoverOptions{})
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if rep.Sealed {
				t.Fatal("journal with torn record reads sealed")
			}
			if rep.Torn == nil {
				t.Fatal("torn record not detected")
			}
			if rep.Epoch != uint64(len(exports)) {
				t.Fatalf("recovered epoch %d, %d clean appends", rep.Epoch, len(exports))
			}
			if rep.Epoch > 0 {
				if got, want := exportBytes(t, rep.Analysis), exports[rep.Epoch-1]; !bytes.Equal(got, want) {
					t.Fatal("recovery diverges from last clean epoch")
				}
			}
			if !rep.Degraded() {
				t.Fatal("torn journal not marked degraded")
			}
		})
	}
}

func TestInjectedBitFlip(t *testing.T) {
	sched, err := faultinject.Parse("journal-bit-flip:after=8,count=1")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// The writer never sees the flip: the run completes and seals.
	closeErr, exports := recordWithFaults(t, dir, 20, faultinject.New(sched))
	if closeErr != nil {
		t.Fatalf("recorder close: %v", closeErr)
	}
	rep, err := journal.Recover(dir, journal.RecoverOptions{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.Sealed {
		t.Fatal("recovery trusted records past a bad CRC")
	}
	if rep.Torn == nil || rep.Torn.Reason != "bad CRC" {
		t.Fatalf("torn = %v, want bad CRC", rep.Torn)
	}
	if rep.Epoch == 0 || rep.Epoch >= uint64(len(exports)) {
		t.Fatalf("recovered epoch %d of %d: the flip must cut mid-journal", rep.Epoch, len(exports))
	}
	if got, want := exportBytes(t, rep.Analysis), exports[rep.Epoch-1]; !bytes.Equal(got, want) {
		t.Fatal("recovery diverges from the last epoch before the flip")
	}
}

func TestInjectedFsyncError(t *testing.T) {
	sched, err := faultinject.Parse("journal-fsync-error:after=5,count=1")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	closeErr, exports := recordWithFaults(t, dir, 20, faultinject.New(sched))
	if !errors.Is(closeErr, faultinject.ErrInjected) {
		t.Fatalf("recorder close error = %v, want injected fsync error", closeErr)
	}
	rep, err := journal.Recover(dir, journal.RecoverOptions{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.Sealed {
		t.Fatal("fsync-failed journal reads sealed")
	}
	// The record whose fsync failed did reach the file (only its
	// durability guarantee was lost), so recovery may see one epoch more
	// than was acknowledged — but never fewer.
	if rep.Epoch < uint64(len(exports)) || rep.Epoch > uint64(len(exports))+1 {
		t.Fatalf("recovered epoch %d, %d acknowledged appends", rep.Epoch, len(exports))
	}
	at, err := journal.Recover(dir, journal.RecoverOptions{MaxEpoch: uint64(len(exports))})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := exportBytes(t, at.Analysis), exports[len(exports)-1]; !bytes.Equal(got, want) {
		t.Fatal("acknowledged prefix diverges after fsync failure")
	}
}

func TestWriterErrorLatches(t *testing.T) {
	sched, err := faultinject.Parse("journal-torn:after=3")
	if err != nil {
		t.Fatal(err)
	}
	in := faultinject.New(sched)
	opts := injectedOpts(in)
	opts.Dir, opts.Threads = t.TempDir(), 1
	w, err := journal.Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	g := core.NewGraph(1)
	inc := core.NewIncrementalAnalyzer(g)
	var first error
	for i := 0; i < 10; i++ {
		_, d := inc.FoldDelta()
		if err := w.Append(d); err != nil {
			first = err
			break
		}
	}
	if first == nil {
		t.Fatal("torn writes never surfaced")
	}
	for i := 0; i < 3; i++ {
		_, d := inc.FoldDelta()
		if err := w.Append(d); !errors.Is(err, first) && err != first {
			t.Fatalf("latched error changed: %v vs %v", err, first)
		}
	}
	if fired := in.Fired(faultinject.JournalTorn); fired != 1 {
		t.Fatalf("injector fired %d times after the latch, want 1", fired)
	}
	if err := w.Close(); err != first {
		t.Fatalf("Close = %v, want latched %v", err, first)
	}
}
