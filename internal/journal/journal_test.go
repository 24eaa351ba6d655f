package journal_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/cpgfile/cpgtest"
	"github.com/repro/inspector/internal/epoch"
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

func dumpJSON(t testing.TB, g *core.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.EncodeJSON(&buf); err != nil {
		t.Fatalf("EncodeJSON: %v", err)
	}
	return buf.Bytes()
}

// liveFold is an epoch.Sink that folds a second analyzer over the live
// graph at every cut (Fold) and keeps its .cpg bytes: the live
// graph's own fold, which the journal recorder's follower and recovery
// are both held to. The recordings here are sequential, so its cut is
// the driver's.
type liveFold struct {
	t       testing.TB
	inc     *core.IncrementalAnalyzer
	exports *[][]byte
}

func (s liveFold) Emit(core.Cut, epoch.Frame) error {
	a := s.inc.Fold()
	*s.exports = append(*s.exports, cpgtest.Bytes(s.t, a))
	return nil
}

func (liveFold) Finish(uint64) error { return nil }

// followExports is an OnEpoch keeping each followed epoch's .cpg bytes.
// It runs on the follower's goroutine, so it reports with Errorf, never
// Fatalf.
func followExports(t testing.TB, dst *[][]byte) func(*core.Analysis, *core.EpochDelta) {
	return func(a *core.Analysis, d *core.EpochDelta) {
		var buf bytes.Buffer
		if err := cpgfile.Encode(&buf, a, cpgfile.Meta{}); err != nil {
			t.Errorf("followed epoch %d encode: %v", d.Epoch, err)
			return
		}
		*dst = append(*dst, buf.Bytes())
	}
}

// tracedRecorder attaches a journal recorder whose OnEpoch keeps the
// followed epochs' .cpg bytes, plus a bare driver with a liveFold sink
// over the same graph, and returns the commit hook that seals both.
// Both cut at every seal, so their epoch k is the same cut.
func tracedRecorder(t testing.TB, g *core.Graph, w *journal.Writer, followed, live *[][]byte) (*journal.Recorder, *epoch.Driver, func()) {
	rec := journal.NewRecorder(g, w, 1)
	rec.OnEpoch = followExports(t, followed)
	drv := epoch.NewDriver(g, epoch.Options{}, liveFold{t, core.NewIncrementalAnalyzer(g), live})
	recHook, liveHook := rec.CommitHook(), drv.CommitHook()
	return rec, drv, func() {
		recHook(core.SubID{})
		liveHook(core.SubID{})
	}
}

// sameAsLive fails unless every followed epoch is the live fold of that
// epoch byte for byte.
func sameAsLive(t testing.TB, followed, live [][]byte) {
	t.Helper()
	if len(followed) > len(live) {
		t.Fatalf("followed %d epochs, the live analyzer folded %d", len(followed), len(live))
	}
	for i := range followed {
		if !bytes.Equal(followed[i], live[i]) {
			t.Fatalf("epoch %d: the recorder's follower differs from the live fold", i+1)
		}
	}
}

// writeJournal records `steps` random steps with an epoch per seal,
// seals the journal, and returns the original graph plus the per-epoch
// .cpg bytes of the live fold (which the recorder's OnEpoch matched).
func writeJournal(t testing.TB, dir string, threads, steps int, seed int64, opts journal.Options) (*core.Graph, [][]byte) {
	t.Helper()
	opts.Dir = dir
	opts.Threads = threads
	w, err := journal.Create(opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	lr := newLiveRecording(t, threads, seed)
	var followed, live [][]byte
	rec, drv, seal := tracedRecorder(t, lr.g, w, &followed, &live)
	for s := 0; s < steps; s++ {
		lr.step(t)
		seal()
	}
	lr.finish(t)
	for range lr.recs {
		seal()
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("recorder close: %v", err)
	}
	if err := drv.Close(); err != nil {
		t.Fatal(err)
	}
	if len(followed) != len(live) {
		t.Fatalf("followed %d epochs, the live analyzer folded %d", len(followed), len(live))
	}
	sameAsLive(t, followed, live)
	return lr.g, live
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
	if rep.Epoch != uint64(len(exports)) {
		t.Fatalf("recovered epoch %d, want %d", rep.Epoch, len(exports))
	}
	if rep.Header.App != "unit" || rep.Header.Threads != 2 || rep.Header.RunID == "" {
		t.Fatalf("header = %+v", rep.Header)
	}
	if got, want := dumpJSON(t, rep.Graph), dumpJSON(t, g); !bytes.Equal(got, want) {
		t.Fatal("recovered dump diverges from original graph")
	}
	if got, want := cpgtest.Bytes(t, rep.Analysis), exports[len(exports)-1]; !bytes.Equal(got, want) {
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
		if got, want := cpgtest.Bytes(t, rep.Analysis), exports[e-1]; !bytes.Equal(got, want) {
			t.Fatalf("epoch %d replay diverges from in-process fold", e)
		}
		if rep.Stopped && rep.Degraded() {
			t.Fatalf("deliberate prefix replay at epoch %d marked degraded", e)
		}
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
	if rep.Epoch != 0 || rep.Analysis.Epoch() != 0 || rep.Analysis.NumVertices() != 0 {
		t.Fatalf("header-only journal: epoch %d, analysis epoch %d over %d vertices",
			rep.Epoch, rep.Analysis.Epoch(), rep.Analysis.NumVertices())
	}
	if got, want := cpgtest.Bytes(t, rep.Analysis), cpgtest.Bytes(t, core.NewGraph(3).Analyze()); !bytes.Equal(got, want) {
		t.Fatal("header-only recovery diverges from the empty graph's batch analysis")
	}
}

// damage applies mutate to a clean journal's file and returns the
// recovery of the damaged journal.
func damage(t testing.TB, dir string, mutate func(t testing.TB, path string)) *journal.Recovery {
	t.Helper()
	mutate(t, journal.Path(dir))
	rep, err := journal.Recover(dir, journal.RecoverOptions{})
	if err != nil {
		t.Fatalf("Recover after damage: %v", err)
	}
	return rep
}

func TestTornTailTruncatedAtFirstBadByte(t *testing.T) {
	dir := t.TempDir()
	_, exports := writeJournal(t, dir, 2, 30, 5, journal.Options{})

	// Chop the journal mid-way: recovery must stop at the torn
	// frame, report the cut, and still replay every complete record
	// byte-identically.
	rep := damage(t, dir, func(t testing.TB, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)*2/3], 0o644); err != nil {
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
	if got, want := cpgtest.Bytes(t, rep.Analysis), cpgtest.Truncated(t, exports[rep.Epoch-1]); !bytes.Equal(got, want) {
		t.Fatal("torn-tail recovery diverges from the fold at the same epoch, cut short")
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
	rep := damage(t, dir, func(t testing.TB, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		flipAt = len(data) * 3 / 5
		data[flipAt] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
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
	if got, want := cpgtest.Bytes(t, rep.Analysis), cpgtest.Truncated(t, exports[rep.Epoch-1]); !bytes.Equal(got, want) {
		t.Fatal("bit-flip recovery diverges from the fold at the same epoch, cut short")
	}
	if !rep.Degraded() {
		t.Fatal("bit-flipped journal not marked degraded")
	}
}

func TestTruncateRemovesTornTailPhysically(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, 2, 40, 7, journal.Options{})
	path := journal.Path(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := journal.Recover(dir, journal.RecoverOptions{Truncate: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Torn == nil {
		t.Fatal("no tear reported")
	}
	if st, err := os.Stat(path); err != nil || st.Size() != rep.Torn.Offset {
		t.Fatalf("journal after truncation: %v (err %v), want %d bytes", st, err, rep.Torn.Offset)
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
	if got, want := cpgtest.Bytes(t, rep2.Analysis), cpgtest.Bytes(t, rep.Analysis); !bytes.Equal(got, want) {
		t.Fatal("re-recovery diverges after truncation")
	}
}

// TestTrailingDataAfterSeal: bytes after the seal were never written by
// the writer. They read as a tear at the seal's end, the sealed graph
// still recovers complete, and Truncate restores a clean sealed journal.
func TestTrailingDataAfterSeal(t *testing.T) {
	dir := t.TempDir()
	_, exports := writeJournal(t, dir, 2, 20, 12, journal.Options{})
	path := journal.Path(dir)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(clean, "stray bytes"...), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := journal.Recover(dir, journal.RecoverOptions{Truncate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sealed || rep.Torn == nil || rep.Torn.Reason != "trailing data after seal" || rep.Torn.Offset != int64(len(clean)) {
		t.Fatalf("sealed=%v torn=%v, want sealed with a tear at 0x%x", rep.Sealed, rep.Torn, len(clean))
	}
	if got, want := cpgtest.Bytes(t, rep.Analysis), exports[len(exports)-1]; !bytes.Equal(got, want) {
		t.Fatal("sealed graph behind trailing data diverges from the final fold")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, clean) {
		t.Fatalf("Truncate left %d bytes (err %v), want the %d-byte sealed journal", len(got), err, len(clean))
	}
	rep2, err := journal.Recover(dir, journal.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Sealed || rep2.Torn != nil || rep2.Degraded() {
		t.Fatalf("truncated journal: sealed=%v torn=%v degraded=%v, want clean and sealed", rep2.Sealed, rep2.Torn, rep2.Degraded())
	}
}

// TestZeroTailIsTheCleanEnd: a journal appended through its mapping and
// cut off mid-run ends in the zeroed rest of its last reserved window.
// Zeros that run to the end of the file are the clean end of the frames,
// after a seal too, and Truncate trims them; zeros followed by any
// non-zero byte are a tear at the first zero.
func TestZeroTailIsTheCleanEnd(t *testing.T) {
	sealedDir := t.TempDir()
	_, exports := writeJournal(t, sealedDir, 2, 20, 13, journal.Options{})
	sealed, err := os.ReadFile(journal.Path(sealedDir))
	if err != nil {
		t.Fatal(err)
	}
	// An unsealed journal: the sealed one without its seal frame.
	rep, err := journal.Recover(sealedDir, journal.RecoverOptions{MaxEpoch: uint64(len(exports))})
	if err != nil {
		t.Fatal(err)
	}
	unsealed := sealed[:rep.End]
	if !rep.Stopped || int(rep.End) >= len(sealed) {
		t.Fatalf("prefix recovery stopped=%v at %d of %d bytes", rep.Stopped, rep.End, len(sealed))
	}
	zeros := make([]byte, 3000)
	for _, c := range []struct {
		name   string
		frames []byte
		sealed bool
	}{{"sealed", sealed, true}, {"unsealed", unsealed, false}} {
		for _, n := range []int{1, 7, 8, 9, len(zeros)} {
			t.Run(fmt.Sprintf("%s+%d", c.name, n), func(t *testing.T) {
				dir := t.TempDir()
				path := journal.Path(dir)
				if err := os.WriteFile(path, append(bytes.Clone(c.frames), zeros[:n]...), 0o644); err != nil {
					t.Fatal(err)
				}
				rep, err := journal.Recover(dir, journal.RecoverOptions{Truncate: true})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Torn != nil || rep.Sealed != c.sealed || rep.Epoch != uint64(len(exports)) || rep.End != int64(len(c.frames)) {
					t.Fatalf("torn=%v sealed=%v epoch=%d end=%d, want untorn, sealed=%v, epoch %d, end %d",
						rep.Torn, rep.Sealed, rep.Epoch, rep.End, c.sealed, len(exports), len(c.frames))
				}
				want := exports[len(exports)-1]
				if !c.sealed {
					want = cpgtest.Truncated(t, want)
				}
				if !bytes.Equal(cpgtest.Bytes(t, rep.Analysis), want) {
					t.Fatal("recovery before a zero tail diverges from the fold")
				}
				if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, c.frames) {
					t.Fatalf("Truncate left %d bytes (err %v), want the %d bytes of frames", len(got), err, len(c.frames))
				}

				// One non-zero byte after the zeros makes them a tear.
				if err := os.WriteFile(path, append(append(bytes.Clone(c.frames), zeros[:n]...), 1), 0o644); err != nil {
					t.Fatal(err)
				}
				rep, err = journal.Recover(dir, journal.RecoverOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Torn == nil || rep.Torn.Offset != int64(len(c.frames)) || rep.Sealed != c.sealed || rep.Epoch != uint64(len(exports)) {
					t.Fatalf("zeros then a byte: torn=%v sealed=%v epoch=%d, want a tear at 0x%x", rep.Torn, rep.Sealed, rep.Epoch, len(c.frames))
				}
			})
		}
	}
}

// TestJournalOpensWithTheStreamsHello: after the preamble, the first
// frame is the run's wire.Hello — the frame an ingest body opens with —
// at base epoch 1, and the directory holds nothing but journal.isj.
func TestJournalOpensWithTheStreamsHello(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, 3, 5, 13, journal.Options{RunID: "run-7", App: "hello-test"})
	if left, err := os.ReadDir(dir); err != nil || len(left) != 1 || left[0].Name() != "journal.isj" {
		t.Fatalf("journal directory holds %v (err %v), want journal.isj alone", left, err)
	}
	data, err := os.ReadFile(journal.Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[:wire.PreambleLen], wire.Preamble()) {
		t.Fatalf("preamble = %x", data[:wire.PreambleLen])
	}
	kind, body, _, err := wire.ParseFrame(data[wire.PreambleLen:], 0)
	if err != nil || kind != wire.KindHeader {
		t.Fatalf("first frame: kind %d, err %v", kind, err)
	}
	var h wire.Hello
	if err := wire.Decode(body, &h); err != nil {
		t.Fatal(err)
	}
	if want := (wire.Hello{RunID: "run-7", App: "hello-test", Threads: 3, BaseEpoch: 1}); h != want {
		t.Fatalf("hello = %+v, want %+v", h, want)
	}
	rep, err := journal.Recover(dir, journal.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Header != h {
		t.Fatalf("Recovery.Header = %+v, want the hello %+v", rep.Header, h)
	}
}

// TestRecoverRefusesTheSegmentLayout: a directory holding only a
// journal-000001.isj (the old multi-file layout) is refused with an
// error naming journal.isj. The segment is a valid journal, so the
// refusal shows it was never parsed.
func TestRecoverRefusesTheSegmentLayout(t *testing.T) {
	src := t.TempDir()
	writeJournal(t, src, 1, 5, 14, journal.Options{})
	data, err := os.ReadFile(journal.Path(src))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal-000001.isj"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := journal.Recover(dir, journal.RecoverOptions{}); err == nil || !strings.Contains(err.Error(), "journal.isj") {
		t.Fatalf("Recover of a segment-only directory: err = %v, want a refusal naming journal.isj", err)
	}
}

func TestRecoverRejectsGarbage(t *testing.T) {
	if _, err := journal.Recover(t.TempDir(), journal.RecoverOptions{}); err == nil {
		t.Error("empty directory accepted")
	}
	dir := t.TempDir()
	if err := os.WriteFile(journal.Path(dir), []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := journal.Recover(dir, journal.RecoverOptions{}); err == nil {
		t.Error("garbage journal accepted")
	}
}

// TestRecoverRefusesWideHello pins the one width bound on a hello: a
// journal whose CRC-valid hello names more than wire.MaxThreads thread
// slots has no usable hello, and is refused before a graph that wide
// exists — a forged 2^26-thread hello costs nothing.
func TestRecoverRefusesWideHello(t *testing.T) {
	for _, threads := range []uint64{wire.MaxThreads + 1, 1 << 26} {
		dir := t.TempDir()
		if err := os.WriteFile(journal.Path(dir), append(wire.Preamble(), helloFrame(t, threads)...), 0o644); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, err := journal.Recover(dir, journal.RecoverOptions{})
		if err == nil || !strings.Contains(err.Error(), "hello.threads") {
			t.Fatalf("%d-thread hello: err = %v, want a refusal naming hello.threads", threads, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("%d-thread hello: refused after %v, want under 1s", threads, d)
		}
	}
}

// TestCreateRefusesWideJournal: no run writes a journal Recover would
// refuse. The widest readable hello is written and recovered.
func TestCreateRefusesWideJournal(t *testing.T) {
	dir := t.TempDir()
	if _, err := journal.Create(journal.Options{Dir: dir, Threads: wire.MaxThreads + 1}); err == nil {
		t.Fatalf("Create with %d threads accepted", wire.MaxThreads+1)
	}
	if _, err := os.Lstat(journal.Path(dir)); !os.IsNotExist(err) {
		t.Fatalf("a refused Create left %s behind (%v)", journal.Path(dir), err)
	}
	w, err := journal.Create(journal.Options{Dir: dir, Threads: wire.MaxThreads})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := journal.Recover(dir, journal.RecoverOptions{})
	if err != nil || rep.Header.Threads != wire.MaxThreads {
		t.Fatalf("Recover of a %d-thread journal: %+v, %v", wire.MaxThreads, rep, err)
	}
}

// TestRecoveryEndAndFrames pins what a re-feed posts: End is the offset
// just past the last frame replayed — the seal when the journal is
// sealed, the delta MaxEpoch stopped at, the tear when there is one —
// and Frames reads the file from the hello up to End.
func TestRecoveryEndAndFrames(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, 2, 12, 5, journal.Options{})
	path := journal.Path(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64 // ends[i]: the offset past frame i (0 is the hello)
	for off := int64(wire.PreambleLen); off < int64(len(data)); {
		_, _, n, err := wire.ParseFrame(data[off:], 0)
		if err != nil {
			t.Fatal(err)
		}
		off += n
		ends = append(ends, off)
	}
	check := func(what string, opts journal.RecoverOptions, want int64) {
		t.Helper()
		rep, err := journal.Recover(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.End != want || (rep.Torn != nil && rep.Torn.Offset != rep.End) {
			t.Fatalf("%s: End %d (torn %v), want %d", what, rep.End, rep.Torn, want)
		}
		fr, err := rep.Frames()
		if err != nil {
			t.Fatal(err)
		}
		defer fr.Close()
		got, err := io.ReadAll(fr)
		if err != nil || !bytes.Equal(got, data[wire.PreambleLen:want]) {
			t.Fatalf("%s: Frames read %d bytes (%v), want the %d after the preamble", what, len(got), err, want-wire.PreambleLen)
		}
	}
	check("sealed", journal.RecoverOptions{}, int64(len(data)))
	check("stopped at epoch 3", journal.RecoverOptions{MaxEpoch: 3}, ends[3])
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	check("torn seal", journal.RecoverOptions{}, ends[len(ends)-2])
}

// TestRecoverRefusesOtherFormatVersions pins the version policy on
// disk: a journal of another format version is refused by name — the
// preamble says which version wrote it, the error says which this build
// reads — and is never handed to the record decoder.
func TestRecoverRefusesOtherFormatVersions(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, 1, 5, 8, journal.Options{})
	path := journal.Path(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != wire.Version {
		t.Fatalf("fresh journal carries version %d, want %d", v, wire.Version)
	}
	for _, old := range []uint32{1, 2} {
		binary.LittleEndian.PutUint32(data[8:], old)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = journal.Recover(dir, journal.RecoverOptions{})
		if want := fmt.Sprintf("format version %d, want 3", old); !errors.Is(err, wire.ErrVersion) || !strings.Contains(err.Error(), want) {
			t.Fatalf("Recover of a version-%d journal: err = %v, want wire.ErrVersion naming versions %d and 3", old, err, old)
		}
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

// failingFile fails every Write.
type failingFile struct{ journal.File }

func (failingFile) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestFailedCreateLeavesNothingBehind: a Create whose first write fails
// closes and removes the file it made, so the directory is empty and
// the corrected retry is not refused as mixing runs.
func TestFailedCreateLeavesNothingBehind(t *testing.T) {
	dir := t.TempDir()
	var opened journal.File
	_, err := journal.Create(journal.Options{Dir: dir, Threads: 1, OpenFile: func(name string) (journal.File, error) {
		f, err := journal.CreateFile(name)
		opened = f
		return failingFile{f}, err
	}})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Create over a failing file: err = %v, want the write error", err)
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("failed Create left %v behind (err %v)", left, err)
	}
	if err := opened.Close(); err == nil {
		t.Error("failed Create left its file handle open")
	}
	w, err := journal.Create(journal.Options{Dir: dir, Threads: 1})
	if err != nil {
		t.Fatalf("retry after a failed Create: %v", err)
	}
	if err := w.Seal(0); err != nil {
		t.Fatal(err)
	}
}

// syncCounter counts Sync calls through the OpenFile hook, on the file
// production journals to.
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
			f, err := journal.CreateFile(name)
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

// TestParsePolicy also pins the library's default: the zero Policy and
// the empty string (an unset inspector.Options.JournalFsync) are
// interval. inspector-run's -journal-fsync defaults to always
// (cmd/inspector-run's TestRunJournalFsyncDefaultsToAlways).
func TestParsePolicy(t *testing.T) {
	if (journal.Options{}).Fsync != journal.PolicyInterval {
		t.Errorf("the zero Options.Fsync is %v, want interval", (journal.Options{}).Fsync)
	}
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

// injectedOpts builds Options whose journal file, the one production
// journals to, runs through the fault injector's journal wrapper.
func injectedOpts(in *faultinject.Injector) journal.Options {
	return journal.Options{
		OpenFile: func(name string) (journal.File, error) {
			f, err := journal.CreateFile(name)
			if err != nil {
				return nil, err
			}
			return in.WrapJournalFile(f), nil
		},
	}
}

// recordWithFaults records steps through a faulty journal file and
// returns the recorder's latched error plus the live fold's .cpg bytes of
// the epochs journaled before it.
func recordWithFaults(t testing.TB, dir string, steps int, in *faultinject.Injector) (error, [][]byte) {
	t.Helper()
	opts := injectedOpts(in)
	opts.Dir, opts.Threads, opts.Fsync = dir, 1, journal.PolicyAlways
	w, err := journal.Create(opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	lr := newLiveRecording(t, 1, 11)
	var followed, live [][]byte
	rec, drv, seal := tracedRecorder(t, lr.g, w, &followed, &live)
	for s := 0; s < steps; s++ {
		lr.step(t)
		seal()
	}
	lr.finish(t)
	seal()
	closeErr := rec.Close()
	if err := drv.Close(); err != nil {
		t.Fatal(err)
	}
	// The follower stops with the writer: it saw exactly the clean
	// appends, each the live fold of its epoch.
	sameAsLive(t, followed, live)
	return closeErr, live[:len(followed)]
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
				if got, want := cpgtest.Bytes(t, rep.Analysis), cpgtest.Truncated(t, exports[rep.Epoch-1]); !bytes.Equal(got, want) {
					t.Fatal("recovery diverges from last clean epoch, cut short")
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
	if got, want := cpgtest.Bytes(t, rep.Analysis), cpgtest.Truncated(t, exports[rep.Epoch-1]); !bytes.Equal(got, want) {
		t.Fatal("recovery diverges from the last epoch before the flip, cut short")
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
	if got, want := cpgtest.Bytes(t, at.Analysis), exports[len(exports)-1]; !bytes.Equal(got, want) {
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

// TestWriterRefusesUseAfterSealOrClose: a finished writer fails every
// later Append or Seal with an error instead of writing to a closed file
// (an Append after Seal used to dereference a nil File), and the journal
// on disk is left as the first Seal or Close made it.
func TestWriterRefusesUseAfterSealOrClose(t *testing.T) {
	delta := func(w *journal.Writer) error { return w.Append(&core.EpochDelta{Epoch: 1, Lens: []int{0}}) }
	for _, c := range []struct {
		name   string
		finish func(w *journal.Writer) error
		then   func(w *journal.Writer) error
		want   string
		sealed bool
	}{
		{"append after seal", func(w *journal.Writer) error { return w.Seal(0) }, delta, "journal: writer sealed", true},
		{"seal twice", func(w *journal.Writer) error { return w.Seal(0) }, func(w *journal.Writer) error { return w.Seal(0) }, "journal: writer sealed", true},
		{"append after close", func(w *journal.Writer) error { return w.Close() }, delta, "journal: writer closed", false},
		{"seal after close", func(w *journal.Writer) error { return w.Close() }, func(w *journal.Writer) error { return w.Seal(0) }, "journal: writer closed", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := journal.Create(journal.Options{Dir: dir, Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.finish(w); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := c.then(w); err == nil || err.Error() != c.want {
					t.Fatalf("call %d on a finished writer = %v, want %q", i+1, err, c.want)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatalf("Close of a finished writer = %v, want nil", err)
			}
			rep, err := journal.Recover(dir, journal.RecoverOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Sealed != c.sealed || rep.Epoch != 0 || rep.Torn != nil {
				t.Fatalf("journal after misuse: sealed=%v epoch=%d torn=%v, want sealed=%v and untouched", rep.Sealed, rep.Epoch, rep.Torn, c.sealed)
			}
		})
	}
}
