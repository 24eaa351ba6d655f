package faultinject

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	spec := "aux-loss:after=20,every=7;panic:after=500,count=1;slow-fold"
	s, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rules) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(s.Rules))
	}
	if got := s.Rules[0]; got != (Rule{Point: AuxLoss, After: 20, Every: 7}) {
		t.Errorf("rule 0 = %+v", got)
	}
	if got := s.Rules[1]; got != (Rule{Point: WorkloadPanic, After: 500, Count: 1}) {
		t.Errorf("rule 1 = %+v", got)
	}
	reparsed, err := Parse(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if reparsed.String() != s.String() {
		t.Errorf("spec does not round-trip: %q vs %q", reparsed.String(), s.String())
	}
}

func TestParseRejectsUnknown(t *testing.T) {
	for _, spec := range []string{"warp-core-breach", "sink-error", "aux-loss:frequency=3", "aux-loss:after"} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestEmptyScheduleNeverFires(t *testing.T) {
	in := New(Schedule{})
	for i := 0; i < 1000; i++ {
		for _, p := range Points() {
			if in.Fire(p) {
				t.Fatalf("empty schedule fired at %s", p)
			}
		}
	}
}

func TestRuleCounters(t *testing.T) {
	in := New(Schedule{Rules: []Rule{{Point: AuxLoss, After: 3, Every: 2, Count: 2}}})
	var fires []int
	for i := 1; i <= 12; i++ {
		if in.Fire(AuxLoss) {
			fires = append(fires, i)
		}
	}
	// Skip 3 hits, then every 2nd, at most twice: hits 4 and 6.
	if len(fires) != 2 || fires[0] != 4 || fires[1] != 6 {
		t.Errorf("fired at hits %v, want [4 6]", fires)
	}
	if in.Fired(AuxLoss) != 2 {
		t.Errorf("Fired = %d, want 2", in.Fired(AuxLoss))
	}
}

func TestRandomizedDeterministicBySeed(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a, b := Randomized(seed), Randomized(seed)
		if a.String() != b.String() {
			t.Fatalf("seed %d yields differing schedules: %q vs %q", seed, a, b)
		}
	}
	// Some pair of seeds must differ, or the derivation is broken.
	distinct := map[string]bool{}
	for seed := int64(0); seed < 20; seed++ {
		distinct[Randomized(seed).String()] = true
	}
	if len(distinct) < 2 {
		t.Error("20 seeds yielded a single schedule")
	}
}

type countingSink struct{ accepted int }

func (c *countingSink) WriteTrace(b []byte) int { c.accepted += len(b); return len(b) }

func TestWrapSinkTruncates(t *testing.T) {
	inner := &countingSink{}
	in := New(Schedule{Rules: []Rule{{Point: AuxLoss, Every: 2}}})
	sink := in.WrapSink(inner)
	buf := make([]byte, 10)
	// Hit 1 fires (After 0, every 2nd starting at the first eligible):
	// only half is offered; hit 2 passes through.
	if n := sink.WriteTrace(buf); n != 5 {
		t.Errorf("faulted write accepted %d, want 5", n)
	}
	if n := sink.WriteTrace(buf); n != 10 {
		t.Errorf("clean write accepted %d, want 10", n)
	}
	if in.DroppedBytes() != 5 {
		t.Errorf("DroppedBytes = %d, want 5", in.DroppedBytes())
	}
}

func TestSummary(t *testing.T) {
	in := New(Schedule{Rules: []Rule{{Point: AuxLoss}, {Point: WorkloadPanic, Count: 1}}})
	in.Fire(AuxLoss)
	in.Fire(AuxLoss)
	in.Fire(WorkloadPanic)
	if got := in.Summary(); got != "aux-loss=2 panic=1" {
		t.Errorf("Summary = %q", got)
	}
}

func TestParseJournalPoints(t *testing.T) {
	s, err := Parse("crash:after=4,count=1;journal-torn;journal-short-prefix;journal-bit-flip:every=3;journal-fsync-error")
	if err != nil {
		t.Fatal(err)
	}
	want := []Point{Crash, JournalTorn, JournalShortPrefix, JournalBitFlip, JournalFsyncError}
	if len(s.Rules) != len(want) {
		t.Fatalf("parsed %d rules, want %d", len(s.Rules), len(want))
	}
	for i, p := range want {
		if s.Rules[i].Point != p {
			t.Errorf("rule %d point = %s, want %s", i, s.Rules[i].Point, p)
		}
	}
}

func TestWrapJournalFileTorn(t *testing.T) {
	var out bytes.Buffer
	in := New(Schedule{Rules: []Rule{{Point: JournalTorn, After: 1, Count: 1}}})
	f := in.WrapJournalFile(nopJournalFile{&out})
	frame := []byte("0123456789abcdef")
	if n, err := f.Write(frame); err != nil || n != len(frame) {
		t.Fatalf("clean write = %d,%v", n, err)
	}
	n, err := f.Write(frame)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write error = %v, want ErrInjected", err)
	}
	if n != len(frame)/2 {
		t.Errorf("torn write persisted %d bytes, want %d", n, len(frame)/2)
	}
	if out.Len() != len(frame)+len(frame)/2 {
		t.Errorf("inner file holds %d bytes, want %d", out.Len(), len(frame)+len(frame)/2)
	}
}

func TestWrapJournalFileShortPrefix(t *testing.T) {
	var out bytes.Buffer
	in := New(Schedule{Rules: []Rule{{Point: JournalShortPrefix, Count: 1}}})
	f := in.WrapJournalFile(nopJournalFile{&out})
	n, err := f.Write([]byte("0123456789abcdef"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("short-prefix write error = %v, want ErrInjected", err)
	}
	if n != 3 || out.Len() != 3 {
		t.Errorf("persisted %d bytes (inner %d), want 3", n, out.Len())
	}
}

func TestWrapJournalFileBitFlip(t *testing.T) {
	var out bytes.Buffer
	in := New(Schedule{Rules: []Rule{{Point: JournalBitFlip, Count: 1}}})
	f := in.WrapJournalFile(nopJournalFile{&out})
	frame := []byte("0123456789abcdef")
	n, err := f.Write(frame)
	if err != nil || n != len(frame) {
		t.Fatalf("bit-flip write = %d,%v; the writer must not notice", n, err)
	}
	if bytes.Equal(out.Bytes(), frame) {
		t.Error("no byte was flipped")
	}
	diff := 0
	for i := range frame {
		if out.Bytes()[i] != frame[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("%d bytes differ, want exactly 1", diff)
	}
	if !bytes.Equal(frame, []byte("0123456789abcdef")) {
		t.Error("caller's buffer was mutated")
	}
}

func TestWrapJournalFileFsyncError(t *testing.T) {
	in := New(Schedule{Rules: []Rule{{Point: JournalFsyncError, After: 1, Count: 1}}})
	f := in.WrapJournalFile(nopJournalFile{io.Discard})
	if err := f.Sync(); err != nil {
		t.Fatalf("clean sync: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync error = %v, want ErrInjected", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// nopJournalFile adapts a plain io.Writer to the journal file shape.
type nopJournalFile struct{ w io.Writer }

func (n nopJournalFile) Write(b []byte) (int, error) { return n.w.Write(b) }
func (n nopJournalFile) Sync() error                 { return nil }
func (n nopJournalFile) Close() error                { return nil }
