// Package faultinject provides deterministic, schedule-driven fault
// injection for the recording and serving pipeline. A Schedule names
// fault points and counter-based firing rules; an Injector executes it
// with no wall-clock or global-randomness dependence, so a fixed
// schedule reproduces the exact same fault sequence run after run — the
// property the chaos suite's determinism invariants build on.
//
// Faults are wired behind interfaces the pipeline already has:
//
//   - WrapSink interposes on pt.ByteSink, truncating accepted writes
//     exactly as an overrunning AUX ring does, so injected loss flows
//     through the same LostBytes accounting as genuine loss;
//   - WrapWriter fails io.Writer writes (export sinks);
//   - Fire is the generic hook for call-site faults (workload panics at
//     commit boundaries, slowed analysis folds).
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/repro/inspector/internal/pt"
)

// Point names one fault-injection site.
type Point string

// Fault points the pipeline exposes.
const (
	// AuxLoss truncates PT sink writes (AUX ring overrun semantics).
	AuxLoss Point = "aux-loss"
	// SinkError fails writes on a wrapped io.Writer.
	SinkError Point = "sink-error"
	// WorkloadPanic panics on the recording thread at a commit boundary.
	WorkloadPanic Point = "panic"
	// SlowFold delays a live analysis fold. It fires inside the fold's
	// data-edge derivation workers (one hit per worker per fold), so a
	// parallel fold can stall on any subset of its workers.
	SlowFold Point = "slow-fold"
	// Crash SIGKILLs the process at a commit boundary (inspector-run
	// wires it behind -faults; the kill-recover chaos sweep drives it).
	Crash Point = "crash"
	// JournalTorn cuts a journal frame write in half and fails it — the
	// classic torn record a mid-write crash leaves.
	JournalTorn Point = "journal-torn"
	// JournalShortPrefix cuts a journal frame write inside its 8-byte
	// length/CRC prefix, the smallest possible tear.
	JournalShortPrefix Point = "journal-short-prefix"
	// JournalBitFlip flips one byte mid-frame but reports the write as
	// fully successful — silent media corruption a CRC must catch.
	JournalBitFlip Point = "journal-bit-flip"
	// JournalFsyncError fails a journal segment fsync.
	JournalFsyncError Point = "journal-fsync-error"
	// CPGFileTorn cuts a columnar CPG file write in half and fails it —
	// the truncated artifact a crash mid-export leaves behind.
	CPGFileTorn Point = "cpgfile-torn"
	// CPGFileBitFlip flips one byte mid-write but reports full success —
	// silent media corruption the section CRCs must catch on read.
	CPGFileBitFlip Point = "cpgfile-bit-flip"
)

// Points lists every defined fault point. The network points stay at
// the end: Randomized draws per point in this order, so appending keeps
// every existing seed's schedule for the older points unchanged.
func Points() []Point {
	return []Point{
		AuxLoss, SinkError, WorkloadPanic, SlowFold,
		Crash, JournalTorn, JournalShortPrefix, JournalBitFlip, JournalFsyncError,
		CPGFileTorn, CPGFileBitFlip,
		NetDisconnect, NetDuplicate, NetReorder, NetSlow,
	}
}

// ErrInjected tags failures produced by injected faults.
var ErrInjected = errors.New("faultinject: injected fault")

// Rule fires faults at one point on a deterministic hit counter: skip
// the first After hits, then fire every Every-th hit (Every 0 or 1 means
// every hit), at most Count times (0 = unlimited).
type Rule struct {
	Point Point
	After uint64
	Every uint64
	Count uint64
}

// String renders the rule in schedule-spec form.
func (r Rule) String() string {
	parts := []string{}
	if r.After > 0 {
		parts = append(parts, "after="+strconv.FormatUint(r.After, 10))
	}
	if r.Every > 1 {
		parts = append(parts, "every="+strconv.FormatUint(r.Every, 10))
	}
	if r.Count > 0 {
		parts = append(parts, "count="+strconv.FormatUint(r.Count, 10))
	}
	if len(parts) == 0 {
		return string(r.Point)
	}
	return string(r.Point) + ":" + strings.Join(parts, ",")
}

// Schedule is a full fault plan: one or more rules.
type Schedule struct {
	Rules []Rule
}

// String renders the schedule in the spec form Parse accepts.
func (s Schedule) String() string {
	parts := make([]string, len(s.Rules))
	for i, r := range s.Rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, ";")
}

// Parse reads a schedule spec: semicolon-separated rules of the form
//
//	<point>[:after=N][,every=N][,count=N]
//
// e.g. "aux-loss:after=20,every=7;panic:after=500,count=1". An empty
// spec is the empty (fault-free) schedule.
func Parse(spec string) (Schedule, error) {
	var s Schedule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, argstr, _ := strings.Cut(part, ":")
		r := Rule{Point: Point(strings.TrimSpace(name))}
		if !validPoint(r.Point) {
			return Schedule{}, fmt.Errorf("faultinject: unknown fault point %q (have %v)", name, Points())
		}
		if argstr != "" {
			for _, arg := range strings.Split(argstr, ",") {
				key, val, ok := strings.Cut(strings.TrimSpace(arg), "=")
				if !ok {
					return Schedule{}, fmt.Errorf("faultinject: bad rule argument %q in %q", arg, part)
				}
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					return Schedule{}, fmt.Errorf("faultinject: bad value in %q: %w", part, err)
				}
				switch key {
				case "after":
					r.After = n
				case "every":
					r.Every = n
				case "count":
					r.Count = n
				default:
					return Schedule{}, fmt.Errorf("faultinject: unknown rule key %q in %q", key, part)
				}
			}
		}
		s.Rules = append(s.Rules, r)
	}
	return s, nil
}

func validPoint(p Point) bool {
	for _, known := range Points() {
		if p == known {
			return true
		}
	}
	return false
}

// Randomized derives a schedule from a seed over the given points (all
// defined points if none given). Derivation uses its own PRNG instance,
// so equal seeds always yield equal schedules — the chaos suite sweeps
// seeds and replays any failure by seed alone. Roughly half the points
// get a rule; rule parameters are drawn small enough to actually fire
// inside short test workloads.
func Randomized(seed int64, points ...Point) Schedule {
	if len(points) == 0 {
		points = Points()
	}
	rng := rand.New(rand.NewSource(seed))
	var s Schedule
	for _, p := range points {
		if rng.Intn(2) == 0 {
			continue
		}
		s.Rules = append(s.Rules, Rule{
			Point: p,
			After: uint64(rng.Intn(50)),
			Every: uint64(1 + rng.Intn(8)),
			Count: uint64(rng.Intn(4)), // 0 = unlimited
		})
	}
	return s
}

// ruleState is one rule's live counters.
type ruleState struct {
	rule  Rule
	hits  uint64
	fired uint64
}

// fire advances the hit counter and reports whether this hit faults.
func (st *ruleState) fire() bool {
	st.hits++
	if st.hits <= st.rule.After {
		return false
	}
	if st.rule.Count > 0 && st.fired >= st.rule.Count {
		return false
	}
	every := st.rule.Every
	if every == 0 {
		every = 1
	}
	if (st.hits-st.rule.After-1)%every != 0 {
		return false
	}
	st.fired++
	return true
}

// Injector executes one Schedule. Safe for concurrent use: recording
// threads, the serving path, and test assertions may all hit it.
type Injector struct {
	mu      sync.Mutex
	rules   map[Point][]*ruleState
	dropped uint64
}

// New builds an injector for the schedule.
func New(s Schedule) *Injector {
	in := &Injector{rules: make(map[Point][]*ruleState)}
	for _, r := range s.Rules {
		in.rules[r.Point] = append(in.rules[r.Point], &ruleState{rule: r})
	}
	return in
}

// Fire counts one hit at point p and reports whether a fault fires.
// Call sites decide what the fault means (truncate, error, panic,
// sleep); the injector only sequences them deterministically.
func (in *Injector) Fire(p Point) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	hit := false
	for _, st := range in.rules[p] {
		if st.fire() {
			hit = true
		}
	}
	return hit
}

// Fired returns how many faults have fired at point p.
func (in *Injector) Fired(p Point) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var n uint64
	for _, st := range in.rules[p] {
		n += st.fired
	}
	return n
}

// DroppedBytes returns the trace bytes the lossy sink wrapper dropped.
func (in *Injector) DroppedBytes() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.dropped
}

// Summary renders the fired counters, points sorted, for reports:
// "aux-loss=3 panic=1" ("" when nothing fired).
func (in *Injector) Summary() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	totals := map[Point]uint64{}
	for p, states := range in.rules {
		for _, st := range states {
			totals[p] += st.fired
		}
	}
	var keys []string
	for p, n := range totals {
		if n > 0 {
			keys = append(keys, fmt.Sprintf("%s=%d", p, n))
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// WrapSink interposes the aux-loss point on a PT byte sink. When the
// point fires, only half the buffered bytes are offered to the inner
// sink — a partial accept, byte-for-byte the contract of an overrunning
// AUX ring — so the encoder's LostBytes accounting and everything above
// it see injected loss exactly as genuine loss.
func (in *Injector) WrapSink(inner pt.ByteSink) pt.ByteSink {
	return &lossySink{inner: inner, in: in}
}

type lossySink struct {
	inner pt.ByteSink
	in    *Injector
}

// WriteTrace implements pt.ByteSink.
func (s *lossySink) WriteTrace(b []byte) int {
	if !s.in.Fire(AuxLoss) {
		return s.inner.WriteTrace(b)
	}
	keep := len(b) / 2
	n := s.inner.WriteTrace(b[:keep])
	s.in.mu.Lock()
	s.in.dropped += uint64(len(b) - n)
	s.in.mu.Unlock()
	return n
}

// WrapWriter interposes the sink-error point on an io.Writer: when the
// point fires, the write fails with an error wrapping ErrInjected.
func (in *Injector) WrapWriter(w io.Writer) io.Writer {
	return &failingWriter{inner: w, in: in}
}

type failingWriter struct {
	inner io.Writer
	in    *Injector
}

func (f *failingWriter) Write(b []byte) (int, error) {
	if f.in.Fire(SinkError) {
		return 0, fmt.Errorf("%w: sink write error", ErrInjected)
	}
	return f.inner.Write(b)
}

// WrapJournalFile interposes the journal crash points on a journal
// segment file. The Writer issues each record as one Write call, so
// the wrappers model real crash shapes precisely:
//
//   - journal-torn: write half the frame, then fail (a crash mid-write
//     leaves a prefix whose CRC cannot match);
//   - journal-short-prefix: write at most 3 bytes — the tear lands
//     inside the frame's own length/CRC prefix;
//   - journal-bit-flip: flip one byte mid-frame and report full
//     success (the writer never learns; only recovery's CRC can);
//   - journal-fsync-error: fail Sync.
func (in *Injector) WrapJournalFile(inner journalFile) journalFile {
	return &faultyJournalFile{inner: inner, in: in}
}

// journalFile mirrors journal.File structurally, so this package stays
// a leaf (no import of internal/journal) while wrappers still satisfy
// the journal's Options.OpenFile hook.
type journalFile interface {
	io.Writer
	Sync() error
	Close() error
}

type faultyJournalFile struct {
	inner journalFile
	in    *Injector
}

func (f *faultyJournalFile) Write(b []byte) (int, error) {
	switch {
	case f.in.Fire(JournalShortPrefix):
		keep := min(3, len(b))
		n, _ := f.inner.Write(b[:keep])
		return n, fmt.Errorf("%w: journal write torn inside frame prefix", ErrInjected)
	case f.in.Fire(JournalTorn):
		n, _ := f.inner.Write(b[:len(b)/2])
		return n, fmt.Errorf("%w: journal write torn mid-record", ErrInjected)
	case len(b) > 0 && f.in.Fire(JournalBitFlip):
		flipped := append([]byte(nil), b...)
		flipped[len(flipped)/2] ^= 0x10
		if n, err := f.inner.Write(flipped); err != nil {
			return n, err
		}
		return len(b), nil
	}
	return f.inner.Write(b)
}

func (f *faultyJournalFile) Sync() error {
	if f.in.Fire(JournalFsyncError) {
		return fmt.Errorf("%w: journal fsync error", ErrInjected)
	}
	return f.inner.Sync()
}

func (f *faultyJournalFile) Close() error { return f.inner.Close() }

// WrapCPGFile interposes the columnar-CPG crash points on an export
// writer:
//
//   - cpgfile-torn: write half the chunk, then fail (a crash mid-export;
//     with atomicio the temp file is discarded, without it a truncated
//     artifact survives and the header/section parse must reject it);
//   - cpgfile-bit-flip: flip one byte mid-chunk and report full success
//     (the writer never learns; only a section CRC can).
func (in *Injector) WrapCPGFile(w io.Writer) io.Writer {
	return &faultyCPGWriter{inner: w, in: in}
}

type faultyCPGWriter struct {
	inner io.Writer
	in    *Injector
}

func (f *faultyCPGWriter) Write(b []byte) (int, error) {
	switch {
	case f.in.Fire(CPGFileTorn):
		n, _ := f.inner.Write(b[:len(b)/2])
		return n, fmt.Errorf("%w: cpg file write torn mid-chunk", ErrInjected)
	case len(b) > 0 && f.in.Fire(CPGFileBitFlip):
		flipped := append([]byte(nil), b...)
		flipped[len(flipped)/2] ^= 0x04
		if n, err := f.inner.Write(flipped); err != nil {
			return n, err
		}
		return len(b), nil
	}
	return f.inner.Write(b)
}
