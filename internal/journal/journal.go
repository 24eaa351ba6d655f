// Package journal makes CPG recording crash-durable: a write-ahead
// epoch journal that appends one checksummed record per analysis epoch,
// so a SIGKILL, OOM kill, or power cut loses at most the epochs after
// the last durable record instead of the whole run.
//
// A journal is a directory of segment files (journal-000001.isj,
// journal-000002.isj, ...). Each segment starts with an 8-byte magic
// and a little-endian uint32 format version, followed by a sequence of
// frames:
//
//	[uint32 payload length | uint32 CRC-32C of payload | payload]
//
// The payload's first byte is the record kind (header, epoch delta,
// seal); the rest is the record's own binary form (format version 2:
// uvarint fields, see internal/wire and core.EpochDelta.AppendWire).
// A record refers to nothing outside itself, so records stay
// independently decodable and a torn tail never poisons the frames
// before it. The first frame of every segment is a header naming the
// run (random run id, app, thread capacity, segment sequence number,
// first epoch), so recovery detects mixed, reordered, or missing
// segments instead of splicing unrelated runs together.
//
// A journal is a per-run crash artifact, written and recovered by the
// same build: Recover refuses a segment of another format version by
// name (version 1 payloads were gob) rather than carrying a second
// reader for it.
//
// Epoch-delta payloads are core.EpochDelta values — exactly what
// IncrementalAnalyzer.FoldDelta emits — and recovery replays them
// through core.ApplyDelta + Fold, reproducing the recording's per-epoch
// Analyses byte-for-byte up to the last durable record (see
// delta_test.go in internal/core for the property). A clean close
// appends a seal record; its absence tells recovery the run was cut
// short, and the result is marked degraded with a truncated gap rather
// than passed off as complete.
package journal

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/wire"
)

// The frame codec (length/CRC framing, record kinds, segment preamble)
// lives in internal/wire, shared with the network ingest stream. The
// journal keeps local aliases for readability.
const (
	recHeader = wire.KindHeader
	recDelta  = wire.KindDelta
	recSeal   = wire.KindSeal

	frameOverhead = wire.FrameOverhead

	// DefaultSegmentBytes is the segment roll threshold.
	DefaultSegmentBytes = 64 << 20
	// DefaultSyncEvery is PolicyInterval's records-per-fsync.
	DefaultSyncEvery = 32
)

// Policy selects when appended records are fsynced to stable storage.
type Policy uint8

// Fsync policies.
const (
	// PolicyInterval fsyncs every SyncEvery records, at segment rolls,
	// and at seal — bounded loss, amortized cost. The default.
	PolicyInterval Policy = iota
	// PolicyAlways fsyncs after every record: an epoch is durable
	// before the workload proceeds past it.
	PolicyAlways
	// PolicyNone never fsyncs; durability is whatever the OS page
	// cache provides. Process death (SIGKILL) still loses nothing —
	// dirty pages belong to the kernel — but a machine crash can.
	PolicyNone
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyNone:
		return "none"
	default:
		return "interval"
	}
}

// ParsePolicy parses "always", "none", "interval", or "interval:N"
// (fsync every N records). The returned every is 0 unless the
// interval:N form was used.
func ParsePolicy(s string) (p Policy, every int, err error) {
	switch {
	case s == "always":
		return PolicyAlways, 0, nil
	case s == "none":
		return PolicyNone, 0, nil
	case s == "interval" || s == "":
		return PolicyInterval, 0, nil
	case strings.HasPrefix(s, "interval:"):
		every, err := strconv.Atoi(strings.TrimPrefix(s, "interval:"))
		if err != nil || every < 1 {
			return 0, 0, fmt.Errorf("journal: bad fsync interval %q", s)
		}
		return PolicyInterval, every, nil
	}
	return 0, 0, fmt.Errorf("journal: unknown fsync policy %q (want always, interval[:N], none)", s)
}

// File is the handle a Writer appends to. *os.File satisfies it; tests
// and the fault injector substitute wrappers via Options.OpenFile.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// Header is the first record of every segment.
type Header struct {
	// RunID ties a run's segments together (random hex unless the
	// caller pins one).
	RunID string
	// App names the recorded workload (informational).
	App string
	// Threads is the graph's thread-slot capacity; recovery rebuilds
	// the graph with it.
	Threads int
	// Segment is this file's 1-based sequence number.
	Segment uint64
	// BaseEpoch is the first epoch this segment records (the previous
	// segments' record count plus one).
	BaseEpoch uint64
}

// AppendWire appends the header's binary form (a wire.AppendFrame
// payload): RunID, App, Threads, Segment, BaseEpoch.
func (h *Header) AppendWire(b []byte) ([]byte, error) {
	b = wire.AppendString(b, h.RunID)
	b = wire.AppendString(b, h.App)
	b = binary.AppendUvarint(b, uint64(h.Threads))
	b = binary.AppendUvarint(b, h.Segment)
	return binary.AppendUvarint(b, h.BaseEpoch), nil
}

// ParseWire reads the AppendWire form.
func (h *Header) ParseWire(body []byte) error {
	c := wire.NewCursor(body)
	*h = Header{
		RunID:     c.String("header.run_id"),
		App:       c.String("header.app"),
		Threads:   c.Int("header.threads"),
		Segment:   c.Uvarint("header.segment"),
		BaseEpoch: c.Uvarint("header.base_epoch"),
	}
	return c.Done()
}

// Options configures a Writer.
type Options struct {
	// Dir is the journal directory (created if absent; must not
	// already contain journal segments).
	Dir string
	// Threads is the recorded graph's thread-slot capacity (required).
	Threads int
	// RunID overrides the generated run identity (tests).
	RunID string
	// App names the workload (informational, lands in headers).
	App string
	// Fsync is the durability policy.
	Fsync Policy
	// SyncEvery is PolicyInterval's records-per-fsync (default
	// DefaultSyncEvery).
	SyncEvery int
	// SegmentBytes rolls segments at this size (default
	// DefaultSegmentBytes).
	SegmentBytes int64
	// OpenFile creates segment files; the default is an exclusive
	// os.OpenFile. Tests and the fault injector interpose here.
	OpenFile func(name string) (File, error)
}

// segName returns the path of segment seq under dir.
func segName(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%06d.isj", seq))
}

// Writer appends epoch deltas to a journal. Methods are not
// goroutine-safe; the Recorder serializes access. The first write or
// sync error latches: every later call returns it and nothing more
// touches the file, so a torn record is the *last* thing in the
// journal, never the middle.
type Writer struct {
	opts      Options
	f         File
	seg       uint64
	segBytes  int64
	sinceSync int
	epoch     uint64
	err       error
	buf       []byte
}

// Create opens a fresh journal in opts.Dir and writes segment 1's
// header.
func Create(opts Options) (*Writer, error) {
	if opts.Threads < 1 {
		return nil, fmt.Errorf("journal: Threads must be positive, got %d", opts.Threads)
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	if opts.OpenFile == nil {
		opts.OpenFile = func(name string) (File, error) {
			return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		}
	}
	if opts.RunID == "" {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return nil, fmt.Errorf("journal: run id: %w", err)
		}
		opts.RunID = hex.EncodeToString(b[:])
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if segs, err := listSegments(opts.Dir); err != nil {
		return nil, err
	} else if len(segs) > 0 {
		return nil, fmt.Errorf("journal: %s already contains %d segment(s); refusing to mix runs", opts.Dir, len(segs))
	}
	w := &Writer{opts: opts}
	if err := w.openSegment(1, 1); err != nil {
		return nil, err
	}
	return w, nil
}

// RunID returns the journal's run identity.
func (w *Writer) RunID() string { return w.opts.RunID }

// openSegment creates segment seq and writes magic, version, and the
// header record.
func (w *Writer) openSegment(seq, baseEpoch uint64) error {
	f, err := w.opts.OpenFile(segName(w.opts.Dir, seq))
	if err != nil {
		w.err = fmt.Errorf("journal: open segment %d: %w", seq, err)
		return w.err
	}
	w.f, w.seg, w.segBytes, w.sinceSync = f, seq, 0, 0
	pre := wire.Preamble()
	if _, err := f.Write(pre); err != nil {
		w.err = fmt.Errorf("journal: segment %d preamble: %w", seq, err)
		return w.err
	}
	w.segBytes += int64(len(pre))
	return w.appendRecord(recHeader, &Header{
		RunID:     w.opts.RunID,
		App:       w.opts.App,
		Threads:   w.opts.Threads,
		Segment:   seq,
		BaseEpoch: baseEpoch,
	})
}

// appendRecord frames and writes one record via the shared codec, then
// issues the whole frame as a single Write (so an injected short write
// models a torn record, not interleaved garbage).
func (w *Writer) appendRecord(kind byte, payload any) error {
	if w.err != nil {
		return w.err
	}
	buf, err := wire.AppendFrame(w.buf[:0], kind, payload)
	if err != nil {
		w.err = fmt.Errorf("journal: %w", err)
		return w.err
	}
	w.buf = buf
	if _, err := w.f.Write(w.buf); err != nil {
		w.err = fmt.Errorf("journal: segment %d append: %w", w.seg, err)
		return w.err
	}
	w.segBytes += int64(len(w.buf))
	return nil
}

// Append journals one epoch delta, rolling the segment and applying the
// fsync policy as configured.
func (w *Writer) Append(d *core.EpochDelta) error {
	if w.err != nil {
		return w.err
	}
	// Roll before the append when the segment has content and this
	// record would cross the threshold. The estimate uses the previous
	// record sizes only through segBytes; an oversized single record
	// simply lands in its own segment.
	if w.segBytes >= w.opts.SegmentBytes {
		if err := w.roll(d.Epoch); err != nil {
			return err
		}
	}
	if err := w.appendRecord(recDelta, d); err != nil {
		return err
	}
	w.epoch = d.Epoch
	w.sinceSync++
	switch w.opts.Fsync {
	case PolicyAlways:
		return w.sync()
	case PolicyInterval:
		if w.sinceSync >= w.opts.SyncEvery {
			return w.sync()
		}
	}
	return nil
}

// roll syncs and closes the current segment and opens the next.
func (w *Writer) roll(baseEpoch uint64) error {
	if w.opts.Fsync != PolicyNone {
		if err := w.sync(); err != nil {
			return err
		}
	}
	if err := w.f.Close(); err != nil {
		w.err = fmt.Errorf("journal: segment %d close: %w", w.seg, err)
		return w.err
	}
	return w.openSegment(w.seg+1, baseEpoch)
}

// sync fsyncs the current segment.
func (w *Writer) sync() error {
	if w.err != nil {
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("journal: segment %d fsync: %w", w.seg, err)
		return w.err
	}
	w.sinceSync = 0
	return nil
}

// Seal appends the clean-close record, makes the journal durable
// (subject to PolicyNone), and closes it. finalEpoch must be the last
// appended delta's epoch; recovery cross-checks it.
func (w *Writer) Seal(finalEpoch uint64) error {
	if w.err != nil {
		return w.err
	}
	if finalEpoch != w.epoch {
		w.err = fmt.Errorf("journal: seal epoch %d, last appended %d", finalEpoch, w.epoch)
		return w.err
	}
	if err := w.appendRecord(recSeal, wire.Seal{FinalEpoch: finalEpoch}); err != nil {
		return err
	}
	if w.opts.Fsync != PolicyNone {
		if err := w.sync(); err != nil {
			return err
		}
	}
	if err := w.f.Close(); err != nil {
		w.err = fmt.Errorf("journal: segment %d close: %w", w.seg, err)
		return w.err
	}
	w.f = nil
	return nil
}

// Close closes the journal without sealing it (the error path: the
// journal reads as cut short, which is the truth). Best-effort sync
// first; a latched error is returned but does not block the close.
func (w *Writer) Close() error {
	if w.f == nil {
		return w.err
	}
	if w.err == nil && w.opts.Fsync != PolicyNone {
		w.sync()
	}
	if err := w.f.Close(); err != nil && w.err == nil {
		w.err = fmt.Errorf("journal: segment %d close: %w", w.seg, err)
	}
	w.f = nil
	return w.err
}

// Discard undoes Create for an assembly that fails before recording
// starts: it closes the journal and deletes its segment, so the
// directory accepts a fresh Create.
func (w *Writer) Discard() error {
	w.Close() // its error is about bytes the Remove deletes
	return os.Remove(segName(w.opts.Dir, w.seg))
}
