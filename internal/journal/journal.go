// Package journal makes CPG recording crash-durable: a write-ahead
// epoch journal that appends one checksummed record per analysis epoch,
// so a SIGKILL, OOM kill, or power cut loses at most the epochs after
// the last durable record instead of the whole run.
//
// A journal is one file, journal.isj, in the directory it is given. It
// opens with an 8-byte magic and a little-endian uint32 format version,
// then carries the ingest stream's frame sequence (internal/wire): the
// run's hello (random run id, app, thread capacity, base epoch 1), one
// frame per epoch delta, and the seal on a clean close. A frame is
//
//	[uint32 payload length | uint32 CRC-32C of payload | payload]
//
// whose first payload byte is the record kind; the rest is the record's
// own binary form (format version 3: uvarint fields, see internal/wire
// and core.EpochDelta.AppendWire). A record refers to nothing outside
// itself, so records stay independently decodable and a torn tail never
// poisons the frames before it.
//
// A journal is a per-run crash artifact, written and recovered by the
// same build: Recover refuses a file of another format version by name
// with wire.ErrVersion (version 1 payloads were gob, version 2 spelled
// each thunk's index) rather than carrying a second reader for it.
//
// Epoch-delta payloads are core.EpochDelta values — exactly what
// core.Cutter.Cut emits. Recovery reads the file with the
// frame-stream applier an aggregator reads an ingest body with
// (recover.go), reproducing the recording's per-epoch Analyses byte for
// byte up to the last durable record; without the seal the result is
// marked degraded rather than passed off as complete.
//
// On Linux the file is appended through a shared mapping of it
// (CreateFile): a record is a copy into the file's page-cache pages, not
// a write(2). The mapping reserves the file a window at a time, so a
// journal cut off mid-run ends in the zeroed rest of its last window;
// Recover reads zeros that run to the end of the file as the clean end
// of the frames, and Close truncates them away, so a closed journal
// holds exactly its frames.
package journal

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/wire"
)

// DefaultSyncEvery is PolicyInterval's records-per-fsync.
const DefaultSyncEvery = 32

// fileName is the journal file's name in its directory.
const fileName = "journal.isj"

// Path returns the journal file's path in dir.
func Path(dir string) string { return filepath.Join(dir, fileName) }

// Policy selects when appended records are fsynced to stable storage.
type Policy uint8

// Fsync policies.
const (
	// PolicyInterval fsyncs every SyncEvery records and at seal —
	// bounded loss, amortized cost. The default.
	PolicyInterval Policy = iota
	// PolicyAlways fsyncs after every record: an epoch is durable
	// before the workload proceeds past it.
	PolicyAlways
	// PolicyNone never fsyncs; durability is whatever the OS page
	// cache provides. Process death (SIGKILL) still loses nothing —
	// dirty pages belong to the kernel, whether a write(2) or the
	// journal's shared mapping dirtied them — but a machine crash can.
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

// File is the handle a Writer appends to: CreateFile's by default.
// *os.File satisfies it; tests and the fault injector substitute
// wrappers via Options.OpenFile.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// Options configures a Writer.
type Options struct {
	// Dir is the journal directory (created if absent; must not
	// already hold a journal).
	Dir string
	// Threads is the recorded graph's thread-slot capacity (required,
	// at most wire.MaxThreads).
	Threads int
	// RunID overrides the generated run identity (tests).
	RunID string
	// App names the workload (informational, lands in the hello).
	App string
	// Fsync is the durability policy.
	Fsync Policy
	// SyncEvery is PolicyInterval's records-per-fsync (default
	// DefaultSyncEvery).
	SyncEvery int
	// OpenFile creates the journal file; the default is CreateFile.
	// Tests and the fault injector interpose here.
	OpenFile func(name string) (File, error)
}

// errSealed and errClosed latch a finished writer, so an Append or Seal
// after Seal or Close fails instead of touching a closed file.
var (
	errSealed = errors.New("journal: writer sealed")
	errClosed = errors.New("journal: writer closed")
)

// Writer appends epoch deltas to a journal. Methods are not
// goroutine-safe; the Recorder serializes access. The first write or
// sync error latches: every later call returns it and nothing more
// touches the file, so a torn record is the *last* thing in the
// journal, never the middle.
type Writer struct {
	opts      Options
	f         File
	sinceSync int
	epoch     uint64
	err       error
	buf       []byte
}

// Create opens a fresh journal in opts.Dir and writes its preamble and
// the run's hello. A Create that fails leaves no file behind.
func Create(opts Options) (*Writer, error) {
	if opts.Threads < 1 || opts.Threads > wire.MaxThreads {
		// Recover would refuse the hello: no run writes a journal it
		// cannot recover.
		return nil, fmt.Errorf("journal: Threads %d out of range [1,%d]", opts.Threads, wire.MaxThreads)
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	if opts.OpenFile == nil {
		opts.OpenFile = CreateFile
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
	if _, err := os.Lstat(Path(opts.Dir)); err == nil {
		return nil, fmt.Errorf("journal: %s already holds a journal; refusing to mix runs", opts.Dir)
	}
	f, err := opts.OpenFile(Path(opts.Dir))
	if err != nil {
		return nil, fmt.Errorf("journal: create: %w", err)
	}
	w := &Writer{opts: opts, f: f}
	if _, err := f.Write(wire.Preamble()); err != nil {
		w.err = fmt.Errorf("journal: preamble: %w", err)
	} else {
		w.appendRecord(wire.KindHeader, wire.Hello{RunID: opts.RunID, App: opts.App, Threads: opts.Threads, BaseEpoch: 1})
	}
	if w.err != nil {
		return nil, errors.Join(w.err, w.Discard())
	}
	return w, nil
}

// RunID returns the journal's run identity.
func (w *Writer) RunID() string { return w.opts.RunID }

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
		w.err = fmt.Errorf("journal: append: %w", err)
		return w.err
	}
	return nil
}

// Append journals one epoch delta, applying the fsync policy as
// configured.
func (w *Writer) Append(d *core.EpochDelta) error {
	if err := w.appendRecord(wire.KindDelta, d); err != nil {
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

// sync fsyncs the journal file.
func (w *Writer) sync() error {
	if w.err != nil {
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("journal: fsync: %w", err)
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
	if err := w.appendRecord(wire.KindSeal, wire.Seal{FinalEpoch: finalEpoch}); err != nil {
		return err
	}
	if w.opts.Fsync != PolicyNone {
		if err := w.sync(); err != nil {
			return err
		}
	}
	if err := w.f.Close(); err != nil {
		w.err = fmt.Errorf("journal: close: %w", err)
		return w.err
	}
	w.f, w.err = nil, errSealed
	return nil
}

// Close closes the journal without sealing it (the error path: the
// journal reads as cut short, which is the truth). Best-effort sync
// first; a latched error is returned but does not block the close.
// Closing a sealed or closed writer returns nil.
func (w *Writer) Close() error {
	if w.f != nil {
		if w.err == nil && w.opts.Fsync != PolicyNone {
			w.sync()
		}
		if err := w.f.Close(); err != nil && w.err == nil {
			w.err = fmt.Errorf("journal: close: %w", err)
		}
		w.f = nil
		if w.err == nil {
			w.err = errClosed
		}
	}
	if w.err == errSealed || w.err == errClosed {
		return nil
	}
	return w.err
}

// Discard undoes Create for an assembly that fails before recording
// starts: it closes the journal and deletes its file, so the directory
// accepts a fresh Create.
func (w *Writer) Discard() error {
	w.Close() // its error is about bytes the Remove deletes
	return os.Remove(Path(w.opts.Dir))
}
