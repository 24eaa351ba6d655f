package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/wire"
)

// Recovery semantics: journal.isj after its preamble is a frame
// stream, read by the applier the aggregator reads an ingest body with
// (epoch.Replayer.Apply); recovery is its file transport. It replays
// everything durable and stops at the first frame the file cannot
// deliver or the applier refuses — a bad CRC, a short read, a repeated
// or skipped epoch, a delta that fails validation — and truncates
// there: a tear means the writer latched an error and stopped, and a
// mid-file flip means nothing later can be trusted against this run's
// sequence. Unless the journal carries its seal the result is marked
// degraded with a core.GapTruncated interval, so the recovered graph is
// never silently short.
//
// The file transport knows one thing the applier does not: a journal
// appended through its mapping (CreateFile) and cut off mid-run ends in
// the zeroed, never-written rest of its last reserved window. Zero bytes
// that run from a frame boundary to the end of the file are therefore
// the clean end of the frames, after a seal too; zeros followed by any
// non-zero byte are still a tear at the first zero. An ingest body has
// no such tail, and the wire reader keeps refusing an empty frame.

// TornInfo describes where and why replay stopped early.
type TornInfo struct {
	// Offset is the byte offset of the first unusable frame (the
	// physical truncation point).
	Offset int64
	// Reason says what failed ("bad CRC", "short frame", ...).
	Reason string
	// Epoch is the last epoch recovered before the tear.
	Epoch uint64
}

// String renders like "journal.isj+0x1a4: bad CRC (after epoch 17)".
func (ti *TornInfo) String() string {
	return fmt.Sprintf("%s+0x%x: %s (after epoch %d)", fileName, ti.Offset, ti.Reason, ti.Epoch)
}

// RecoverOptions configures Recover.
type RecoverOptions struct {
	// MaxEpoch stops replay after this epoch (0 = replay everything
	// durable). A deliberate prefix replay is not marked truncated.
	MaxEpoch uint64
	// Truncate physically removes the torn tail: the first bad frame
	// and everything after it, or the zero tail of a journal cut off
	// mid-run. A subsequent Recover sees a clean journal, unsealed
	// unless the tail followed the seal.
	Truncate bool
}

// Recovery is the result of replaying a journal.
type Recovery struct {
	// Header is the journal's first frame: the run's hello.
	Header wire.Hello
	// Graph and Analysis are the rebuilt CPG and its last epoch's
	// analysis (Analysis is the batch analysis when no epoch was
	// recovered).
	Graph    *core.Graph
	Analysis *core.Analysis
	// Epoch is the last recovered epoch (0 when none).
	Epoch uint64
	// Sealed reports a clean close: the journal ends with a seal
	// record matching the final epoch.
	Sealed bool
	// Stopped reports that replay hit RecoverOptions.MaxEpoch.
	Stopped bool
	// Torn is non-nil when replay cut a corrupt or half-written tail.
	Torn *TornInfo
	// End is the file offset just past the last frame replayed: the
	// seal when the journal is sealed, Torn.Offset whenever there is a
	// tear, where a zero tail starts when there is one. Frames opens
	// the replayed frames up to it.
	End int64

	path string
}

// Degraded reports whether the recovered graph is marked incomplete —
// true for any unsealed journal that recovered at least one vertex.
func (r *Recovery) Degraded() bool { return r.Graph.Degraded() }

// Recover replays the journal in dir. It returns an error only when
// there is nothing to recover (no journal file, a bad preamble, no
// usable hello); any corruption past that point is reported through
// Recovery.Torn, never as a failure — a torn journal is the expected
// input after a crash. The file is streamed one frame at a time, each
// frame applied as it arrives, and folded once at the end.
func Recover(dir string, opts RecoverOptions) (*Recovery, error) {
	path := Path(dir)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	var pre [wire.PreambleLen]byte
	if _, err := io.ReadFull(f, pre[:]); err != nil || string(pre[:len(wire.Magic)]) != wire.Magic {
		return nil, fmt.Errorf("journal: %s is not a journal (bad magic)", path)
	}
	if v := binary.LittleEndian.Uint32(pre[len(wire.Magic):]); v != wire.Version {
		return nil, fmt.Errorf("journal: %w: %s has format version %d, want %d", wire.ErrVersion, path, v, wire.Version)
	}

	// The writer bounds no record, so neither does the reader; it holds
	// one frame at a time and grows only as the bytes arrive.
	rd := wire.NewReader(f, math.MaxUint32)
	hello, err := epoch.ReadHello(rd)
	if err != nil {
		return nil, fmt.Errorf("journal: %s has no usable hello: %w", path, err)
	}
	rp := epoch.Bind(hello)
	rep := &Recovery{Header: hello, path: path}
	// End advances past each frame as it is replayed, so a tear is
	// always at End.
	end := func() int64 { return wire.PreambleLen + rd.Offset() }
	rep.End = end()
	torn := func(reason string) {
		rep.Torn = &TornInfo{Offset: rep.End, Reason: reason, Epoch: rp.Applied()}
	}
	// tail records that the frames ended in a zero tail.
	tail := false
	for rep.Torn == nil && !rep.Sealed && !rep.Stopped {
		kind, body, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil && zeroTail(f, rep.End) {
			tail = true
			break
		}
		var o epoch.Outcome
		if err == nil {
			o, err = rp.Apply(kind, body)
		}
		switch {
		case err != nil:
			torn(err.Error())
		case o == epoch.Duplicate:
			torn(fmt.Sprintf("delta repeats an applied epoch (at %d)", rp.Applied()))
		default:
			rep.End = end()
			rep.Sealed = o == epoch.Sealed
			rep.Stopped = opts.MaxEpoch > 0 && rp.Applied() == opts.MaxEpoch
		}
	}
	// The seal must be the journal's last byte; anything after it was
	// never supposed to be written.
	if rep.Sealed {
		switch _, _, err := rd.Next(); {
		case err == io.EOF:
		case err != nil && zeroTail(f, rep.End):
			tail = true
		default:
			torn("trailing data after seal")
		}
	}

	// Fold once: the fold is numbered by the last appended delta, so the
	// Analysis lands exactly on the recovered epoch, and an unsealed or
	// torn journal gets its truncated gap under that one fold rather
	// than in an extra epoch.
	rep.Graph, rep.Epoch = rp.Graph(), rp.Applied()
	switch {
	case rep.Epoch == 0:
		rep.Analysis = rp.Graph().Analyze()
	case !rep.Sealed && (rep.Torn != nil || !rep.Stopped):
		rep.Analysis = rp.Truncate()
	default:
		rep.Analysis = rp.Fold()
	}
	if opts.Truncate && (rep.Torn != nil || tail) {
		if err := os.Truncate(path, rep.End); err != nil {
			return nil, fmt.Errorf("journal: truncate: %w", err)
		}
	}
	return rep, nil
}

// zeroTail reports whether f holds only zero bytes from off to its end.
func zeroTail(f *os.File, off int64) bool {
	buf := make([]byte, 64<<10)
	for {
		n, err := f.ReadAt(buf, off)
		if bytes.Count(buf[:n], []byte{0}) != n {
			return false
		}
		off += int64(n)
		if err != nil {
			return err == io.EOF
		}
	}
}

// Frames opens the replayed stream: journal.isj after its preamble, up
// to End — the hello, every replayed delta, and the seal when the
// journal is sealed. It is an ingest body as the journal holds it, what
// a re-feed posts.
func (rep *Recovery) Frames() (io.ReadCloser, error) {
	f, err := os.Open(rep.path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return struct {
		io.Reader
		io.Closer
	}{io.NewSectionReader(f, wire.PreambleLen, rep.End-wire.PreambleLen), f}, nil
}
