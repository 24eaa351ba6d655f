package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/wire"
)

// Recovery semantics: replay everything durable, stop at the first
// frame that fails its CRC, decodes badly, or breaks the epoch chain,
// and *truncate* there — every frame after a bad one is unreachable by
// design, because a tear means the writer latched an error and stopped,
// while a mid-file flip means the medium lied and nothing later can be
// trusted against this run's sequence. The recovered graph is never
// silently short: unless the journal carries its seal record (clean
// close) the result is marked degraded with a core.GapTruncated
// interval, so PR 6's completeness machinery — wire fields included —
// reports the cut to every downstream consumer.

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
	// and everything after it. A subsequent Recover sees a clean
	// journal, unsealed unless the tail was trailing data after the
	// seal.
	Truncate bool
	// KeepDeltas retains the replayed delta records on Recovery.Deltas,
	// in epoch order — the re-streaming path: feeding a recovered
	// journal back to an aggregator after the recorder died.
	KeepDeltas bool
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
	// Records counts replayed delta records.
	Records int
	// Sealed reports a clean close: the journal ends with a seal
	// record matching the final epoch.
	Sealed bool
	// Stopped reports that replay hit RecoverOptions.MaxEpoch.
	Stopped bool
	// Torn is non-nil when replay cut a corrupt or half-written tail.
	Torn *TornInfo
	// Deltas holds the replayed records when RecoverOptions.KeepDeltas
	// was set (nil otherwise).
	Deltas []*core.EpochDelta
}

// Degraded reports whether the recovered graph is marked incomplete —
// true for any unsealed journal that recovered at least one vertex.
func (r *Recovery) Degraded() bool { return r.Graph.Degraded() }

// rawRecord is one parsed delta record with its byte offset.
type rawRecord struct {
	delta *core.EpochDelta
	off   int64
}

// frameLen is the on-disk size of the frame whose body Reader.Next
// returned: the length/CRC prefix, the kind byte, the body.
func frameLen(body []byte) int64 { return int64(wire.FrameOverhead + 1 + len(body)) }

// Recover replays the journal in dir. It returns an error only when
// there is nothing to recover (no journal file, a bad preamble, no
// usable hello); any corruption past that point is reported through
// Recovery.Torn, never as a failure — a torn journal is the expected
// input after a crash. The file is streamed one frame at a time.
func Recover(dir string, opts RecoverOptions) (*Recovery, error) {
	path := Path(dir)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var pre [wire.PreambleLen]byte
	if _, err := io.ReadFull(f, pre[:]); err != nil || string(pre[:len(wire.Magic)]) != wire.Magic {
		return nil, fmt.Errorf("journal: %s is not a journal (bad magic)", path)
	}
	if v := binary.LittleEndian.Uint32(pre[len(wire.Magic):]); v != wire.Version {
		return nil, fmt.Errorf("journal: %s has format version %d, want %d", path, v, wire.Version)
	}

	// The writer bounds no record, so neither does the reader; it holds
	// one frame at a time and grows only as the bytes arrive.
	rd := wire.NewReader(f, math.MaxUint32)
	rep := &Recovery{}
	kind, body, err := rd.Next()
	switch {
	case err == io.EOF:
		err = errors.New("empty journal")
	case err == nil && kind != recHello:
		err = fmt.Errorf("first record has kind %d, want the hello", kind)
	case err == nil:
		if err = wire.Decode(body, &rep.Header); err == nil && rep.Header.Threads < 1 {
			err = fmt.Errorf("hello names %d threads", rep.Header.Threads)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %s has no usable hello: %w", path, err)
	}

	var recs []rawRecord
	torn := func(off int64, reason string) {
		rep.Torn = &TornInfo{Offset: off, Reason: reason, Epoch: uint64(len(recs))}
	}
scan:
	for off := wire.PreambleLen + frameLen(body); ; off += frameLen(body) {
		kind, body, err = rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			torn(off, err.Error())
			break
		}
		switch kind {
		case recDelta:
			d := new(core.EpochDelta)
			if err := wire.Decode(body, d); err != nil {
				torn(off, fmt.Sprintf("record decode: %v", err))
				break scan
			}
			if want := uint64(len(recs)) + 1; d.Epoch != want {
				torn(off, fmt.Sprintf("epoch %d out of sequence (want %d)", d.Epoch, want))
				break scan
			}
			recs = append(recs, rawRecord{delta: d, off: off})
			if opts.MaxEpoch > 0 && d.Epoch == opts.MaxEpoch {
				rep.Stopped = true
				break scan
			}
		case recSeal:
			var s wire.Seal
			if err := wire.Decode(body, &s); err != nil {
				torn(off, fmt.Sprintf("seal decode: %v", err))
				break scan
			}
			if s.FinalEpoch != uint64(len(recs)) {
				torn(off, fmt.Sprintf("seal names epoch %d, journal ends at %d", s.FinalEpoch, len(recs)))
				break scan
			}
			rep.Sealed = true
			// The seal must be the journal's last byte; anything after
			// it was never supposed to be written.
			if end := off + frameLen(body); end != st.Size() {
				torn(end, "trailing data after seal")
			}
			break scan
		default:
			torn(off, fmt.Sprintf("unknown record kind %d", kind))
			break scan
		}
	}

	// Replay: append every record, then fold once — the fold is numbered
	// by the last appended record, so the Analysis lands exactly on the
	// recovered epoch. A record that passed its CRC can still be forged or
	// stale; the append validates it against the graph before mutating
	// anything, so the replay learns which record is the last good one
	// before it folds, and an unsealed or torn journal gets its truncated
	// gap under that one fold rather than in an extra epoch.
	rp := epoch.NewReplayer(rep.Header.Threads)
	n := 0
	for ; n < len(recs); n++ {
		r := recs[n]
		if err := rp.Append(r.delta); err != nil {
			rep.Torn = &TornInfo{Offset: r.off, Reason: fmt.Sprintf("invalid delta: %v", err), Epoch: uint64(n)}
			rep.Sealed = false
			break
		}
		if opts.KeepDeltas {
			rep.Deltas = append(rep.Deltas, r.delta)
		}
	}
	switch {
	case n == 0:
		rep.Analysis = rp.Graph().Analyze()
	case !rep.Sealed && (rep.Torn != nil || !rep.Stopped):
		rep.Analysis = rp.Truncate()
	default:
		rep.Analysis = rp.Fold()
	}
	if opts.Truncate && rep.Torn != nil {
		if err := os.Truncate(path, rep.Torn.Offset); err != nil {
			return nil, fmt.Errorf("journal: truncate: %w", err)
		}
	}
	rep.Graph, rep.Records, rep.Epoch = rp.Graph(), n, uint64(n)
	return rep, nil
}
