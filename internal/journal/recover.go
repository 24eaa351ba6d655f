package journal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/wire"
)

// Recovery semantics: replay everything durable, stop at the first
// frame that fails its CRC, decodes badly, or breaks the epoch/segment
// chain, and *truncate* there — every frame after a bad one is
// unreachable by design, because a tear means the writer latched an
// error and stopped, while a mid-file flip means the medium lied and
// nothing later can be trusted against this run's sequence. The
// recovered graph is never silently short: unless the journal carries
// its seal record (clean close) the result is marked degraded with a
// core.GapTruncated interval, so PR 6's completeness machinery — wire
// fields included — reports the cut to every downstream consumer.

// TornInfo describes where and why replay stopped early.
type TornInfo struct {
	// Segment is the path of the offending segment file.
	Segment string
	// Offset is the byte offset of the first unusable frame (the
	// physical truncation point).
	Offset int64
	// Reason says what failed ("bad CRC", "short frame", ...).
	Reason string
	// Epoch is the last epoch recovered before the tear.
	Epoch uint64
}

// String renders like "journal-000002.isj+0x1a4: bad CRC (after epoch 17)".
func (ti *TornInfo) String() string {
	return fmt.Sprintf("%s+0x%x: %s (after epoch %d)", ti.Segment, ti.Offset, ti.Reason, ti.Epoch)
}

// RecoverOptions configures Recover.
type RecoverOptions struct {
	// MaxEpoch stops replay after this epoch (0 = replay everything
	// durable). A deliberate prefix replay is not marked truncated.
	MaxEpoch uint64
	// Truncate physically removes the torn tail: the first bad frame
	// and everything after it in its segment, plus any later segments.
	// A subsequent Recover sees a clean (if unsealed) journal.
	Truncate bool
	// KeepDeltas retains the replayed delta records on Recovery.Deltas,
	// in epoch order — the re-streaming path: feeding a recovered
	// journal back to an aggregator after the recorder died.
	KeepDeltas bool
}

// Recovery is the result of replaying a journal.
type Recovery struct {
	// Header is segment 1's header (run identity).
	Header Header
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
	// Segments lists the segment files read, in order.
	Segments []string
	// Deltas holds the replayed records when RecoverOptions.KeepDeltas
	// was set (nil otherwise).
	Deltas []*core.EpochDelta
}

// Degraded reports whether the recovered graph is marked incomplete —
// true for any unsealed journal that recovered at least one vertex.
func (r *Recovery) Degraded() bool { return r.Graph.Degraded() }

var segmentRE = regexp.MustCompile(`^journal-(\d{6})\.isj$`)

// listSegments returns dir's segment paths in sequence order.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && segmentRE.MatchString(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(dir, n)
	}
	return out, nil
}

// segSeq parses a segment path's sequence number (0 when malformed,
// which never matches an expected sequence).
func segSeq(path string) uint64 {
	m := segmentRE.FindStringSubmatch(filepath.Base(path))
	if m == nil {
		return 0
	}
	var seq uint64
	fmt.Sscanf(m[1], "%d", &seq)
	return seq
}

// rawRecord is one parsed delta record with its physical location.
type rawRecord struct {
	delta *core.EpochDelta
	seg   string
	off   int64
}

// Recover replays the journal in dir. It returns an error only when
// there is nothing to recover (no directory, no segments, segment 1
// unreadable as a journal); any corruption past that point is reported
// through Recovery.Torn, never as a failure — a torn journal is the
// expected input after a crash.
func Recover(dir string, opts RecoverOptions) (*Recovery, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("journal: no segments in %s", dir)
	}

	rep := &Recovery{}
	var recs []rawRecord
	nextEpoch := uint64(1)
	nextSeg := uint64(1)

	torn := func(seg string, off int64, reason string) {
		rep.Torn = &TornInfo{Segment: seg, Offset: off, Reason: reason, Epoch: nextEpoch - 1}
	}

scan:
	for i, path := range segs {
		if seq := segSeq(path); seq != nextSeg {
			torn(path, 0, fmt.Sprintf("missing segment %d", nextSeg))
			break
		}
		data, err := os.ReadFile(path)
		if err != nil {
			if i == 0 {
				return nil, fmt.Errorf("journal: %w", err)
			}
			torn(path, 0, fmt.Sprintf("unreadable segment: %v", err))
			break
		}
		rep.Segments = append(rep.Segments, path)
		if len(data) < wire.PreambleLen || string(data[:8]) != wire.Magic {
			if i == 0 {
				return nil, fmt.Errorf("journal: %s is not a journal segment (bad magic)", path)
			}
			torn(path, 0, "bad magic")
			break
		}
		if v := binary.LittleEndian.Uint32(data[8:]); v != wire.Version {
			if i == 0 {
				return nil, fmt.Errorf("journal: %s has format version %d, want %d", path, v, wire.Version)
			}
			torn(path, 8, fmt.Sprintf("format version %d", v))
			break
		}
		off := int64(wire.PreambleLen)
		sawHeader := false
		for off < int64(len(data)) {
			// A failure before the segment's header record leaves nothing
			// of the segment usable; report offset 0 so physical
			// truncation drops the whole file.
			foff := off
			if !sawHeader {
				foff = 0
			}
			kind, body, flen, ferr := wire.ParseFrame(data[off:], 0)
			if ferr != nil {
				torn(path, foff, ferr.Error())
				break scan
			}
			switch {
			case !sawHeader:
				if kind != recHeader {
					if i == 0 {
						return nil, fmt.Errorf("journal: %s does not start with a header record", path)
					}
					torn(path, 0, "segment missing header record")
					break scan
				}
				var h Header
				if err := wire.Decode(body, &h); err != nil {
					if i == 0 {
						return nil, fmt.Errorf("journal: %s header: %w", path, err)
					}
					torn(path, 0, fmt.Sprintf("header decode: %v", err))
					break scan
				}
				if i == 0 {
					if h.Threads < 1 {
						return nil, fmt.Errorf("journal: %s header has %d threads", path, h.Threads)
					}
					rep.Header = h
				} else if h.RunID != rep.Header.RunID || h.Threads != rep.Header.Threads ||
					h.Segment != nextSeg || h.BaseEpoch != nextEpoch {
					torn(path, 0, fmt.Sprintf("header mismatch (run %s seg %d base %d, want run %s seg %d base %d)",
						h.RunID, h.Segment, h.BaseEpoch, rep.Header.RunID, nextSeg, nextEpoch))
					break scan
				}
				sawHeader = true
			case kind == recDelta:
				d := new(core.EpochDelta)
				if err := wire.Decode(body, d); err != nil {
					torn(path, off, fmt.Sprintf("record decode: %v", err))
					break scan
				}
				if d.Epoch != nextEpoch {
					torn(path, off, fmt.Sprintf("epoch %d out of sequence (want %d)", d.Epoch, nextEpoch))
					break scan
				}
				recs = append(recs, rawRecord{delta: d, seg: path, off: off})
				nextEpoch++
				if opts.MaxEpoch > 0 && d.Epoch == opts.MaxEpoch {
					rep.Stopped = true
					break scan
				}
			case kind == recSeal:
				var s wire.Seal
				if err := wire.Decode(body, &s); err != nil {
					torn(path, off, fmt.Sprintf("seal decode: %v", err))
					break scan
				}
				if s.FinalEpoch != nextEpoch-1 {
					torn(path, off, fmt.Sprintf("seal names epoch %d, journal ends at %d", s.FinalEpoch, nextEpoch-1))
					break scan
				}
				rep.Sealed = true
				// The seal must be the journal's last byte; anything
				// after it was never supposed to be written.
				if end := off + flen; end != int64(len(data)) {
					torn(path, end, "trailing data after seal")
				} else if i != len(segs)-1 {
					torn(segs[i+1], 0, "segment after seal")
				}
				break scan
			default:
				torn(path, off, fmt.Sprintf("unknown record kind %d", kind))
				break scan
			}
			off += flen
		}
		if !sawHeader {
			if i == 0 {
				return nil, fmt.Errorf("journal: %s carries no header record", path)
			}
			torn(path, 0, "no header record")
			break
		}
		nextSeg++
	}
	if rep.Header.Threads < 1 {
		// Segment 1 tore inside its own header frame: there is no run
		// identity to recover under.
		reason := "empty journal"
		if rep.Torn != nil {
			reason = rep.Torn.Reason
		}
		return nil, fmt.Errorf("journal: %s has no usable header: %s", dir, reason)
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
			torn(r.seg, r.off, fmt.Sprintf("invalid delta: %v", err))
			rep.Torn.Epoch, rep.Sealed = uint64(n), false
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
		if err := truncateTail(segs, rep.Torn); err != nil {
			return nil, err
		}
	}
	rep.Graph, rep.Records, rep.Epoch = rp.Graph(), n, uint64(n)
	return rep, nil
}

// truncateTail physically removes the torn tail identified by ti: later
// segments entirely, the torn segment from the bad frame on (the whole
// file when the tear is in its preamble or header).
func truncateTail(segs []string, ti *TornInfo) error {
	drop := false
	for _, path := range segs {
		switch {
		case path == ti.Segment:
			drop = true
			// A tear before the first post-header frame means the
			// segment never carried a usable record.
			if ti.Offset == 0 {
				if err := os.Remove(path); err != nil {
					return fmt.Errorf("journal: truncate: %w", err)
				}
				continue
			}
			if err := os.Truncate(path, ti.Offset); err != nil {
				return fmt.Errorf("journal: truncate: %w", err)
			}
		case drop:
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("journal: truncate: %w", err)
			}
		}
	}
	return nil
}
