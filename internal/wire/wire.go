// Package wire is the frame codec shared by the on-disk journal and the
// network ingest stream. A frame is
//
//	[uint32 payload length | uint32 CRC-32C of payload | payload]
//
// little-endian, where the payload's first byte is the record kind and
// the rest is the record's own binary form (format version 2): uvarint
// and length-prefixed fields written by the payload type's AppendWire
// and read back, bounds-checked, by its ParseWire through a Cursor.
// A record refers to nothing outside itself — no shared type table, no
// dictionary carried across frames — so records stay independently
// decodable and a torn tail (disk) or a cut connection (network) never
// poisons the frames before it. Version 1 payloads were self-contained
// gob streams; this build refuses them by version, it does not read
// them (DESIGN.md, "Durability").
//
// A frame body is untrusted (a recovered disk, an HTTP request), so the
// decode rules are the package's contract: every count is checked
// against the bytes that remain before anything is allocated, nothing a
// parsed value holds points into the body (Reader.Next reuses its
// buffer), a zero-length field parses to nil, and every rejection is a
// *PayloadError naming the field.
//
// The package is a leaf (stdlib only): it knows the Hello and Seal
// records and dispatches every other payload on the two one-method
// interfaces AppendFrame and Decode document. The journal writes frames
// into segment files behind a magic/version preamble; the ingest path
// writes the same frames into an HTTP request body with no preamble —
// the URL names the source, and every body restates its wire version
// and run identity in a header frame, so a reconnecting recorder's next
// POST is self-describing.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

const (
	// Magic opens every journal segment file. "ISJ" = inspector
	// journal. Network streams do not carry it; HTTP already frames the
	// conversation.
	Magic = "INSPISJ1"
	// Version is the frame format version: 2 since payloads are the
	// records' own binary forms (1 was gob).
	Version = 2
	// PreambleLen is the segment preamble size: magic + LE uint32
	// version.
	PreambleLen = 12

	// Record kinds (first payload byte).
	KindHeader byte = 0
	KindDelta  byte = 1
	KindSeal   byte = 2

	// FrameOverhead is the per-frame framing cost: length + CRC.
	FrameOverhead = 8

	// DefaultMaxFrameBytes bounds a single frame's payload when reading
	// from an untrusted stream. The length prefix is attacker-
	// controlled; without a cap a 4-byte header could demand a 4 GiB
	// allocation.
	DefaultMaxFrameBytes = 64 << 20
)

// crcTable is the Castagnoli polynomial (CRC-32C, the iSCSI/ext4
// checksum), chosen over IEEE for its error-detection properties on
// storage payloads.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CRC checksums a frame payload.
func CRC(payload []byte) uint32 { return crc32.Checksum(payload, crcTable) }

// Preamble returns the segment file preamble: magic plus version.
func Preamble() []byte {
	pre := make([]byte, PreambleLen)
	copy(pre, Magic)
	binary.LittleEndian.PutUint32(pre[8:], Version)
	return pre
}

// Parse errors. Their Error strings double as the journal recovery
// reason strings, so both consumers of the codec report tears
// identically.
var (
	ErrShortHeader   = errors.New("short frame header")
	ErrEmptyFrame    = errors.New("empty frame")
	ErrShortFrame    = errors.New("short frame")
	ErrBadCRC        = errors.New("bad CRC")
	ErrFrameTooLarge = errors.New("frame exceeds size limit")
)

// AppendFrame frames one record onto buf: the kind byte, then the
// payload's own binary form, checksummed behind the length/CRC header.
// The payload must implement
//
//	AppendWire(b []byte) ([]byte, error)
//
// (append the record's fields to b); a payload without a binary form is
// an error — there is no generic fallback encoding. The frame is
// appended as a contiguous region so callers can issue it as a single
// write.
func AppendFrame(buf []byte, kind byte, payload any) ([]byte, error) {
	p, ok := payload.(interface {
		AppendWire(b []byte) ([]byte, error)
	})
	if !ok {
		return buf, fmt.Errorf("wire: encode record: %T has no binary form", payload)
	}
	base := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, kind) // frame header placeholder, kind
	buf, err := p.AppendWire(buf)
	if err != nil {
		return buf[:base], fmt.Errorf("wire: encode record: %w", err)
	}
	body := buf[base+FrameOverhead:]
	binary.LittleEndian.PutUint32(buf[base:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[base+4:], CRC(body))
	return buf, nil
}

// ParseFrame parses the first frame in data. It returns the record kind,
// the record body (payload minus the kind byte, aliasing data), and the
// total frame length. maxPayload, when non-zero, bounds the payload
// length before any allocation or checksum work.
func ParseFrame(data []byte, maxPayload uint32) (kind byte, body []byte, frameLen int64, err error) {
	if len(data) < FrameOverhead {
		return 0, nil, 0, ErrShortHeader
	}
	plen := binary.LittleEndian.Uint32(data)
	wantCRC := binary.LittleEndian.Uint32(data[4:])
	if plen == 0 {
		return 0, nil, 0, ErrEmptyFrame
	}
	if maxPayload > 0 && plen > maxPayload {
		return 0, nil, 0, ErrFrameTooLarge
	}
	if int64(plen) > int64(len(data)-FrameOverhead) {
		return 0, nil, 0, ErrShortFrame
	}
	payload := data[FrameOverhead : FrameOverhead+int64(plen)]
	if CRC(payload) != wantCRC {
		return 0, nil, 0, ErrBadCRC
	}
	return payload[0], payload[1:], FrameOverhead + int64(plen), nil
}

// Decode parses a frame body (as returned by ParseFrame or Reader.Next)
// into v, which must implement
//
//	ParseWire(body []byte) error
//
// under the package's decode rules: v keeps nothing that points into
// body, and a malformed body is a *PayloadError.
func Decode(body []byte, v any) error {
	p, ok := v.(interface{ ParseWire(body []byte) error })
	if !ok {
		return fmt.Errorf("wire: decode record: %T has no binary form", v)
	}
	return p.ParseWire(body)
}

// Reader reads a sequence of frames from an untrusted stream (an HTTP
// request body). Frame payloads are bounded by maxPayload; the returned
// body is only valid until the next call to Next.
type Reader struct {
	r   *bufio.Reader
	max uint32
	buf []byte
}

// NewReader wraps r. maxPayload 0 means DefaultMaxFrameBytes.
func NewReader(r io.Reader, maxPayload uint32) *Reader {
	if maxPayload == 0 {
		maxPayload = DefaultMaxFrameBytes
	}
	return &Reader{r: bufio.NewReader(r), max: maxPayload}
}

// readChunk is how far Reader.Next lets its buffer run ahead of the
// bytes that have actually arrived.
const readChunk = 64 << 10

// Next reads one frame. It returns io.EOF when the stream ends exactly
// on a frame boundary; a stream cut inside a frame yields ErrShortHeader
// or ErrShortFrame, and a corrupt frame yields ErrEmptyFrame, ErrBadCRC,
// or ErrFrameTooLarge.
func (fr *Reader) Next() (kind byte, body []byte, err error) {
	var hdr [FrameOverhead]byte
	if _, err := io.ReadFull(fr.r, hdr[:1]); err != nil {
		return 0, nil, io.EOF // clean boundary (covers empty stream)
	}
	if _, err := io.ReadFull(fr.r, hdr[1:]); err != nil {
		return 0, nil, ErrShortHeader
	}
	plen := int(binary.LittleEndian.Uint32(hdr[:]))
	wantCRC := binary.LittleEndian.Uint32(hdr[4:])
	if plen == 0 {
		return 0, nil, ErrEmptyFrame
	}
	if uint32(plen) > fr.max {
		return 0, nil, ErrFrameTooLarge
	}
	// The length is only a claim until the bytes arrive: past the buffer
	// it already owns the reader grows a chunk at a time, so a short body
	// behind a giant prefix costs what was read, not what was promised.
	payload := fr.buf[:0]
	for len(payload) < plen {
		n := min(plen-len(payload), max(readChunk, cap(payload)-len(payload)))
		payload = slices.Grow(payload, n)[:len(payload)+n]
		if _, err := io.ReadFull(fr.r, payload[len(payload)-n:]); err != nil {
			return 0, nil, ErrShortFrame
		}
	}
	fr.buf = payload
	if CRC(payload) != wantCRC {
		return 0, nil, ErrBadCRC
	}
	return payload[0], payload[1:], nil
}

// ErrVersion reports a header frame written in another format version.
var ErrVersion = errors.New("wire: unsupported format version")

// Hello is the first frame of every ingest request body: the stream
// analogue of the journal segment header. It binds the request to a run
// identity so the aggregator detects a different run re-using a source
// name instead of splicing unrelated runs together. On the wire it
// opens with the format version — a request body has no preamble to
// carry it — then RunID, App, Threads, BaseEpoch.
type Hello struct {
	// RunID ties a run's uploads together. The aggregator rejects a
	// hello whose RunID differs from the source's bound identity.
	RunID string
	// App names the recorded workload (informational).
	App string
	// Threads is the graph's thread-slot capacity; the aggregator
	// rebuilds the per-source graph with it.
	Threads int
	// BaseEpoch is the first epoch this request carries (informational;
	// the server's dedup keys on each delta's own epoch).
	BaseEpoch uint64
}

// AppendWire appends the hello's binary form.
func (h Hello) AppendWire(b []byte) ([]byte, error) {
	if h.Threads < 0 {
		return b, fmt.Errorf("hello: negative thread capacity %d", h.Threads)
	}
	b = binary.AppendUvarint(b, Version)
	b = AppendString(b, h.RunID)
	b = AppendString(b, h.App)
	b = binary.AppendUvarint(b, uint64(h.Threads))
	return binary.AppendUvarint(b, h.BaseEpoch), nil
}

// ParseWire reads the AppendWire form. A body that does not open with
// this build's Version is refused with ErrVersion before anything else
// is read: a version-1 recorder's gob stream opens with its first
// message's length, which is never 2.
func (h *Hello) ParseWire(body []byte) error {
	c := NewCursor(body)
	if v := c.Uvarint("hello.version"); c.Err() == nil && v != Version {
		return fmt.Errorf("%w: hello opens with %d, this build speaks version %d (version 1 was gob-framed and is refused, not read)",
			ErrVersion, v, Version)
	}
	*h = Hello{
		RunID:     c.String("hello.run_id"),
		App:       c.String("hello.app"),
		Threads:   c.Int("hello.threads"),
		BaseEpoch: c.Uvarint("hello.base_epoch"),
	}
	return c.Done()
}

// Seal is the clean-close marker, on the stream and in the journal: the
// recorder finished and no further epochs will arrive.
type Seal struct {
	// FinalEpoch must match the last delta's epoch.
	FinalEpoch uint64
}

// AppendWire appends the seal's binary form: the final epoch.
func (s Seal) AppendWire(b []byte) ([]byte, error) {
	return binary.AppendUvarint(b, s.FinalEpoch), nil
}

// ParseWire reads the AppendWire form.
func (s *Seal) ParseWire(body []byte) error {
	c := NewCursor(body)
	s.FinalEpoch = c.Uvarint("seal.final_epoch")
	return c.Done()
}
