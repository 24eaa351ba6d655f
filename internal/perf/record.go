package perf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/repro/inspector/internal/wire"
)

// RecordType enumerates the perf event record kinds this model emits,
// mirroring the PERF_RECORD_* constants that matter to PT decoding.
type RecordType uint8

// Record types.
const (
	// RecordMMAP announces a loadable mapping; the decoder needs these
	// to map trace IPs onto binaries (paper §V-B: "we track mmap events
	// to know the location of each loadable during the execution").
	RecordMMAP RecordType = iota + 1
	// RecordCOMM names a process.
	RecordCOMM
	// RecordAUX carries a chunk of PT trace data.
	RecordAUX
	// RecordLOST reports dropped trace bytes (ring overrun).
	RecordLOST
	// RecordITraceStart marks the start of instruction tracing for a
	// process.
	RecordITraceStart
	// RecordExit marks process exit.
	RecordExit
)

// String names the record type like perf report does.
func (t RecordType) String() string {
	switch t {
	case RecordMMAP:
		return "MMAP"
	case RecordCOMM:
		return "COMM"
	case RecordAUX:
		return "AUX"
	case RecordLOST:
		return "LOST"
	case RecordITraceStart:
		return "ITRACE_START"
	case RecordExit:
		return "EXIT"
	default:
		return "UNKNOWN"
	}
}

// Record is one perf event record. Only the fields relevant to the record
// type are populated.
type Record struct {
	Type RecordType
	PID  int32
	Time uint64 // virtual cycles

	// MMAP fields.
	Addr     uint64
	MapLen   uint64
	Filename string

	// COMM field.
	Comm string

	// AUX fields.
	Data []byte

	// LOST field.
	LostBytes uint64
}

// fileMagic opens a .perf file; its last byte is the format version (2
// since the fields are uvarints read through wire.Cursor; 1 was
// fixed-width and is refused as ErrBadMagic, not read).
var fileMagic = [8]byte{'P', 'E', 'R', 'F', 'S', 'I', 'M', 2}

// minRecordBytes is the smallest record: type byte, PID, time.
const minRecordBytes = 3

// Errors for the file layer.
var (
	ErrBadMagic  = errors.New("perf: bad file magic")
	ErrBadRecord = errors.New("perf: malformed record")
)

// WriteRecords serializes records in a compact perf.data-like layout:
// the magic, a record count, then per record its type byte, PID, time
// and the type's own fields, as uvarints and length-prefixed bytes.
func WriteRecords(w io.Writer, records []Record) error {
	b := append([]byte(nil), fileMagic[:]...)
	b = binary.AppendUvarint(b, uint64(len(records)))
	for i := range records {
		r := &records[i]
		b = append(b, byte(r.Type))
		b = binary.AppendUvarint(b, uint64(uint32(r.PID)))
		b = binary.AppendUvarint(b, r.Time)
		switch r.Type {
		case RecordMMAP:
			b = binary.AppendUvarint(b, r.Addr)
			b = binary.AppendUvarint(b, r.MapLen)
			b = wire.AppendString(b, r.Filename)
		case RecordCOMM:
			b = wire.AppendString(b, r.Comm)
		case RecordAUX:
			b = binary.AppendUvarint(b, uint64(len(r.Data)))
			b = append(b, r.Data...)
		case RecordLOST:
			b = binary.AppendUvarint(b, r.LostBytes)
		case RecordITraceStart, RecordExit:
		default:
			return fmt.Errorf("perf: record %d: %w: unknown type %d", i, ErrBadRecord, r.Type)
		}
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("perf: write records: %w", err)
	}
	return nil
}

// ReadRecords parses a file produced by WriteRecords. The file is
// untrusted (pt-dump opens whatever it is given): it is read once and
// parsed through a wire.Cursor, so the record count and every length are
// checked against the bytes that arrived before anything is allocated.
// A file that does not open with the magic is ErrBadMagic; every other
// rejection wraps ErrBadRecord.
func ReadRecords(r io.Reader) ([]Record, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("perf: read records: %w", err)
	}
	if len(data) < len(fileMagic) || [len(fileMagic)]byte(data) != fileMagic {
		return nil, ErrBadMagic
	}
	c := wire.NewCursor(data[len(fileMagic):])
	out := make([]Record, c.Count("record count", minRecordBytes))
	for i := range out {
		rec := &out[i]
		rec.Type = RecordType(c.Byte("record.type", byte(RecordExit)))
		rec.PID = int32(c.Uint32("record.pid"))
		rec.Time = c.Uvarint("record.time")
		switch rec.Type {
		case RecordMMAP:
			rec.Addr = c.Uvarint("mmap.addr")
			rec.MapLen = c.Uvarint("mmap.len")
			rec.Filename = c.String("mmap.filename")
		case RecordCOMM:
			rec.Comm = c.String("comm")
		case RecordAUX:
			rec.Data = []byte(c.String("aux.data"))
		case RecordLOST:
			rec.LostBytes = c.Uvarint("lost.bytes")
		case RecordITraceStart, RecordExit:
		default:
			c.Fail("record.type", "unknown type 0")
		}
		if c.Err() != nil {
			return nil, fmt.Errorf("perf: record %d: %w: %v", i, ErrBadRecord, c.Err())
		}
	}
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	return out, nil
}
