package perf

import (
	"cmp"
	"io"
	"slices"
	"sync"
)

// SessionOptions configure a trace session.
type SessionOptions struct {
	// Mode selects full-trace or snapshot AUX buffers.
	Mode Mode
	// AuxSize is the per-process AUX ring size in bytes (default 4 MiB,
	// the slot size used by the paper's snapshot ring).
	AuxSize int
	// AutoDrain makes full-trace streams move ring contents into the
	// session store when the ring is half full, emulating the perf
	// tool's periodic reads. Disable in tests that exercise overruns.
	AutoDrain bool
	// Clock supplies timestamps for records (virtual cycles).
	Clock func() uint64
}

// DefaultAuxSize is the default per-process AUX ring size.
const DefaultAuxSize = 4 << 20

// Session is one perf tracing session over the processes of one run,
// the equivalent of a `perf record -e intel_pt//` invocation. The paper
// scopes it with a dedicated cgroup because the forked PIDs are not
// known in advance; here every process the runtime forks attaches at
// creation, and nothing outside the run exists to filter out.
type Session struct {
	opts SessionOptions

	mu sync.Mutex
	// streams is ascending by PID, whatever order the processes attached
	// in: every per-process walk (PIDs, Serialize, the totals) visits
	// them in that one order.
	streams []*Stream
	records []Record
}

// Stream is the per-process trace: an AUX ring plus the drained store.
// It implements pt.ByteSink, so a pt.Encoder can write directly into it.
type Stream struct {
	sess *Session
	pid  int32
	aux  *AuxBuffer

	mu    sync.Mutex
	store []byte
}

// NewSession creates a session.
func NewSession(opts SessionOptions) *Session {
	if opts.AuxSize <= 0 {
		opts.AuxSize = DefaultAuxSize
	}
	if opts.Mode == 0 {
		opts.Mode = ModeFullTrace
	}
	return &Session{opts: opts}
}

// now returns the session timestamp.
func (s *Session) now() uint64 {
	if s.opts.Clock != nil {
		return s.opts.Clock()
	}
	return 0
}

// find returns pid's position in streams and whether it is attached.
// Needs s.mu.
func (s *Session) find(pid int32) (int, bool) {
	return slices.BinarySearchFunc(s.streams, pid, func(st *Stream, pid int32) int {
		return cmp.Compare(st.pid, pid)
	})
}

// Attach creates (or returns) the trace stream for pid.
func (s *Session) Attach(pid int32) *Stream {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.find(pid)
	if ok {
		return s.streams[i]
	}
	st := &Stream{
		sess: s,
		pid:  pid,
		aux:  NewAuxBuffer(s.opts.AuxSize, s.opts.Mode),
	}
	s.streams = slices.Insert(s.streams, i, st)
	s.records = append(s.records, Record{Type: RecordITraceStart, PID: pid, Time: s.now()})
	return st
}

// Stream returns the stream for pid if attached.
func (s *Session) Stream(pid int32) (*Stream, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.find(pid); ok {
		return s.streams[i], true
	}
	return nil, false
}

// attached returns the streams in ascending PID order.
func (s *Session) attached() []*Stream {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.streams)
}

// PIDs returns the attached process IDs in ascending order.
func (s *Session) PIDs() []int32 {
	streams := s.attached()
	out := make([]int32, len(streams))
	for i, st := range streams {
		out[i] = st.pid
	}
	return out
}

// RecordMMAP logs a loadable mapping event.
func (s *Session) RecordMMAP(pid int32, addr, length uint64, filename string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.records = append(s.records, Record{
		Type: RecordMMAP, PID: pid, Time: s.now(),
		Addr: addr, MapLen: length, Filename: filename,
	})
}

// RecordComm logs a process-name event.
func (s *Session) RecordComm(pid int32, comm string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.records = append(s.records, Record{Type: RecordCOMM, PID: pid, Time: s.now(), Comm: comm})
}

// RecordExit logs process exit.
func (s *Session) RecordExit(pid int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.records = append(s.records, Record{Type: RecordExit, PID: pid, Time: s.now()})
}

// Records returns a copy of the non-AUX record stream.
func (s *Session) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, len(s.records))
	copy(out, s.records)
	return out
}

// WriteTrace implements pt.ByteSink for the process's PT encoder.
func (st *Stream) WriteTrace(p []byte) int {
	n := st.aux.WriteTrace(p)
	if st.sess.opts.AutoDrain && st.aux.Mode() == ModeFullTrace && st.aux.Len() >= st.aux.Size()/2 {
		st.Drain()
	}
	return n
}

// Drain moves unread ring contents into the stream's store (the perf
// tool reading the AUX mmap and appending to perf.data).
func (st *Stream) Drain() {
	data := st.aux.Read(-1)
	if len(data) == 0 {
		return
	}
	st.mu.Lock()
	st.store = append(st.store, data...)
	st.mu.Unlock()
}

// Trace drains the ring and returns the complete stored trace.
func (st *Stream) Trace() []byte {
	st.Drain()
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]byte, len(st.store))
	copy(out, st.store)
	return out
}

// StoredBytes returns the bytes accumulated in the store plus unread ring
// contents, without consuming anything.
func (st *Stream) StoredBytes() int {
	st.mu.Lock()
	n := len(st.store)
	st.mu.Unlock()
	return n + st.aux.Len()
}

// Lost returns trace bytes dropped by ring overrun.
func (st *Stream) Lost() uint64 { return st.aux.Lost() }

// Aux exposes the underlying ring (snapshot capture needs it).
func (st *Stream) Aux() *AuxBuffer { return st.aux }

// TotalTraceBytes sums stored trace bytes over all streams — the size of
// the provenance log perf would have written (Table 9's "Size" column).
func (s *Session) TotalTraceBytes() uint64 {
	var total uint64
	for _, st := range s.attached() {
		total += uint64(st.StoredBytes())
	}
	return total
}

// TotalLost sums dropped bytes over all streams.
func (s *Session) TotalLost() uint64 {
	var total uint64
	for _, st := range s.attached() {
		total += st.Lost()
	}
	return total
}

// Serialize writes the session in the perf.data-like format. The record
// log arrives in the scheduler's order; the file groups it by process,
// ascending by PID — each process's records in the order it logged them,
// then its AUX record (and a LOST record where the ring overran) — which
// is the one layout every run of a program repeats.
func (s *Session) Serialize(w io.Writer) error {
	recs := s.Records()
	for _, st := range s.attached() {
		recs = append(recs, Record{Type: RecordAUX, PID: st.pid, Time: s.now(), Data: st.Trace()})
		if lost := st.Lost(); lost > 0 {
			recs = append(recs, Record{Type: RecordLOST, PID: st.pid, Time: s.now(), LostBytes: lost})
		}
	}
	slices.SortStableFunc(recs, func(a, b Record) int { return cmp.Compare(a.PID, b.PID) })
	return WriteRecords(w, recs)
}
