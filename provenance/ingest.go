package provenance

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/wire"
)

// The ingest side of the distributed fabric: recorder processes stream
// CRC-checksummed epoch-delta frames (the journal's record format, see
// internal/wire) over HTTP, and the aggregator folds each source's
// deltas through the frame-stream applier journal recovery reads a
// journal with (epoch.Replayer.Apply), adding dedup and a lock per
// source. The correctness anchor is replay equivalence: the per-source
// CPG served here is byte-for-byte the one the recorder's own fold
// produced at the same epoch. The aggregator folds once per POST body,
// not once per delta: it publishes the epoch of each body's last
// applied delta, a subset of the recorder's epochs.
//
// The resume contract, pinned by the conformance tests:
//
//   - Deltas are strictly sequential, so "next expected epoch" is the
//     whole resume offset. GET /v1/ingest/{source} returns it; an
//     unknown source is 404 (start at epoch 1).
//   - A delta whose epoch is already applied is acknowledged and
//     skipped (first write wins); re-sending a prefix is always safe.
//   - A delta that skips ahead is rejected with 409 and applies
//     nothing; the client re-reads the offset and resumes.
//   - A delta that fails validation poisons the source: the last good
//     epoch is republished as one final epoch marked degraded, and every
//     later ingest is refused. Malformed input is never silently wrong.

// Ingest error classes, surfaced as typed errors so the HTTP layer maps
// them to distinct statuses (and clients can tell retryable from
// fatal). The first three are the frame-stream applier's own.
var (
	// ErrEpochGap reports a delta beyond the next expected epoch.
	ErrEpochGap = epoch.ErrGap
	// ErrSourceSealed reports a new delta after a seal frame.
	ErrSourceSealed = epoch.ErrAfterSeal
	// ErrSourceDegraded reports ingest after a poisoning delta.
	ErrSourceDegraded = epoch.ErrDegraded
	// ErrRunConflict reports a hello whose run identity does not match
	// the source's bound run.
	ErrRunConflict = errors.New("provenance: run identity conflict")
)

// IngestStatus is the ingest wire status: the GET /v1/ingest/{source}
// offset document and the POST response. NextEpoch is the whole resume
// contract — the only epoch the aggregator will accept next.
type IngestStatus struct {
	Version string `json:"version"`
	Source  string `json:"source"`
	RunID   string `json:"run_id,omitempty"`
	// NextEpoch is the next epoch the source will apply (last applied
	// epoch + 1; 1 for a fresh source).
	NextEpoch uint64 `json:"next_epoch"`
	// Accepted and Duplicates count this POST's applied and
	// acknowledged-but-already-durable deltas (POST responses only).
	Accepted   int  `json:"accepted,omitempty"`
	Duplicates int  `json:"duplicates,omitempty"`
	Sealed     bool `json:"sealed,omitempty"`
	Degraded   bool `json:"degraded,omitempty"`
}

// EpochStatus is the GET /v1/cpgs/{id}/epochs response body: the
// newest published epoch, and whether the source can still advance.
// Closed=true means no epoch beyond Epoch will ever be published (the
// source is post-mortem, sealed, or degraded).
type EpochStatus struct {
	Version string `json:"version"`
	ID      string `json:"id"`
	Epoch   uint64 `json:"epoch"`
	Closed  bool   `json:"closed,omitempty"`
}

// IngestOptions configure an IngestHub.
type IngestOptions struct {
	// Engine configures the per-source query engines (result caps).
	Engine EngineOptions
}

// Bounds on what a recorder may ask of the aggregator, beside
// wire.DefaultMaxFrameBytes on each frame and wire.MaxThreads on a
// hello's width: every length and count in an ingest body is untrusted.
const (
	// maxIngestSources bounds the sources one hub tracks. Sources are
	// never evicted, so the hello that would bind one more is refused.
	maxIngestSources = 256
	// maxIngestBodyBytes bounds one ingest request body.
	maxIngestBodyBytes = 1 << 30
)

// IngestHub tracks the sources an aggregating Server has accepted
// streams for. Sources appear dynamically (the first hello creates
// one) and are served by the same Server alongside its static and live
// sources.
type IngestHub struct {
	opts IngestOptions

	mu      sync.Mutex
	sources map[string]*IngestSource
}

// NewIngestHub builds an empty hub.
func NewIngestHub(opts IngestOptions) *IngestHub {
	return &IngestHub{opts: opts, sources: make(map[string]*IngestSource)}
}

// Source returns the named ingest source.
func (h *IngestHub) Source(name string) (*IngestSource, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	src, ok := h.sources[name]
	return src, ok
}

// IDs returns the tracked source names, sorted.
func (h *IngestHub) IDs() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.sources))
	for name := range h.sources {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// bind resolves a hello against the hub: it returns the existing source
// when the run identity matches, creates one when the name is new, and
// rejects conflicts.
func (h *IngestHub) bind(name string, hello wire.Hello) (*IngestSource, error) {
	if hello.RunID == "" {
		return nil, fmt.Errorf("provenance: hello carries no run id")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if src, ok := h.sources[name]; ok {
		if src.hello.RunID != hello.RunID || src.hello.Threads != hello.Threads {
			return nil, fmt.Errorf("%w: source %q is bound to run %s (%d threads), hello names run %s (%d threads)",
				ErrRunConflict, name, src.hello.RunID, src.hello.Threads, hello.RunID, hello.Threads)
		}
		return src, nil
	}
	if len(h.sources) >= maxIngestSources {
		return nil, fmt.Errorf("provenance: ingest source limit reached (%d)", maxIngestSources)
	}
	src := &IngestSource{Feed: NewFeed(hello.Threads, h.opts.Engine), name: name, hello: hello, rp: epoch.Bind(hello)}
	h.sources[name] = src
	return src, nil
}

// ingest consumes one ingest body for the named source. The status
// counts the body's applied and duplicate deltas however it ended.
func (h *IngestHub) ingest(name string, body io.Reader) (IngestStatus, error) {
	fr := wire.NewReader(body, wire.DefaultMaxFrameBytes)
	hello, err := epoch.ReadHello(fr)
	if err != nil {
		return IngestStatus{}, err
	}
	src, err := h.bind(name, hello)
	if err != nil {
		return IngestStatus{}, err
	}
	accepted, dups, err := src.ingest(fr)
	st := src.Status()
	st.Accepted, st.Duplicates = accepted, dups
	return st, err
}

// IngestSource is one recorder's CPG as the aggregator rebuilds it: the
// replay of its frame stream, folded once per ingest body, each fold
// published through the embedded Feed (which makes it a Source). The
// replay's applied epoch is the resume offset and, once flushed, the
// published epoch — until a poisoning delta, whose degraded republish
// is one more fold.
type IngestSource struct {
	*Feed
	name  string
	hello wire.Hello

	mu sync.Mutex
	rp *epoch.Replayer
}

// Status summarizes the source for the offset endpoint.
func (s *IngestSource) Status() IngestStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return IngestStatus{
		Version:   Version,
		Source:    s.name,
		RunID:     s.hello.RunID,
		NextEpoch: s.rp.Applied() + 1,
		Sealed:    s.rp.Sealed(),
		Degraded:  s.rp.Invalid() != nil,
	}
}

// ingest applies the frames after a body's hello until the body ends
// or one is refused, then folds and publishes what it applied — once,
// whichever way the body ended. The lock is taken per frame, never
// across a read from the network.
func (s *IngestSource) ingest(fr *wire.Reader) (accepted, dups int, err error) {
	defer s.flush()
	for {
		kind, body, err := fr.Next()
		if err == io.EOF {
			return accepted, dups, nil
		}
		if err != nil {
			return accepted, dups, fmt.Errorf("frame: %w", err)
		}
		switch o, err := s.apply(kind, body); {
		case err != nil:
			return accepted, dups, err
		case o == epoch.Advanced:
			accepted++
		case o == epoch.Duplicate:
			dups++
		}
	}
}

// apply reads one frame under the lock. A seal publishes the applied
// prefix and closes the feed; so does a poisoning delta — the append is
// atomic, so the graph holds exactly that prefix — after publishing it
// truncated, the way journal recovery marks a torn tail, as the final
// epoch.
func (s *IngestSource) apply(kind byte, body []byte) (epoch.Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.rp.Apply(kind, body)
	switch {
	case errors.Is(err, epoch.ErrInvalid):
		s.flushLocked()
		s.publish(s.rp.Truncate())
		s.shut()
	case o == epoch.Sealed:
		s.flushLocked()
		s.shut()
	}
	return o, err
}

// flush publishes the deltas applied since the last fold.
func (s *IngestSource) flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
}

func (s *IngestSource) flushLocked() {
	if s.rp.Pending() {
		s.publish(s.rp.Fold())
	}
}
