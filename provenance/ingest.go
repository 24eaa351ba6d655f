package provenance

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/wire"
)

// The ingest side of the distributed fabric: recorder processes stream
// CRC-checksummed epoch-delta frames (the journal's record format, see
// internal/wire) over HTTP, and the aggregator folds each source's
// deltas through the same incremental fold a local recording uses (an
// epoch.Replayer, shared with journal recovery). The correctness anchor
// is replay equivalence: the per-source CPG served here is
// byte-for-byte the one the recorder's own fold produced at the same
// epoch. The aggregator folds once per POST body, not once per delta:
// it publishes the epoch of each body's last applied delta, a subset of
// the recorder's epochs.
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
// fatal).
var (
	// ErrEpochGap reports a delta beyond the next expected epoch.
	ErrEpochGap = errors.New("provenance: delta skips ahead of the next expected epoch")
	// ErrSourceSealed reports ingest after a seal frame.
	ErrSourceSealed = errors.New("provenance: source is sealed")
	// ErrSourceDegraded reports ingest after a poisoning delta.
	ErrSourceDegraded = errors.New("provenance: source is degraded")
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
// wire.DefaultMaxFrameBytes on each frame: every length and count in an
// ingest body is untrusted.
const (
	// maxIngestSources bounds the sources one hub tracks. Sources are
	// never evicted, so the hello that would bind one more is refused.
	maxIngestSources = 256
	// maxIngestBodyBytes bounds one ingest request body.
	maxIngestBodyBytes = 1 << 30
	// maxIngestThreads bounds a hello's thread-slot capacity; the
	// aggregator allocates a graph that wide per source.
	maxIngestThreads = 1024
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
	if hello.Threads < 1 || hello.Threads > maxIngestThreads {
		return nil, fmt.Errorf("provenance: hello thread capacity %d out of range [1,%d]", hello.Threads, maxIngestThreads)
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
	src := newIngestSource(name, hello, h.opts.Engine)
	h.sources[name] = src
	return src, nil
}

// IngestSource is one recorder's CPG as the aggregator rebuilds it: an
// epoch.Replayer fed one delta at a time and folded once per ingest
// batch, each fold published through the embedded Feed (which makes it
// a Source) under the epoch of the batch's last delta.
type IngestSource struct {
	*Feed
	name  string
	hello wire.Hello

	mu sync.Mutex
	rp *epoch.Replayer
	// applied is the last applied delta epoch — the resume offset. Once
	// flushed it is the published epoch too, until a poisoning delta:
	// the degraded republish is one more fold, so it carries applied+1.
	applied uint64
	sealed  bool
	poison  error
}

func newIngestSource(name string, hello wire.Hello, eopts EngineOptions) *IngestSource {
	return &IngestSource{
		Feed:  NewFeed(hello.Threads, eopts),
		name:  name,
		hello: hello,
		rp:    epoch.NewReplayer(hello.Threads),
	}
}

// Status summarizes the source for the offset endpoint.
func (s *IngestSource) Status() IngestStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return IngestStatus{
		Version:   Version,
		Source:    s.name,
		RunID:     s.hello.RunID,
		NextEpoch: s.applied + 1,
		Sealed:    s.sealed,
		Degraded:  s.poison != nil,
	}
}

// apply ingests one delta under the resume contract: validated and
// appended, folded by the batch's flush. It reports whether the delta
// advanced the source (false = duplicate, acknowledged and skipped). A
// validation failure poisons the source and is returned.
func (s *IngestSource) apply(d *core.EpochDelta) (applied bool, err error) {
	if d == nil {
		return false, fmt.Errorf("core: nil epoch delta")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.poison != nil {
		return false, fmt.Errorf("%w: %v", ErrSourceDegraded, s.poison)
	}
	if d.Epoch <= s.applied {
		// Duplicate delivery (a replayed prefix, a retried batch): the
		// epoch is already durable here; first write wins.
		return false, nil
	}
	if s.sealed {
		return false, fmt.Errorf("%w: source %q sealed at epoch %d", ErrSourceSealed, s.name, s.applied)
	}
	if d.Epoch != s.applied+1 {
		return false, fmt.Errorf("%w: got epoch %d, want %d", ErrEpochGap, d.Epoch, s.applied+1)
	}
	if err := s.rp.Append(d); err != nil {
		// The append is atomic, so the graph still holds exactly the
		// applied prefix. Publish it, latch the poison, mark the loss the
		// way journal recovery marks a torn tail, and publish the
		// degraded fold as the source's final epoch so queries stop
		// claiming completeness.
		s.flushLocked()
		s.poison = err
		s.publish(s.rp.Truncate())
		s.shut()
		return false, err
	}
	s.applied = d.Epoch
	return true, nil
}

// flush folds and publishes the deltas applied since the last fold, as
// the epoch of the last one. The ingest handler calls it once per body,
// on every exit path, before it answers.
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

// seal records the clean end of the stream, publishing the applied
// prefix first. Sealing is idempotent for a matching final epoch.
func (s *IngestSource) seal(finalEpoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.poison != nil {
		return fmt.Errorf("%w: %v", ErrSourceDegraded, s.poison)
	}
	if finalEpoch != s.applied {
		return fmt.Errorf("%w: seal names epoch %d, source is at %d", ErrEpochGap, finalEpoch, s.applied)
	}
	s.flushLocked()
	s.sealed = true
	s.shut()
	return nil
}
