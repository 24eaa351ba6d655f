package provenance

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/wire"
)

// The distributed-fabric endpoints:
//
//	POST /v1/ingest/{source}            stream epoch-delta frames in
//	GET  /v1/ingest/{source}            resume offset (next expected epoch)
//	GET  /v1/cpgs/{id}/epochs?min=&wait=  long-poll epoch push
//	GET  /v1/cpgs/{id}/export           the pinned epoch's full analysis export
//
// Ingest routes register only when ServerOptions.Ingest is set; epochs
// and export serve every source kind (static, live, ingested).

// defaultWatchTimeout caps how long GET /v1/cpgs/{id}/epochs may hold
// a long-poll open, whatever the client asked for. A timed-out poll
// answers 200 with the current epoch, so re-polling is idempotent.
const defaultWatchTimeout = 30 * time.Second

// handleEpochs is the push wire: block (bounded) until the source
// publishes epoch >= min, then report the newest epoch. A timed-out
// wait still answers 200 with the current epoch — re-polling is
// idempotent — and Closed tells the client no further epoch will come.
func (s *Server) handleEpochs(w http.ResponseWriter, r *http.Request) {
	src, ok := s.resolve(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	var min uint64
	if v := q.Get("min"); v != "" {
		var err error
		if min, err = strconv.ParseUint(v, 10, 64); err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "bad min epoch " + strconv.Quote(v)})
			return
		}
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		var err error
		if wait, err = time.ParseDuration(v); err != nil || wait < 0 {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "bad wait duration " + strconv.Quote(v)})
			return
		}
	}
	if wait > defaultWatchTimeout {
		wait = defaultWatchTimeout
	}

	// A zero wait is an already-expired deadline: WaitEpoch never parks.
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	e, err := src.WaitEpoch(ctx, min)
	writeJSON(w, http.StatusOK, EpochStatus{
		Version: Version, ID: r.PathValue("id"), Epoch: e, Closed: errors.Is(err, ErrLiveClosed),
	})
}

// handleExport streams the pinned epoch's deterministic analysis
// export — the byte-comparison surface the fabric's correctness anchor
// rests on: these bytes must equal the recorder's own fold at the same
// epoch (inspector-recover -analysis produces the reference).
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	src, ok := s.resolve(w, r)
	if !ok {
		return
	}
	eng := src.Engine()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Inspector-Epoch", strconv.FormatUint(eng.Epoch(), 10))
	// A mid-stream write error has no recourse; the status line is out.
	_ = eng.Analysis().ExportJSON(w)
}

// ValidSourceName keeps ingest source names usable as CPG ids and URL
// segments: 1-128 chars of [A-Za-z0-9._-].
func ValidSourceName(name string) bool {
	if len(name) == 0 || len(name) > 128 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// ingestStatusCode maps an ingest error to its HTTP status: conflicts a
// client can reconcile (offset re-read, different run) are 409;
// malformed input is 400.
func ingestStatusCode(err error) int {
	switch {
	case errors.Is(err, ErrEpochGap), errors.Is(err, ErrSourceSealed),
		errors.Is(err, ErrSourceDegraded), errors.Is(err, ErrRunConflict):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// handleIngestOffset serves the resume offset. 404 means the source is
// unknown: start at epoch 1.
func (s *Server) handleIngestOffset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("source")
	if src, ok := s.opts.Ingest.Source(name); ok {
		writeJSON(w, http.StatusOK, src.Status())
		return
	}
	writeJSON(w, http.StatusNotFound, apiError{Error: "unknown ingest source " + name})
}

// handleIngest consumes one POST body of frames: a hello, then deltas,
// optionally a seal. Deltas are validated and appended as they stream,
// so a connection cut mid-body retains the applied prefix — the client
// re-reads the offset and resumes. The body is folded and published
// once, as the epoch of its last applied delta, whichever way it ends
// and before the response: an answered POST is queryable. Any error
// stops the read and reports it; everything already applied stays
// durable.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	hub := s.opts.Ingest
	name := r.PathValue("source")
	if !ValidSourceName(name) {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad source name " + strconv.Quote(name)})
		return
	}
	if _, taken := s.sources[name]; taken {
		writeJSON(w, http.StatusConflict, apiError{Error: "source name " + name + " is served statically"})
		return
	}
	fr := wire.NewReader(http.MaxBytesReader(w, r.Body, maxIngestBodyBytes), wire.DefaultMaxFrameBytes)
	kind, body, err := fr.Next()
	if err != nil {
		msg := "empty ingest body"
		if err != io.EOF {
			msg = "hello frame: " + err.Error()
		}
		writeJSON(w, http.StatusBadRequest, apiError{Error: msg})
		return
	}
	if kind != wire.KindHeader {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "first frame must be a header (hello)"})
		return
	}
	var hello wire.Hello
	if err := wire.Decode(body, &hello); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "hello decode: " + err.Error()})
		return
	}
	src, err := hub.bind(name, hello)
	if err != nil {
		writeJSON(w, ingestStatusCode(err), apiError{Error: err.Error()})
		return
	}

	accepted, dups, err := ingestFrames(fr, src)
	src.flush()
	if err != nil {
		writeJSON(w, ingestStatusCode(err), apiError{Error: err.Error()})
		return
	}
	st := src.Status()
	st.Accepted, st.Duplicates = accepted, dups
	writeJSON(w, http.StatusOK, st)
}

// ingestFrames applies the frames after the hello until the body ends
// or one fails, counting the applied and the duplicate deltas.
func ingestFrames(fr *wire.Reader, src *IngestSource) (accepted, dups int, err error) {
	for {
		kind, body, err := fr.Next()
		if err == io.EOF {
			return accepted, dups, nil
		}
		if err != nil {
			return accepted, dups, fmt.Errorf("frame: %w", err)
		}
		switch kind {
		case wire.KindDelta:
			d := new(core.EpochDelta)
			if err := wire.Decode(body, d); err != nil {
				return accepted, dups, fmt.Errorf("delta decode: %w", err)
			}
			applied, err := src.apply(d)
			if err != nil {
				return accepted, dups, err
			}
			if applied {
				accepted++
			} else {
				dups++
			}
		case wire.KindSeal:
			var seal wire.Seal
			if err := wire.Decode(body, &seal); err != nil {
				return accepted, dups, fmt.Errorf("seal decode: %w", err)
			}
			if err := src.seal(seal.FinalEpoch); err != nil {
				return accepted, dups, err
			}
		default:
			return accepted, dups, fmt.Errorf("unknown frame kind %d", kind)
		}
	}
}
