package provenance

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/epoch"
)

// The distributed-fabric endpoints:
//
//	POST /v1/ingest/{source}            stream epoch-delta frames in
//	GET  /v1/ingest/{source}            resume offset (next expected epoch)
//	GET  /v1/cpgs/{id}/epochs?min=&wait=  long-poll epoch push
//	GET  /v1/cpgs/{id}/export           the pinned epoch as a .cpg file
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

// handleExport serves the pinned epoch as a .cpg file — what cpg-query
// -cpg and inspector-serve -cpgdir read, and the byte-comparison
// surface the fabric's correctness anchor rests on: these bytes are the
// recorder's own fold at the same epoch, encoded without run metadata.
// The file's header carries the epoch and the degraded flag. It is
// encoded into memory first, so a failed encode is a 500 with the
// error, never a truncated 200.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	src, ok := s.resolve(w, r)
	if !ok {
		return
	}
	var buf bytes.Buffer
	if err := cpgfile.Encode(&buf, src.Engine().Analysis(), cpgfile.Meta{}); err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes()) // the status line is out; a write error has no recourse
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
// malformed or invalid input is 400.
func ingestStatusCode(err error) int {
	switch {
	case errors.Is(err, ErrEpochGap), errors.Is(err, epoch.ErrSealMismatch), errors.Is(err, ErrSourceSealed),
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

// handleIngest consumes one POST body of frames (IngestHub.ingest).
// Deltas apply as they stream, so a connection cut mid-body retains the
// applied prefix, and the body is published before the response: an
// answered POST is queryable. Any error stops the read and reports it;
// everything already applied stays durable.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("source")
	if !ValidSourceName(name) {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad source name " + strconv.Quote(name)})
		return
	}
	if _, taken := s.sources[name]; taken {
		writeJSON(w, http.StatusConflict, apiError{Error: "source name " + name + " is served statically"})
		return
	}
	st, err := s.opts.Ingest.ingest(name, http.MaxBytesReader(w, r.Body, maxIngestBodyBytes))
	if err != nil {
		writeJSON(w, ingestStatusCode(err), apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}
