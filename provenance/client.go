package provenance

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ServerError is a non-2xx API response, carrying the HTTP status so
// callers can tell a missing resource (404: start streaming at epoch 1)
// from a conflict (409: re-read the resume offset) without string
// matching.
type ServerError struct {
	Status int
	Msg    string
}

func (e *ServerError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("provenance: server: %s (HTTP %d)", e.Msg, e.Status)
	}
	return fmt.Sprintf("provenance: server returned HTTP %d", e.Status)
}

// serverStatus extracts the HTTP status from a ServerError chain (0
// when err is not a server response).
func serverStatus(err error) int {
	var se *ServerError
	if errors.As(err, &se) {
		return se.Status
	}
	return 0
}

// Client speaks the provenance/v1 HTTP API (inspector-serve, or any
// handler built from NewServer). The zero HTTPClient uses
// http.DefaultClient. cpg-query -remote is a thin wrapper around it.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:7777".
	BaseURL string
	// HTTPClient overrides the transport (nil = http.DefaultClient).
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts after a retryable failure — a
	// transport error, or HTTP 502/503/504 (the statuses a draining or
	// load-shedding daemon answers with). 0 disables retries: each call
	// issues exactly one request, the pre-hardening behaviour.
	MaxRetries int
	// RetryBase is the first backoff delay (default 100ms). Delays
	// double per attempt with ±50% jitter, capped at 5s; a server
	// Retry-After hint overrides the computed delay, and context
	// cancellation interrupts the wait.
	RetryBase time.Duration
}

// List fetches the served CPGs.
func (c *Client) List(ctx context.Context) ([]CPGInfo, error) {
	var list CPGList
	if err := c.do(ctx, http.MethodGet, "/v1/cpgs", nil, "", &list); err != nil {
		return nil, err
	}
	if list.Version != Version {
		return nil, fmt.Errorf("provenance: server speaks %q, this client %q", list.Version, Version)
	}
	return list.CPGs, nil
}

// Query executes q against the CPG with the given id.
func (c *Client) Query(ctx context.Context, id string, q Query) (*Result, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return nil, err
	}
	return c.result(ctx, http.MethodPost, "/v1/cpgs/"+id+"/query", body, "application/json")
}

// Stats fetches the summary of one CPG.
func (c *Client) Stats(ctx context.Context, id string) (*Result, error) {
	return c.result(ctx, http.MethodGet, "/v1/cpgs/"+id+"/stats", nil, "")
}

// bodies recycles the buffers answers are read into: decodeResult
// copies out everything an answer keeps. One over maxPooledBody is let go.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// result fetches one answer's body and reads it once (decodeResult).
func (c *Client) result(ctx context.Context, method, path string, body []byte, contentType string) (*Result, error) {
	buf := bodies.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodies.Put(buf)
		}
	}()
	if err := c.do(ctx, method, path, body, contentType, buf); err != nil {
		return nil, err
	}
	res := new(Result)
	if err := decodeResult(buf.Bytes(), res); err != nil {
		return nil, err
	}
	if res.Version != Version {
		return nil, fmt.Errorf("provenance: server speaks %q, this client %q", res.Version, Version)
	}
	return res, nil
}

// maxResponseBytes bounds one response body the client reads. A longer
// one is an error, never a silently truncated answer.
const maxResponseBytes = 64 << 20

// do issues a request with bounded retries and decodes the JSON
// response into out (a *bytes.Buffer or *[]byte out takes the raw body
// instead), surfacing the server's error body on non-2xx statuses.
// Retryable failures (transport errors, 502/503/504) back off
// exponentially with jitter, honoring the server's Retry-After hint and
// the context's cancellation; everything else fails immediately. Every
// client path — queries, ingest streaming, epoch watching — rides this
// one loop, so they share one backoff discipline.
func (c *Client) do(ctx context.Context, method, path string, body []byte, contentType string, out any) error {
	delay := c.RetryBase
	if delay <= 0 {
		delay = 100 * time.Millisecond
	}
	const maxDelay = 5 * time.Second
	for attempt := 0; ; attempt++ {
		err, retryAfter, retryable := c.doOnce(ctx, method, path, body, contentType, out)
		if err == nil || !retryable || attempt >= c.MaxRetries || ctx.Err() != nil {
			return err
		}
		wait := delay
		if retryAfter > 0 {
			wait = retryAfter
		}
		// ±50% jitter keeps retrying clients from re-converging on the
		// very load spike that shed them.
		wait = wait/2 + time.Duration(rand.Int63n(int64(wait)))
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}
	}
}

// doOnce issues exactly one request. It reports the server's Retry-After
// hint (0 when absent) and whether the failure is worth retrying.
func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, contentType string, out any) (err error, retryAfter time.Duration, retryable bool) {
	url := strings.TrimSuffix(c.BaseURL, "/") + path
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err, 0, false
	}
	if body != nil && contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		// Transport-level failures (connection refused, reset) are the
		// textbook retry case — unless the caller's context ended.
		return err, 0, ctx.Err() == nil
	}
	defer resp.Body.Close()
	buf, reuse := out.(*bytes.Buffer)
	if !reuse {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, maxResponseBytes+1)); err != nil {
		return err, 0, ctx.Err() == nil
	}
	data := buf.Bytes()
	if len(data) > maxResponseBytes {
		return fmt.Errorf("provenance: %s %s: response exceeds the client's %d MiB cap", method, path, maxResponseBytes>>20), 0, false
	}
	if resp.StatusCode != http.StatusOK {
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, perr := strconv.Atoi(s); perr == nil && secs >= 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
		}
		retryable = resp.StatusCode == http.StatusBadGateway ||
			resp.StatusCode == http.StatusServiceUnavailable ||
			resp.StatusCode == http.StatusGatewayTimeout
		var ae apiError
		if json.Unmarshal(data, &ae) == nil && ae.Error != "" {
			return &ServerError{Status: resp.StatusCode, Msg: ae.Error}, retryAfter, retryable
		}
		return &ServerError{Status: resp.StatusCode}, retryAfter, retryable
	}
	switch out := out.(type) {
	case *bytes.Buffer:
		return nil, 0, false
	case *[]byte:
		*out = data
		return nil, 0, false
	}
	return json.Unmarshal(data, out), 0, false
}

// WaitEpoch long-polls the push wire: it returns once the source's
// published epoch reaches min, the server-side wait expires (the
// returned status simply carries the current epoch; re-poll), or the
// source reports Closed. Retries and Retry-After handling are the same
// as for queries.
func (c *Client) WaitEpoch(ctx context.Context, id string, min uint64, wait time.Duration) (*EpochStatus, error) {
	path := "/v1/cpgs/" + id + "/epochs?min=" + strconv.FormatUint(min, 10)
	if wait > 0 {
		path += "&wait=" + wait.String()
	}
	var st EpochStatus
	if err := c.do(ctx, http.MethodGet, path, nil, "", &st); err != nil {
		return nil, err
	}
	if st.Version != Version {
		return nil, fmt.Errorf("provenance: server speaks %q, this client %q", st.Version, Version)
	}
	return &st, nil
}

// IngestOffset fetches a source's resume offset. ok=false with a nil
// error means the aggregator does not know the source: start streaming
// at epoch 1.
func (c *Client) IngestOffset(ctx context.Context, source string) (st *IngestStatus, ok bool, err error) {
	var got IngestStatus
	if err := c.do(ctx, http.MethodGet, "/v1/ingest/"+source, nil, "", &got); err != nil {
		if serverStatus(err) == http.StatusNotFound {
			return nil, false, nil
		}
		return nil, false, err
	}
	return &got, true, nil
}

// Ingest posts one body of epoch-delta frames (hello + deltas +
// optional seal, encoded with EncodeFrames) to the aggregator. The
// frame body is replayable, so transport failures and 502/503/504
// retry under the shared backoff; the server's dedup makes the retries
// harmless.
func (c *Client) Ingest(ctx context.Context, source string, frames []byte) (*IngestStatus, error) {
	var st IngestStatus
	if err := c.do(ctx, http.MethodPost, "/v1/ingest/"+source, frames, "application/octet-stream", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Export fetches a CPG's pinned epoch as .cpg file bytes (cpgfile
// format, no run metadata in the header) — the fabric's
// byte-comparison surface.
func (c *Client) Export(ctx context.Context, id string) ([]byte, error) {
	var raw []byte
	if err := c.do(ctx, http.MethodGet, "/v1/cpgs/"+id+"/export", nil, "", &raw); err != nil {
		return nil, err
	}
	return raw, nil
}
