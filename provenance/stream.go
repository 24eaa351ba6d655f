package provenance

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/epoch"
	"github.com/repro/inspector/internal/wire"
)

// The recorder side of the fabric: an Uploader is the epoch pipeline's
// stream sink — it ships each cut epoch's frame to an aggregator
// instead of (or, listed after it, alongside) a local journal.
// Recording never blocks on the network: epochs enqueue as bytes, a
// sender goroutine ships the whole backlog per POST, and a dead
// aggregator costs queue memory, not workload progress. The journal
// stays the durability anchor: it writes the very frames the uploader
// queues, encoded once by the epoch driver, so after a recorder SIGKILL
// inspector-recover -stream posts the journal's own frames (Refeed) and
// the aggregator's dedup makes the resend converge.

// maxUploadBytes is the byte budget of one ingest POST: a body stops
// after the delta frame that takes it to the budget or past it, so no
// body exceeds the budget by more than one frame, and a body with a
// delta to take always takes one, whatever its size. It sits far below
// the aggregator's body cap (maxIngestBodyBytes).
const maxUploadBytes = 16 << 20

// bodyTakes is the one body policy of Refeed and the Uploader: an
// ingest body that is size bytes long, hello included, and holds n
// delta frames takes the next frame while it holds fewer than batch
// (batch ≤ 0: no count cap) and, unless it holds none, is shorter than
// maxUploadBytes.
func bodyTakes(size, n, batch int) bool {
	return (batch <= 0 || n < batch) && (n == 0 || size < maxUploadBytes)
}

// arenaChunk sizes the chunks the Uploader copies frames into.
const arenaChunk = 64 << 10

// EncodeFrames builds one ingest request body: the hello, then the
// deltas in epoch order, then the optional seal. BaseEpoch is stamped
// from the first delta.
func EncodeFrames(hello wire.Hello, deltas []*core.EpochDelta, seal *wire.Seal) (body []byte, err error) {
	if len(deltas) > 0 {
		hello.BaseEpoch = deltas[0].Epoch
	}
	body, err = wire.AppendFrame(nil, wire.KindHeader, &hello)
	for i := 0; err == nil && i < len(deltas); i++ {
		body, err = wire.AppendFrame(body, wire.KindDelta, deltas[i])
	}
	if err == nil && seal != nil {
		body, err = wire.AppendFrame(body, wire.KindSeal, seal)
	}
	if err != nil {
		return nil, err
	}
	return body, nil
}

// Refeed posts a recorded frame stream — a journal after its preamble,
// as journal.Recovery.Frames reads it — to an aggregator: the resume
// path after a streaming recorder died. The frames after the hello go
// verbatim, undecoded, in POSTs of whole frames cut as the Uploader
// cuts its queue (bodyTakes, with batch as the count cap), each behind
// a copy of the hello whose BaseEpoch is its first delta's; a whole
// journal usually costs one POST. The aggregator's dedup makes
// re-feeding from epoch 1 safe. The status returned is the last POST's,
// with Accepted and Duplicates summed over the re-feed.
func Refeed(ctx context.Context, c *Client, source string, stream io.Reader, batch int) (*IngestStatus, error) {
	// One bufio.Reader under both: wire.NewReader adopts it as is, so the
	// raw frame copies below continue where the hello ended.
	br := bufio.NewReader(stream)
	hello, err := epoch.ReadHello(wire.NewReader(br, 0))
	if err != nil {
		return nil, err
	}
	var accepted, dups int
	for {
		frame, err := wire.AppendFrame(nil, wire.KindHeader, &hello)
		if err != nil {
			return nil, err
		}
		body, n := bytes.NewBuffer(frame), 0
		for bodyTakes(body.Len(), n, batch) {
			hdr, err := br.Peek(wire.FrameOverhead + 1)
			if len(hdr) == 0 && err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("provenance: re-feed: %w", wire.ErrShortHeader)
			}
			if hdr[wire.FrameOverhead] == wire.KindDelta {
				n++
			}
			// hdr aliases br's buffer: read it before the copy.
			if _, err := io.CopyN(body, br, wire.FrameOverhead+int64(binary.LittleEndian.Uint32(hdr))); err != nil {
				return nil, fmt.Errorf("provenance: re-feed: %w", wire.ErrShortFrame)
			}
		}
		st, err := c.Ingest(ctx, source, body.Bytes())
		if err != nil {
			return nil, err
		}
		accepted += st.Accepted
		dups += st.Duplicates
		if _, err := br.Peek(1); err == io.EOF {
			st.Accepted, st.Duplicates = accepted, dups
			return st, nil
		}
		hello.BaseEpoch += uint64(n)
	}
}

// StreamOptions configure an Uploader (and a StreamRecorder around it).
type StreamOptions struct {
	// Source names the per-source CPG on the aggregator (required;
	// [A-Za-z0-9._-]{1,128}).
	Source string
	// RunID binds the stream to a run identity (required). Use the same
	// id for the journal when both are active, so a journal-based
	// resume matches the aggregator's binding.
	RunID string
	// App names the workload (informational).
	App string
	// Batch caps the deltas per POST (default 0: no count cap). Each
	// POST otherwise carries every pending delta up to the uploader's
	// byte budget; the cap is for tests that want many POSTs.
	Batch int
	// MaxResyncs bounds consecutive offset re-reads after upload
	// failures before the sender latches a terminal error (default 8).
	// A successful upload resets the count.
	MaxResyncs int
}

// requestTimeout bounds one upload attempt (or offset re-read)
// including the client's internal retries.
const requestTimeout = 60 * time.Second

// Uploader is the stream sink. Upload errors latch in its sender and
// surface from Wait, never from Emit: a dead aggregator must not stop
// the recording.
type Uploader struct {
	c     *Client
	opts  StreamOptions
	hello wire.Hello

	// arena is the chunk Emit copies frames into (only Emit touches it).
	// A chunk never moves, so the sender reads frames without the lock.
	arena []byte

	mu      sync.Mutex
	pending []queued // the unacknowledged epochs, in order
	sendErr error

	// body is the sender's POST body buffer, reused for the next body
	// once a POST of it succeeded: the aggregator read it whole, so the
	// transport holds no reference to it.
	body []byte

	notify     chan struct{}
	done       chan uint64 // Finish sends the seal's epoch, once
	senderDone chan struct{}
	ctx        context.Context
	cancel     context.CancelFunc
}

// queued is one unacknowledged epoch: its number and its frame.
type queued struct {
	epoch uint64
	frame []byte
}

// NewUploader builds the sink streaming a threads-wide graph's epoch
// deltas to c's aggregator and starts its sender goroutine (Wait stops
// it). A width the hello cannot carry, outside [1, wire.MaxThreads], is
// refused here, before the run, as journal.Create refuses it.
func NewUploader(c *Client, threads int, opts StreamOptions) (*Uploader, error) {
	if threads < 1 || threads > wire.MaxThreads {
		return nil, fmt.Errorf("provenance: stream threads %d out of range [1,%d]", threads, wire.MaxThreads)
	}
	if !ValidSourceName(opts.Source) {
		return nil, fmt.Errorf("provenance: bad stream source name %q", opts.Source)
	}
	if opts.RunID == "" {
		return nil, fmt.Errorf("provenance: stream needs a run id")
	}
	if opts.MaxResyncs <= 0 {
		opts.MaxResyncs = 8
	}
	u := &Uploader{
		c:          c,
		opts:       opts,
		hello:      wire.Hello{RunID: opts.RunID, App: opts.App, Threads: threads},
		notify:     make(chan struct{}, 1),
		done:       make(chan uint64, 1),
		senderDone: make(chan struct{}),
	}
	u.ctx, u.cancel = context.WithCancel(context.Background())
	go u.sender()
	return u, nil
}

// Emit copies the epoch's frame into the queue and wakes the sender
// (epoch.Sink). A frame that failed to encode latches the sender, as a
// terminal upload error does: nothing after it can ship.
func (u *Uploader) Emit(c core.Cut, frame epoch.Frame) error {
	b, err := frame()
	if err != nil {
		u.latch(err)
		return err
	}
	if cap(u.arena)-len(u.arena) < len(b) {
		u.arena = make([]byte, 0, max(arenaChunk, len(b)))
	}
	at := len(u.arena)
	u.arena = append(u.arena, b...)
	u.mu.Lock()
	u.pending = append(u.pending, queued{epoch: c.Epoch, frame: u.arena[at:len(u.arena):len(u.arena)]})
	u.mu.Unlock()
	select {
	case u.notify <- struct{}{}:
	default:
	}
	return nil
}

// Finish tells the sender the stream ends at epoch final: drain, upload
// the seal frame, exit (epoch.Sink). It does not wait for that; Wait does.
func (u *Uploader) Finish(final uint64) error {
	u.done <- final
	return nil
}

// Err returns the sender's latched terminal error, if any. Recording
// itself never fails on upload errors; the journal (when present)
// still holds every epoch.
func (u *Uploader) Err() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.sendErr
}

// Pending returns the count of queued-but-unacknowledged epochs.
func (u *Uploader) Pending() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.pending)
}

// sender is the upload goroutine: it drains the queue at each wake-up
// and exits once the seal has shipped or a terminal error latched.
func (u *Uploader) sender() {
	defer close(u.senderDone)
	var seal *wire.Seal
	for seal == nil {
		select {
		case <-u.notify:
		case final := <-u.done:
			seal = &wire.Seal{FinalEpoch: final}
		}
		seal = u.drain(seal)
	}
}

// latch records the first terminal sender error.
func (u *Uploader) latch(err error) {
	u.mu.Lock()
	if u.sendErr == nil {
		u.sendErr = err
	}
	u.mu.Unlock()
}

// queue returns the queued frames' index. Emit only appends past it,
// and ack, which clears acknowledged entries, runs on the sender only,
// after their body: the sender reads the frames after the lock.
func (u *Uploader) queue() []queued {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.pending
}

// nextBody builds one ingest request body in dst's array: the hello,
// whole frames of pending while bodyTakes them, then the seal if it
// took them all. It returns the body and the count of frames taken.
func (u *Uploader) nextBody(dst []byte, pending []queued, seal *wire.Seal) (body []byte, n int, err error) {
	hello := u.hello
	if len(pending) > 0 {
		hello.BaseEpoch = pending[0].epoch
	}
	if body, err = wire.AppendFrame(dst[:0], wire.KindHeader, &hello); err != nil {
		return nil, 0, err
	}
	for ; n < len(pending) && bodyTakes(len(body), n, u.opts.Batch); n++ {
		body = append(body, pending[n].frame...)
	}
	if seal != nil && n == len(pending) {
		if body, err = wire.AppendFrame(body, wire.KindSeal, seal); err != nil {
			return nil, 0, err
		}
	}
	return body, n, nil
}

// ack drops the queued epochs the aggregator acknowledged (epoch <
// nextEpoch).
func (u *Uploader) ack(nextEpoch uint64) {
	u.mu.Lock()
	defer u.mu.Unlock()
	keep := 0
	for keep < len(u.pending) && u.pending[keep].epoch < nextEpoch {
		keep++
	}
	clear(u.pending[:keep]) // frees the arena chunks only acked frames hold
	u.pending = u.pending[keep:]
}

// drain group-commits the queue: each POST carries every queued frame
// up to the byte budget (and opts.Batch), until the queue is empty or a
// terminal error latches. A Finish that arrives mid-drain joins it:
// Finish follows the final Emit, so from then on the queue is the
// stream's tail and the seal rides its last body. drain returns the seal
// once it has shipped or been given up on, nil while the stream is open.
// Upload failures trigger an offset resync: re-read the aggregator's
// next expected epoch, drop what it already holds, and try again — a
// reconnecting recorder never re-sends an acknowledged epoch and never
// skips one.
func (u *Uploader) drain(seal *wire.Seal) *wire.Seal {
	resyncs := 0
	for u.Err() == nil {
		if seal == nil {
			select {
			case final := <-u.done:
				seal = &wire.Seal{FinalEpoch: final}
			default:
			}
		}
		pending := u.queue()
		if len(pending) == 0 && seal == nil {
			return nil
		}
		body, n, err := u.nextBody(u.body, pending, seal)
		if err != nil {
			u.latch(err)
			break
		}
		ctx, cancel := context.WithTimeout(u.ctx, requestTimeout)
		st, err := u.c.Ingest(ctx, u.opts.Source, body)
		cancel()
		// A failed POST's body may still be read by the transport after
		// Ingest returns (a response that came before the body went), so
		// only a successful one's buffer is reused.
		u.body = nil
		if err == nil {
			u.body = body
			resyncs = 0
			u.ack(st.NextEpoch)
			if seal != nil && n == len(pending) {
				return seal // the body carried it: the stream is cleanly finished
			}
			continue
		}
		if u.ctx.Err() != nil {
			u.latch(err)
			break
		}
		// Conflicts (the aggregator is ahead, or bound to another run)
		// and transport-class failures resync against the offset; bad
		// input (400) is terminal — re-sending it cannot help.
		if code := serverStatus(err); code != 0 && code != http.StatusConflict &&
			code != http.StatusBadGateway && code != http.StatusServiceUnavailable && code != http.StatusGatewayTimeout {
			u.latch(err)
			break
		}
		if resyncs++; resyncs > u.opts.MaxResyncs {
			u.latch(fmt.Errorf("provenance: stream upload failed after %d resyncs: %w", resyncs-1, err))
			break
		}
		if rerr := u.resync(); rerr != nil {
			u.latch(rerr)
			break
		}
	}
	return seal
}

// resync re-reads the resume offset and reconciles the queue with it.
func (u *Uploader) resync() error {
	ctx, cancel := context.WithTimeout(u.ctx, requestTimeout)
	defer cancel()
	st, found, err := u.c.IngestOffset(ctx, u.opts.Source)
	if err != nil {
		return nil // transient: the retry loop will come back around
	}
	if !found {
		// The aggregator has no state for the source. Everything still
		// queued uploads from its own epoch; that only works if nothing
		// acknowledged-and-pruned is missing.
		u.mu.Lock()
		defer u.mu.Unlock()
		if len(u.pending) > 0 && u.pending[0].epoch > 1 {
			return fmt.Errorf("provenance: aggregator lost source %s (wants epoch 1, oldest queued is %d); re-feed from the journal",
				u.opts.Source, u.pending[0].epoch)
		}
		return nil
	}
	if st.RunID != u.hello.RunID {
		return fmt.Errorf("%w: source %s bound to run %s, this recorder is run %s",
			ErrRunConflict, u.opts.Source, st.RunID, u.hello.RunID)
	}
	u.ack(st.NextEpoch)
	u.mu.Lock()
	defer u.mu.Unlock()
	if len(u.pending) > 0 && u.pending[0].epoch > st.NextEpoch {
		return fmt.Errorf("provenance: aggregator lost epochs [%d,%d) of source %s; re-feed from the journal",
			st.NextEpoch, u.pending[0].epoch, u.opts.Source)
	}
	return nil
}

// Wait flushes the queue (seal included) and stops the sender. Call it
// after the driver's Close (which is what calls Finish). ctx bounds the
// flush: on expiry the in-flight upload is aborted and Wait returns
// with the queue possibly non-empty — the journal, when present, still
// has everything. Wait returns the sender's first terminal error, if
// any.
func (u *Uploader) Wait(ctx context.Context) error {
	select {
	case <-u.senderDone:
	case <-ctx.Done():
		u.cancel()
		<-u.senderDone
	}
	u.cancel()
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.sendErr != nil {
		return u.sendErr
	}
	if n := len(u.pending); n > 0 {
		return fmt.Errorf("provenance: stream closed with %d epochs unshipped", n)
	}
	return nil
}

// StreamRecorder is the stand-alone streaming pipeline: an epoch.Driver
// (CommitHook, Epoch) with one Uploader as its only sink.
type StreamRecorder struct {
	*epoch.Driver
	*Uploader
	g      *core.Graph
	closed atomic.Bool
}

// NewStreamRecorder builds a recorder streaming g's epoch deltas to c's
// aggregator, one per commit seal.
func NewStreamRecorder(g *core.Graph, c *Client, opts StreamOptions) (*StreamRecorder, error) {
	u, err := NewUploader(c, g.Threads(), opts)
	if err != nil {
		return nil, err
	}
	return &StreamRecorder{Driver: epoch.NewDriver(g, epoch.Options{}, u), Uploader: u, g: g}, nil
}

// Analysis folds the recorded graph once, numbered by the final cut:
// byte for byte what the aggregator serves at that epoch. It is nil
// before Close, while the graph may still grow past the last cut.
func (r *StreamRecorder) Analysis() *core.Analysis {
	if !r.closed.Load() {
		return nil
	}
	return r.g.AnalyzeAs(r.Epoch())
}

// Close cuts the final epoch, flushes the queue bounded by ctx (see
// Uploader.Wait), and stops the sender.
func (r *StreamRecorder) Close(ctx context.Context) error {
	r.Driver.Close()
	r.closed.Store(true)
	return r.Wait(ctx)
}
