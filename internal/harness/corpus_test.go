package harness

// The recorded corpus: each (workload, threads) configuration at the
// small size and seed 1 is recorded once per test process, through the
// product assembly (inspector.New with a journal, a live feed and a
// stream into an in-process aggregator — what inspector-run -journal
// -stream -live-stats wires), and every sweep is a table of checks
// derived from that one recording: the export drift pins, the .cpg
// round trip, the fabric deliveries (which replay the journal's deltas)
// and recovered = uninterrupted. Tests that need a seam
// inspector.Options does not have assemble their own pipeline on
// bareRuntime and say why.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/repro/inspector"
	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/threading"
	"github.com/repro/inspector/internal/wire"
	"github.com/repro/inspector/internal/workloads"
	"github.com/repro/inspector/provenance"
)

// recording is what one run leaves behind. Everything in it is shared
// between tests: read it, never mutate it (cpgfile.Load the .cpg for a
// private copy of the graph).
type recording struct {
	// hello is the run's stream identity (run id app-tN-s1); the
	// corpus aggregator serves the run under hello.RunID.
	hello    wire.Hello
	analysis *core.Analysis // batch analysis of the recorded graph
	// jsonSHA and dotSHA are the SHA-256 of the graph's two renders (the
	// JSON one runs to 50 MB; 24 of them are not kept).
	jsonSHA, dotSHA string
	epoch           uint64 // epochs the run folded
	fold            []byte // analysis document of the run's own last fold
	journal         string // sealed journal directory, one record per epoch
	cpg             string // the run's own .cpg file
}

// recordedCorpus memoises recordings per process.
type recordedCorpus struct {
	mu       sync.Mutex
	agg      *httptest.Server // every recording streams here
	runs     map[string]*recording
	recorded int // runs actually executed
}

var corpus recordedCorpus

// scratch is a process-wide directory for what outlives one test: the
// corpus's journals and .cpg files, and the binaries buildTool compiles.
var scratch = sync.OnceValues(func() (string, error) { return os.MkdirTemp("", "inspector-harness-") })

func TestMain(m *testing.M) {
	code := m.Run()
	if corpus.agg != nil {
		corpus.agg.Close()
	}
	if dir, err := scratch(); err == nil {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}

// smallWorkload is one configuration of the sweeps.
func smallWorkload(t *testing.T, app string, threads int) (workloads.Workload, workloads.Config) {
	t.Helper()
	w, err := workloads.Get(app)
	if err != nil {
		t.Fatal(err)
	}
	return w, workloads.Config{Size: workloads.Small, Threads: threads, Seed: 1}
}

// bareRuntime prepares one small workload on a threading runtime with
// no pipeline attached, for the tests that wire their own.
func bareRuntime(t *testing.T, app string, threads int) (*threading.Runtime, func() error) {
	t.Helper()
	w, cfg := smallWorkload(t, app, threads)
	rt, err := threading.NewRuntime(threading.Options{
		AppName:    app,
		Mode:       threading.ModeInspector,
		MaxThreads: w.MaxThreads(cfg),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt, func() error { return w.Run(rt, cfg) }
}

// get returns the configuration's recording, making it on first use.
func (c *recordedCorpus) get(t *testing.T, app string, threads int) *recording {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	id := runID(app, threads)
	if r := c.runs[id]; r != nil {
		return r
	}
	if c.agg == nil {
		c.agg = httptest.NewServer(provenance.NewServer(nil, provenance.ServerOptions{
			Ingest: provenance.NewIngestHub(provenance.IngestOptions{}),
		}))
		c.runs = map[string]*recording{}
	}
	r := record(t, c.agg.URL, app, threads)
	c.recorded++
	c.runs[id] = r
	return r
}

// runID is the identity inspector-run gives a seed-1 run.
func runID(app string, threads int) string { return fmt.Sprintf("%s-t%d-s1", app, threads) }

// record runs one configuration through inspector.New, streaming to the
// aggregator at aggURL under its run id.
func record(t *testing.T, aggURL, app string, threads int) *recording {
	t.Helper()
	id := runID(app, threads)
	root, err := scratch()
	if err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(root, id+"-")
	if err != nil {
		t.Fatal(err)
	}
	w, cfg := smallWorkload(t, app, threads)
	r := &recording{journal: filepath.Join(dir, "journal"), cpg: filepath.Join(dir, "run.cpg")}
	rec, err := inspector.New(inspector.Options{
		AppName:           app,
		MaxThreads:        w.MaxThreads(cfg),
		Live:              true,
		Journal:           r.journal,
		JournalFsync:      "none",
		JournalEverySeals: 4,
		Stream:            aggURL,
		RunID:             id,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(rec.Unwrap(), cfg); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := errors.Join(rec.Close(), rec.WaitStream(ctx)); err != nil {
		t.Fatalf("%s: close: %v", id, err)
	}
	r.analysis, r.epoch = rec.Analysis(), rec.Epoch()
	r.hello = wire.Hello{RunID: id, App: app, Threads: rec.CPG().Threads()}
	r.fold = exportAnalysisJSON(t, rec.Source().Engine().Analysis())
	r.jsonSHA, r.dotSHA = renderSHA(t, rec.CPG().EncodeJSON), renderSHA(t, rec.CPG().WriteDOT)
	f, err := os.Create(r.cpg)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(rec.WriteCPG(f), f.Close()); err != nil {
		t.Fatal(err)
	}
	return r
}

// renderSHA is the SHA-256 of what render writes.
func renderSHA(t *testing.T, render func(io.Writer) error) string {
	t.Helper()
	h := sha256.New()
	if err := render(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCorpusRecordsEachConfigurationOnce pins the corpus's point: the
// drift, .cpg round-trip and fabric sweeps (and whoever else asks) make
// one recording per configuration between them, whichever runs first.
func TestCorpusRecordsEachConfigurationOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	for range 2 {
		for _, app := range workloads.Names() {
			for _, threads := range []int{1, 4} {
				corpus.get(t, app, threads)
			}
		}
	}
	if want := 2 * len(workloads.Names()); corpus.recorded != want {
		t.Fatalf("%d recordings made for %d configurations", corpus.recorded, want)
	}
}
