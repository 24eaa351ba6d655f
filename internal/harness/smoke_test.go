package harness

// The multi-process smoke rounds: the binaries built from source,
// talking over real sockets, files and signals. Plain `go test ./...`
// skips them; SMOKE=1 turns them on (scripts/serve-smoke.sh and
// scripts/load-smoke.sh, which CI's two smoke steps run, set it).
//
// Each round asserts what only separate processes can show. What an
// in-process test already pins is left to it and named at the round:
// every subcommand and format remote = local, pagination included
// (cmd/cpg-query TestRemoteMatchesLocal); an in-flight request
// finishing during the drain (cmd/inspector-serve
// TestServeGracefulDrain); a killed run's recovery = the clean run
// replayed to the same epoch (TestKillRecoverSweep).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/repro/inspector/internal/cpgfile/cpgtest"
	"github.com/repro/inspector/provenance"
)

func smoke(t *testing.T) {
	t.Helper()
	if os.Getenv("SMOKE") == "" {
		t.Skip("builds binaries and forks daemons: set SMOKE=1 (scripts/serve-smoke.sh and scripts/load-smoke.sh do)")
	}
}

var (
	toolsMu sync.Mutex
	tools   = map[string]string{}
)

// buildTool compiles one command, once per process, and returns the
// binary path.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	toolsMu.Lock()
	defer toolsMu.Unlock()
	if bin := tools[name]; bin != "" {
		return bin
	}
	dir, err := scratch()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, name)
	out, err := exec.Command("go", "build", "-o", bin, "github.com/repro/inspector/cmd/"+name).CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", name, err, out)
	}
	tools[name] = bin
	return bin
}

// tool runs one built command to completion and returns its stdout.
func tool(t *testing.T, name string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(buildTool(t, name), args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s%s", name, args, err, out, stderr.Bytes())
	}
	return out
}

// sigkilled reports whether err is a child that died of SIGKILL.
func sigkilled(err error) bool {
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		return false
	}
	ws, ok := exit.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL
}

// smallRun is inspector-run's argument list for one small seed-1 run.
func smallRun(app string, threads int, extra ...string) []string {
	return append([]string{"-app", app, "-threads", strconv.Itoa(threads), "-size", "small", "-seed", "1"}, extra...)
}

// recoveredCPG is the identity (cpgtest.File) of the .cpg
// inspector-recover replays a journal to: what an aggregator's GET
// /export serves for the same epoch.
func recoveredCPG(t *testing.T, dir string, extra ...string) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "recovered.cpg")
	tool(t, "inspector-recover", append([]string{"-journal", dir, "-q", "-cpg", out}, extra...)...)
	return cpgtest.File(t, out)
}

// httpGet fetches one URL that must answer 200.
func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v\n%s", url, resp.StatusCode, err, body)
	}
	return body
}

// getJSON GETs url and decodes its JSON body into v; it returns the
// body for failure messages.
func getJSON(t *testing.T, url string, v any) []byte {
	t.Helper()
	body := httpGet(t, url)
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: %v\n%s", url, err, body)
	}
	return body
}

// daemon is one running inspector-serve.
type daemon struct {
	cmd *exec.Cmd
	url string
	// log holds the daemon's stdout and stderr so far; drained closes
	// when both hit EOF, that is when the process has exited.
	mu      sync.Mutex
	log     bytes.Buffer
	drained chan struct{}
}

func (d *daemon) logged() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// stop signals the daemon and returns its exit status.
func (d *daemon) stop(sig os.Signal) error {
	d.cmd.Process.Signal(sig)
	<-d.drained
	return d.cmd.Wait()
}

var announced = regexp.MustCompile(` on (127\.0\.0\.1:\d+)$`)

// startServe launches inspector-serve on an OS-assigned port and waits
// for the line that announces its address, printed once it is ready.
func startServe(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{drained: make(chan struct{})}
	d.cmd = exec.Command(buildTool(t, "inspector-serve"), append(args, "-addr", "127.0.0.1:0")...)
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	d.cmd.Stderr = d.cmd.Stdout
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.stop(syscall.SIGKILL) })
	ready := make(chan struct{})
	go func() {
		defer close(d.drained)
		lines := bufio.NewScanner(out)
		for lines.Scan() {
			d.mu.Lock()
			d.log.WriteString(lines.Text() + "\n")
			d.mu.Unlock()
			if m := announced.FindStringSubmatch(lines.Text()); m != nil && d.url == "" {
				d.url = "http://" + m[1]
				close(ready)
			}
		}
	}()
	select {
	case <-ready:
	case <-d.drained:
		t.Fatalf("inspector-serve %v exited before it was ready:\n%s", args, d.logged())
	case <-time.After(30 * time.Second):
		t.Fatalf("inspector-serve %v never announced its address:\n%s", args, d.logged())
	}
	return d
}

// sameAnswers asks every query of two cpg-query targets (a .cpg file, a
// daemon) and demands byte-identical output.
func sameAnswers(t *testing.T, a, b []string, queries ...string) {
	t.Helper()
	for _, q := range queries {
		ask := func(target []string) []byte {
			return tool(t, "cpg-query", append(target[:len(target):len(target)], strings.Fields(q)...)...)
		}
		if x, y := ask(a), ask(b); !bytes.Equal(x, y) {
			t.Fatalf("cpg-query %s: %v answers\n%s\n%v answers\n%s", q, a, x, b, y)
		}
	}
}

// firstDataEdge is the lineage query ("lineage PAGE READER") for the
// first data edge cpg-query lists at target, "" when there is none.
func firstDataEdge(t *testing.T, target ...string) string {
	t.Helper()
	m := regexp.MustCompile(`^\S+ -> (\S+) \[data pages=\[(\d+)`).FindSubmatch(
		tool(t, "cpg-query", append(target, "edges", "data")...))
	if m == nil {
		return ""
	}
	return fmt.Sprintf("lineage %s %s", m[2], m[1])
}

// TestServeSmoke is scripts/serve-smoke.sh's rounds.
func TestServeSmoke(t *testing.T) {
	smoke(t)
	tmp := t.TempDir()
	cpg := filepath.Join(tmp, "histogram.cpg")
	tool(t, "inspector-run", smallRun("histogram", 1, "-cpg", cpg)...)
	var stats struct {
		Subs int `json:"sub_computations"`
	}
	if err := json.Unmarshal(tool(t, "cpg-query", "-cpg", cpg, "-format", "json", "stats"), &stats); err != nil || stats.Subs == 0 {
		t.Fatalf("stats of %s: %+v, %v", cpg, stats, err)
	}
	last := fmt.Sprintf("T0.%d", stats.Subs-1)

	// The daemon binary serving a recorded file answers the client
	// binary with the bytes the client computes from the file itself.
	t.Run("remote=local", func(t *testing.T) {
		lineage := firstDataEdge(t, "-cpg", cpg)
		if lineage == "" {
			t.Fatal("histogram recorded no data edge")
		}
		d := startServe(t, "-cpg", cpg)
		sameAnswers(t, []string{"-cpg", cpg}, []string{"-remote", d.url},
			"stats", "verify", "edges", "edges data", "slice "+last, "taint T0.0", "path T0.0 "+last,
			lineage, "-format json stats", "-format json slice "+last)
	})

	// SIGTERM: the process reports the documented health states, says
	// it is draining and exits 0.
	t.Run("drain", func(t *testing.T) {
		d := startServe(t, "-cpg", cpg)
		var health struct {
			OK bool `json:"ok"`
		}
		if body := getJSON(t, d.url+"/healthz", &health); !health.OK {
			t.Fatalf("/healthz: %s", body)
		}
		var ready provenance.ReadyStatus
		if body := getJSON(t, d.url+"/readyz", &ready); !ready.Ready {
			t.Fatalf("/readyz: %s", body)
		}
		if err := d.stop(syscall.SIGTERM); err != nil {
			t.Fatalf("daemon exited with %v after SIGTERM, want 0\n%s", err, d.logged())
		}
		if !strings.Contains(d.logged(), "draining") {
			t.Fatalf("no drain announcement in the log:\n%s", d.logged())
		}
	})

	// A SIGKILLed run's journal, recovered to a .cpg and served: the
	// summary and the daemon's listing both say degraded, and the served
	// graph answers with the bytes of the local engine over the file.
	t.Run("recovered-degraded", func(t *testing.T) {
		tmp := t.TempDir()
		journal := filepath.Join(tmp, "journal")
		err := exec.Command(buildTool(t, "inspector-run"),
			smallRun("histogram", 1, "-journal", journal, "-faults", "crash:after=1,count=1")...).Run()
		if !sigkilled(err) {
			t.Fatalf("crash fault: run exited with %v, want SIGKILL", err)
		}
		if sum := recoverJSON(t, journal); sum.Sealed || !sum.Degraded || sum.Epoch < 1 {
			t.Fatalf("killed journal summary %+v, want unsealed, degraded, a durable epoch", sum)
		}
		recovered := filepath.Join(tmp, "recovered.cpg")
		tool(t, "inspector-recover", "-journal", journal, "-q", "-cpg", recovered)
		d := startServe(t, "-cpg", recovered)
		var list provenance.CPGList
		body := getJSON(t, d.url+"/v1/cpgs", &list)
		if !slices.ContainsFunc(list.CPGs, func(c provenance.CPGInfo) bool { return c.Degraded }) {
			t.Fatalf("listing does not mark the recovered .cpg degraded:\n%s", body)
		}
		sameAnswers(t, []string{"-cpg", recovered}, []string{"-remote", d.url},
			"stats", "edges", "edges data", "slice T0.0", "taint T0.0", "verify")
	})

	// A directory served lazily under a resident budget one graph does
	// not fit in: same bytes as the eager file, and a repeated query is
	// answered by the result cache.
	t.Run("cpgdir", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.Link(cpg, filepath.Join(dir, "histogram.cpg")); err != nil {
			t.Fatal(err)
		}
		tool(t, "inspector-run", "-app", "word_count", "-threads", "1", "-size", "small", "-seed", "2",
			"-cpg", filepath.Join(dir, "word_count.cpg"))
		d := startServe(t, "-cpgdir", dir, "-resident-budget", "4096")
		sameAnswers(t, []string{"-cpg", cpg}, []string{"-remote", d.url, "-id", "histogram"},
			"stats", "verify", "edges", "edges data", "slice "+last, "taint T0.0", "-format json stats", "stats")
		var store provenance.StoreStats
		getJSON(t, d.url+"/v1/store", &store)
		if store.CPGs != 2 || store.ResultCache.Hits < 1 {
			t.Fatalf("/v1/store = %+v, want 2 cpgs and the repeated query a cache hit", store)
		}
	})

	t.Run("ingest", func(t *testing.T) { ingestRounds(t, startServe(t, "-ingest")) })
}

// ingestRounds is the fabric against one aggregator process: a run
// served while it records, the sealed stream against the run's own
// .cpg, a clean 4-thread journaled run, and a SIGKILLed one re-fed from
// its journal.
func ingestRounds(t *testing.T, d *daemon) {
	tmp := t.TempDir()
	ctx := context.Background()
	c := &provenance.Client{BaseURL: d.url}
	export := func(source string) []byte { return httpGet(t, d.url+"/v1/cpgs/"+source+"/export") }

	// slow-seal sleeps 1 ms at every commit (~4.8k), so the mid-run
	// window is seconds wide.
	const live = "canneal-t2-s1"
	own := filepath.Join(tmp, "own.cpg")
	run := exec.Command(buildTool(t, "inspector-run"), "-app", "canneal", "-threads", "2", "-size", "medium", "-seed", "1",
		"-cpg", own, "-stream", d.url, "-live-stats", "-faults", "slow-seal:every=1")
	var runOut bytes.Buffer
	run.Stdout, run.Stderr = &runOut, &runOut
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- run.Wait() }()
	t.Cleanup(func() { run.Process.Kill() })
	// 0 until the recorder's hello has created the source.
	epochNow := func() uint64 {
		res, err := c.Stats(ctx, live)
		if err != nil {
			return 0
		}
		return res.Epoch
	}
	e1 := epochNow()
	for deadline := time.Now().Add(10 * time.Second); e1 == 0; e1 = epochNow() {
		if time.Now().After(deadline) {
			t.Fatal("the streamed source never answered with an epoch")
		}
		time.Sleep(20 * time.Millisecond)
	}
	remote := []string{"-remote", d.url, "-id", live}
	watch := exec.Command(buildTool(t, "cpg-query"), append(remote, "watch")...)
	var watched bytes.Buffer
	watch.Stdout = &watched
	if err := watch.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { watch.Process.Kill() })
	// Every query kind answers mid-run (firstDataEdge asks "edges data").
	for _, q := range []string{"verify", "edges", "slice T0.1", "taint T0.0", "path T0.0 T0.1", firstDataEdge(t, remote...)} {
		if q != "" {
			tool(t, "cpg-query", append(remote, strings.Fields(q)...)...)
		}
	}
	e2 := epochNow()
	select {
	case err := <-exited:
		t.Fatalf("the streamed run ended (%v) before the mid-run queries did\n%s", err, runOut.Bytes())
	default:
	}
	if e2 <= e1 {
		t.Fatalf("epoch never advanced past %d while the run streamed", e1)
	}
	if err := <-exited; err != nil {
		t.Fatalf("streamed run: %v\n%s", err, runOut.Bytes())
	}
	if err := watch.Wait(); err != nil {
		t.Fatalf("watch did not exit 0 when the stream sealed: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(watched.String()), "\n")
	var prev uint64
	for _, line := range lines[:len(lines)-1] {
		var e uint64
		if _, err := fmt.Sscanf(line, "epoch %d", &e); err != nil || e <= prev {
			t.Fatalf("watch printed %q after epoch %d, want increasing epochs:\n%s", line, prev, watched.Bytes())
		}
		prev = e
	}
	if len(lines) < 3 || !strings.HasPrefix(lines[len(lines)-1], "closed (final epoch") {
		t.Fatalf("watch did not follow at least two epochs to a close:\n%s", watched.Bytes())
	}

	// Sealed, the source answers with the bytes of the run's own .cpg,
	// which is the run's final epoch: the stats epoch line included.
	sameAnswers(t, []string{"-cpg", own}, remote,
		"stats", "verify", "edges", "edges data", "slice T0.300", "taint T0.0")

	// Journal, stream and live stats are sinks of one fold: the run
	// reports one epoch count for all three, and the aggregator holds
	// the .cpg bytes of the run's own journal, recovered. (At >1
	// thread two runs never cut the same epochs, so the run's own
	// journal is the only reference.)
	clean := filepath.Join(tmp, "clean")
	report := tool(t, "inspector-run", smallRun("histogram", 4,
		"-journal", clean, "-stream", d.url, "-stream-id", "clean", "-live-stats")...)
	var counts []string
	for _, sink := range []string{`live analysis: +(\d+) epochs folded`, `journal: +(\d+) epochs sealed`, `stream: +(\d+) epochs shipped`} {
		m := regexp.MustCompile(`(?m)^` + sink).FindSubmatch(report)
		if m == nil {
			t.Fatalf("clean run reported no %q line:\n%s", sink, report)
		}
		counts = append(counts, string(m[1]))
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("live stats, journal and stream disagree on the epoch count: %v\n%s", counts, report)
	}
	if !bytes.Equal(export("clean"), recoveredCPG(t, clean)) {
		t.Fatal("clean stream's aggregator export diverges from the journal replay")
	}

	// SIGKILL at a commit boundary, after the fold journaled and queued
	// that very epoch; then re-feed the journal. Its record k is the
	// delta the wire carried as frame k, so dedup absorbs whatever prefix
	// made it out and the aggregator lands on the journal's durable
	// epoch — a deliberate prefix of it, not a truncation.
	killed := filepath.Join(tmp, "killed")
	err := exec.Command(buildTool(t, "inspector-run"), smallRun("histogram", 4,
		"-journal", killed, "-stream", d.url, "-faults", "crash:after=8,count=1")...).Run()
	if !sigkilled(err) {
		t.Fatalf("crash fault: streaming run exited with %v, want SIGKILL", err)
	}
	sum := recoverJSON(t, killed)
	if sum.Epoch < 1 || sum.RunID != "histogram-t4-s1" {
		t.Fatalf("killed streaming journal summary %+v, want a durable epoch of run histogram-t4-s1", sum)
	}
	if out := tool(t, "inspector-recover", "-journal", killed, "-stream", d.url); !bytes.Contains(out, []byte("aggregator at epoch")) {
		t.Fatalf("recover -stream never reported the aggregator offset:\n%s", out)
	}
	if !bytes.Equal(export(sum.RunID), recoveredCPG(t, killed, "-epoch", strconv.FormatUint(sum.Epoch, 10))) {
		t.Fatalf("resumed stream diverges from the journal at epoch %d", sum.Epoch)
	}
}

// TestLoadSmokeProcesses is scripts/load-smoke.sh: recorder processes
// stream at one aggregator while client processes watch and query it;
// every source must end sealed at its journal's final epoch (no dropped
// epochs) with the .cpg bytes its journal recovers to. The in-process
// soak (internal/harness/loadtest) has the numbers.
func TestLoadSmokeProcesses(t *testing.T) {
	smoke(t)
	const clients = 4
	apps := []string{"histogram", "word_count"}
	tmp := t.TempDir()
	d := startServe(t, "-ingest")

	type recorder struct {
		source, journal string
		out             bytes.Buffer
		exited          chan struct{}
		err             error
	}
	recs := make([]*recorder, len(apps))
	for i, app := range apps {
		r := &recorder{
			source:  fmt.Sprintf("rec%d-%s", i, app),
			journal: filepath.Join(tmp, fmt.Sprintf("j%d", i)),
			exited:  make(chan struct{}),
		}
		recs[i] = r
		cmd := exec.Command(buildTool(t, "inspector-run"), "-app", app, "-threads", "2", "-size", "small",
			"-seed", strconv.Itoa(100+i), "-journal", r.journal, "-stream", d.url, "-stream-id", r.source)
		cmd.Stdout, cmd.Stderr = &r.out, &r.out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		go func() { r.err = cmd.Wait(); close(r.exited) }()
		t.Cleanup(func() { cmd.Process.Kill() })
	}

	// Watchers ride the epoch push until their source seals, the rest
	// poll stats while recorder 0 runs. They start alongside the
	// recorders: a source not bound yet answers 404, part of the load.
	query := buildTool(t, "cpg-query")
	var wg sync.WaitGroup
	for i := range clients {
		remote := []string{"-remote", d.url, "-id", recs[i%len(recs)].source}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 1 {
				for {
					select {
					case <-recs[0].exited:
						return
					default:
						exec.Command(query, append(remote, "stats")...).Run()
					}
				}
			}
			var out []byte
			err := errors.New("never tried")
			for tries := 0; err != nil && tries < 200; tries++ {
				if out, err = exec.Command(query, append(remote, "watch")...).Output(); err != nil {
					time.Sleep(50 * time.Millisecond)
				}
			}
			if err != nil || !bytes.Contains(out, []byte("closed")) {
				t.Errorf("watcher %d never saw its source close: %v\n%s", i, err, out)
			}
		}()
	}
	for i, r := range recs {
		<-r.exited
		if r.err != nil || !bytes.Contains(r.out.Bytes(), []byte("epochs shipped")) {
			t.Errorf("recorder %d: %v, shipped nothing or failed\n%s", i, r.err, r.out.Bytes())
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	c := &provenance.Client{BaseURL: d.url}
	for _, r := range recs {
		sum := recoverJSON(t, r.journal)
		st, found, err := c.IngestOffset(context.Background(), r.source)
		if err != nil || !found || !st.Sealed || st.NextEpoch != sum.Epoch+1 {
			t.Fatalf("source %s: status %+v found=%v err=%v, want sealed at next=%d (no dropped epochs)",
				r.source, st, found, err, sum.Epoch+1)
		}
		if !bytes.Equal(httpGet(t, d.url+"/v1/cpgs/"+r.source+"/export"), recoveredCPG(t, r.journal)) {
			t.Fatalf("source %s: aggregator export diverges from its journal", r.source)
		}
	}
}
