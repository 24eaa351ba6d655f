package threading

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"github.com/repro/inspector/internal/pt"
	"github.com/repro/inspector/internal/vtime"
)

// Report summarizes one run with every statistic the evaluation section
// reports (Figures 5-9).
type Report struct {
	App     string
	Mode    Mode
	Threads int // thread slots used

	// Time is the end-to-end virtual runtime (critical path) — the
	// paper's "time" metric.
	Time vtime.Cycles
	// Work is the summed CPU time over all threads — the paper's "work"
	// metric (cpuacct).
	Work vtime.Cycles

	// Per-category cycle totals (Figure 6's breakdown).
	AppCycles       vtime.Cycles
	ThreadingCycles vtime.Cycles
	PTCycles        vtime.Cycles

	// Instruction counters.
	Loads, Stores, Branches, ALU uint64

	// Memory-tracking statistics (Table 7).
	ReadFaults, WriteFaults uint64
	TwinCopies              uint64
	CommittedPages          uint64
	CommittedBytes          uint64
	DiffedBytes             uint64

	// Trace statistics (Table 9).
	TraceBytes     uint64
	LostTraceBytes uint64
	PT             pt.Stats

	// ProcessesSpawned counts clone() calls (kmeans's nemesis).
	ProcessesSpawned uint64
	// SubComputations is the CPG vertex count.
	SubComputations int
}

// Faults returns total page faults.
func (r *Report) Faults() uint64 { return r.ReadFaults + r.WriteFaults }

// FaultsPerSec returns the fault rate over the run (Table 7's right
// column).
func (r *Report) FaultsPerSec() float64 {
	secs := r.Time.Seconds()
	if secs == 0 {
		return 0
	}
	return float64(r.Faults()) / secs
}

// TraceBandwidthMBps returns provenance-log bandwidth in MB/s (Table 9).
func (r *Report) TraceBandwidthMBps() float64 {
	secs := r.Time.Seconds()
	if secs == 0 {
		return 0
	}
	return float64(r.TraceBytes) / 1e6 / secs
}

// BranchesPerSec returns retired branch rate (Table 9's last column).
func (r *Report) BranchesPerSec() float64 {
	secs := r.Time.Seconds()
	if secs == 0 {
		return 0
	}
	return float64(r.Branches) / secs
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("%s[%s]: time=%v work=%v faults=%d trace=%dB subs=%d",
		r.App, r.Mode, r.Time, r.Work, r.Faults(), r.TraceBytes, r.SubComputations)
}

// buildReport aggregates all per-thread and per-substrate statistics.
func (rt *Runtime) buildReport(main *Thread) *Report {
	rep := &Report{
		App:  rt.opts.AppName,
		Mode: rt.opts.Mode,
		Time: main.clk.Now(),
		Work: rt.acct.Work(),
	}
	rt.threadsMu.Lock()
	threads := slices.Clone(rt.threads)
	rt.threadsMu.Unlock()
	rep.Threads = len(threads)

	for _, t := range threads {
		if t == nil {
			// The slot's spawn panicked (a commit hook, on the parent's
			// release) before it created the thread.
			continue
		}
		rep.AppCycles += t.appCycles
		rep.ThreadingCycles += t.threadingCycles
		rep.PTCycles += t.ptCycles
		rep.Loads += t.loads
		rep.Stores += t.stores
		rep.Branches += t.branches
		rep.ALU += t.alu
		st := t.space.Stats()
		rep.ReadFaults += st.ReadFaults
		rep.WriteFaults += st.WriteFaults
		rep.TwinCopies += st.TwinCopies
		rep.CommittedPages += st.CommittedPages
		rep.CommittedBytes += st.CommittedBytes
		rep.DiffedBytes += st.DiffedBytes
		if t.enc != nil {
			rep.PT.Add(t.enc.Stats())
		}
	}
	rep.TraceBytes = rt.sess.TotalTraceBytes()
	rep.LostTraceBytes = rt.sess.TotalLost()
	rep.ProcessesSpawned = uint64(len(threads))
	rep.SubComputations = rt.graph.NumSubs()
	return rep
}

// DecodeTraces decodes every process's PT trace against the program image,
// in slot order, and returns per-PID event counts — the `perf script` +
// decoder-library step that turns raw packets back into control flow. It
// verifies the trace is decodable end to end, streaming events through
// Decoder.Next rather than materializing every event in memory.
func (rt *Runtime) DecodeTraces() (map[int32]int, error) {
	out := make(map[int32]int)
	for _, pid := range rt.sess.PIDs() {
		stream, ok := rt.sess.Stream(pid)
		if !ok {
			continue
		}
		d := pt.NewDecoder(rt.img, stream.Trace())
		n := 0
		for {
			_, err := d.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("threading: decode trace pid %d: %w", pid, err)
			}
			n++
		}
		out[pid] = n
	}
	return out, nil
}
