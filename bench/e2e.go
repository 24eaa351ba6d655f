package main

import (
	"fmt"
	"time"

	"github.com/repro/inspector/internal/threading"
)

// Set-up repeats so that setup_s is a median: at least setupMinReps times,
// then until setupFor has passed or setupMaxReps are done. A 20 ms set-up
// (one small graph) needs many more reps than a 0.5 s one (sixteen) to
// give a median two sets of runs agree on.
const (
	setupMinReps = 3
	setupMaxReps = 25
	setupFor     = 2 * time.Second
)

// groupFor is how long a cycle repeats each of the short variants (the
// traced run, analyze-to-query) before it moves on: long enough for
// /proc/stat's 10 ms ticks to say what share of the window was stolen,
// whatever the program's size. The native run gets half that long before
// each of the four traced variants, twice that long per cycle. And a group
// of traced runs holds at least groupReps of them, however long one takes: the
// first traced run after something else had the heap is a cold one (the
// scavenger gave the pages back; string_match takes 290 ms then and 165 ms
// after), so a group's mean must always be made of the same mix.
const (
	groupFor  = 250 * time.Millisecond
	groupReps = 4
)

// minCycles is the least number of measured record cycles, whatever the
// time budget says.
const minCycles = 2

// result is one workload's outcome: what the contract's last line and the
// result file are built from.
type result struct {
	Workload  string            `json:"workload"`
	Attempted int               `json:"ops_total"`
	Failed    int               `json:"ops_failed"`
	Reps      map[string]int    `json:"reps"`
	Metrics   map[string]metric `json:"metrics"`
	// Info are numbers printed for the reader and held to no bound: the
	// absolute times behind the gated ratios, and seal-to-query latency.
	Info map[string]metric `json:"info,omitempty"`
	// Cycles holds, per record-side variant, every measured cycle's value
	// (the mean rep in ms, net of steal) and the share of the CPU time
	// stolen while it was measured: what a reader needs to see whether a
	// run's numbers come from a calm box.
	Cycles map[string]*cycleValues `json:"cycles,omitempty"`
}

// cycleValues holds one value per measured cycle: the mean wall time of the
// cycle's reps of one variant, net of steal, and the share of the CPU time
// the box wanted while measuring them that the neighbours took.
type cycleValues struct {
	NetMs      []float64 `json:"net_ms"`
	StealShare []float64 `json:"steal_share"`
}

// The record-side variants, in cycle order.
var variants = []string{"native", "record", "journal", "stream", "analyze_to_query"}

// samples collects the measured reps of every variant of one run.
type samples struct {
	// ms holds every rep's wall time, by variant: what the info lines
	// report.
	ms map[string][]float64
	// cycles holds one value per cycle, by variant: what the gated ratios
	// are made of.
	cycles map[string]*cycleValues

	sealLat                []float64 // ms, pooled over the unpaced stream reps
	cpgBytes, journalBytes int64
	lastRT                 *threading.Runtime
}

func newSamples() *samples {
	s := &samples{ms: map[string][]float64{}, cycles: map[string]*cycleValues{}}
	for _, v := range variants {
		s.cycles[v] = &cycleValues{}
	}
	return s
}

// group accumulates one variant's reps over one cycle: their wall times
// and the box's CPU ticks over the windows they ran in.
type group struct {
	wall float64 // ms, summed over the reps
	n    int
	cpu  cpuTicks
}

// net is the group's mean rep, net of steal. This box is a 2-vCPU guest
// whose neighbours take anything from 0 to half of its CPU time for
// seconds at a stretch; a rep that took 1200 ms with 1030 ms stolen and one
// that took 570 ms with 10 ms stolen are the same rep. The ticks are 10 ms,
// which a group resolves (it lasts groupFor or more) and a single 5 ms
// native run does not: hence the mean over the group and not a median over
// reps.
func (g group) net() float64 { return g.wall / float64(g.n) * g.cpu.got() }

// overNative reports a variant in native runs, the paper's unit: each
// cycle's value of the variant over the run's median cycle value of the
// native run. cycle spreads the native reps evenly between the variants, so
// both sides of the ratio sample the same stretch of time. The serving
// phase's median latencies, one per window, are reported the same way: the
// box's speed moves by 20% within minutes, raw and net of steal, and takes
// anything measured in ms with it.
func (s *samples) overNative(variant string) metric {
	native := median(s.cycles["native"].NetMs)
	xs := make([]float64, len(s.cycles[variant].NetMs))
	for i, v := range s.cycles[variant].NetMs {
		xs[i] = v / native
	}
	return summarize("x", xs)
}

// stream runs one streamed rep and counts its operations: the run and
// every epoch's seal-to-query sample. A run that fails its checks misses
// them all.
func (b *bench) stream(paceHz, maxSeals int, full bool) streamResult {
	sr, err := b.runStream(paceHz, maxSeals, full)
	b.ops(1 + maxSeals)
	if err != nil {
		b.fail(1+maxSeals, "streamed run", err)
	}
	return sr
}

// cycle runs every record-side variant: the native run before each of the
// four traced variants (for half of shortFor), then the variant. The short
// ones (the traced run, analyze-to-query) repeat shortReps times and then
// until shortFor has passed; the journaled run and the (unpaced) streamed
// run run once. full adds the replay checks to the structural ones every rep gets.
func (b *bench) cycle(s *samples, full bool, shortReps int, shortFor time.Duration, maxSeals int) {
	groups := map[string]*group{}
	// reps repeats one variant n times and then until the given time has
	// passed, and files the times.
	reps := func(variant string, n int, atLeast time.Duration, rep func(i int) time.Duration) {
		g := groups[variant]
		if g == nil {
			g = &group{}
			groups[variant] = g
		}
		t0, c0 := time.Now(), readCPU()
		for i := 0; i < n || time.Since(t0) < atLeast; i++ {
			d := ms(rep(i))
			s.ms[variant] = append(s.ms[variant], d)
			g.wall += d
			g.n++
		}
		g.cpu.add(readCPU().since(c0))
	}
	native := func() {
		reps("native", 1, shortFor/2, func(int) time.Duration {
			d, err := b.runNative()
			b.op("native run", err)
			return d
		})
	}
	native()
	reps("record", shortReps, shortFor, func(int) time.Duration {
		rt, d, err := b.runRecord(b.cfg, full)
		b.op("traced run", err)
		if err == nil {
			s.lastRT = rt
		}
		return d
	})
	native()
	reps("journal", 1, 0, func(int) time.Duration {
		d, size, err := b.runJournal(full)
		b.op("journaled run", err)
		s.journalBytes = size
		return d
	})
	native()
	reps("stream", 1, 0, func(int) time.Duration {
		sr := b.stream(0, maxSeals, full)
		s.sealLat = append(s.sealLat, sr.sealLat...)
		return sr.wall
	})
	native()
	if s.lastRT != nil {
		reps("analyze_to_query", shortReps, shortFor, func(i int) time.Duration {
			d, size, err := b.analyzeToQuery(s.lastRT, full && i == 0)
			b.op("analyze to query", err)
			s.cpgBytes = size
			return d
		})
	}
	for variant, g := range groups {
		c := s.cycles[variant]
		c.NetMs = append(c.NetMs, g.net())
		c.StealShare = append(c.StealShare, 1-g.cpu.got())
	}
}

// runEndToEnd is the untraced run: set-up (several times, for a median),
// one checked warm-up cycle, the paced streamed run if the scenario has
// one, record cycles until their share of the seconds is spent, then the
// serving phase for the rest.
func (b *bench) runEndToEnd(seconds float64) (*result, error) {
	var setups []float64
	var srv *serving
	start := time.Now()
	for i := 0; i < setupMaxReps && (i < setupMinReps || time.Since(start) < setupFor); i++ {
		if srv != nil {
			srv.close()
		}
		t0, c0 := time.Now(), readCPU()
		s, err := b.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds()*readCPU().since(c0).got())
		srv = s
		if b.quick {
			break
		}
	}
	defer srv.close()

	start = time.Now()
	measured := readCPU()
	budget := time.Duration(seconds * float64(time.Second))
	serveFor := time.Duration(b.sc.ServeShare * float64(budget))
	recordUntil := start.Add(budget - serveFor)

	// The first cycle is the checked one: one rep of everything with the
	// replay checks on, its timings discarded as warm-up.
	if !b.quick {
		b.cycle(newSamples(), true, 1, 0, srv.subs)
	}
	// Seal-to-query latency comes from the paced run where there is one
	// (true latency) and from the unpaced reps otherwise (backlog drain).
	var paced *streamResult
	if b.sc.PaceHz > 0 {
		sr := b.stream(b.sc.PaceHz, srv.subs, true)
		paced = &sr
	}
	s := newSamples()
	shortReps, shortFor := groupReps, groupFor
	if b.quick {
		shortReps, shortFor = 1, 0
	}
	cycles := 0
	for {
		t0 := time.Now()
		b.cycle(s, b.quick, shortReps, shortFor, srv.subs)
		cycles++
		// Stop when another cycle as long as this one would overrun.
		if b.quick || cycles >= minCycles && !time.Now().Add(time.Since(t0)).Before(recordUntil) {
			break
		}
	}
	sv := b.serve(srv, serveFor)
	s.cycles["query_p50"] = &cycleValues{NetMs: sv.p50, StealShare: sv.stolen}

	sealLat := s.sealLat
	if paced != nil {
		sealLat = paced.sealLat
	}
	subs := float64(srv.subs)
	r := &result{
		Workload:  b.sc.Name,
		Attempted: b.attempted,
		Failed:    b.failed,
		Reps:      map[string]int{"setup": len(setups), "cycles": cycles, "seal_to_query": len(sealLat), "queries": len(sv.lat)},
		Metrics: map[string]metric{
			"setup_s":               summarize("s", setups),
			"record_overhead_x":     s.overNative("record"),
			"journal_overhead_x":    s.overNative("journal"),
			"stream_overhead_x":     s.overNative("stream"),
			"analyze_to_query_x":    s.overNative("analyze_to_query"),
			"cpg_bytes_per_sub":     single("B", float64(s.cpgBytes)/subs, 1),
			"journal_bytes_per_sub": single("B", float64(s.journalBytes)/subs, 1),
			"query_p50_x":           s.overNative("query_p50"),
			"peak_rss_mb":           single("MB", peakRSSMB(), 1),
		},
		Cycles: s.cycles,
		Info: map[string]metric{
			"seal_to_query_p50_ms": single("ms", quantile(sealLat, 0.5), len(sealLat)),
			"seal_to_query_p90_ms": single("ms", quantile(sealLat, 0.9), len(sealLat)),
			"query_p50_ms":         single("ms", quantile(sv.lat, 0.5), len(sv.lat)),
			"query_p90_ms":         single("ms", quantile(sv.lat, 0.9), len(sv.lat)),
			"query_per_s":          single("1/s", float64(len(sv.lat))/sv.wall.Seconds(), len(sv.lat)),
			// What the neighbours took of the CPU time this run wanted.
			"steal_share": single("ratio", 1-readCPU().since(measured).got(), 1),
		},
	}
	if paced != nil {
		r.Info["paced_stream_ms"] = single("ms", ms(paced.wall), 1)
		r.Info["generator_late_p99_ms"] = single("ms", quantile(paced.late, 0.99), len(paced.late))
	}
	for _, v := range variants {
		r.Reps[v] = len(s.ms[v])
		r.Info[v+"_ms"] = summarize("ms", s.ms[v])
		r.Info[v+"_net_ms"] = summarize("ms", s.cycles[v].NetMs)
	}
	return r, nil
}
