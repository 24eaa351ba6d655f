package main

import (
	"bufio"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (so quantile(xs, 0.5) is the conventional median).
// It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTicks is the box's cumulative CPU time from the first line of
// /proc/stat, in clock ticks (10 ms): busy is time its CPUs ran this guest,
// steal is time they were runnable but the hypervisor ran another guest.
type cpuTicks struct{ busy, steal int64 }

// readCPU reads the counters; where there is no /proc/stat both stay 0 and
// nothing is ever netted out.
func readCPU() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	at := func(i int) int64 { n, _ := strconv.ParseInt(f[i], 10, 64); return n }
	// user nice system idle iowait irq softirq steal
	return cpuTicks{busy: at(1) + at(2) + at(3) + at(6) + at(7), steal: at(8)}
}

// since returns the ticks spent after c0.
func (c cpuTicks) since(c0 cpuTicks) cpuTicks {
	return cpuTicks{busy: c.busy - c0.busy, steal: c.steal - c0.steal}
}

// add counts another interval's ticks in.
func (c *cpuTicks) add(d cpuTicks) {
	c.busy += d.busy
	c.steal += d.steal
}

// got returns the share of the CPU time the box wanted over an interval
// that it got: busy / (busy + steal). A timing multiplied by it is net of
// steal: work that kept p CPUs busy for a wall time W, S of it stolen,
// needed W - S/p without the neighbours, and p = (busy + steal) / W. With
// nothing stolen the share is exactly 1, whatever the tick's resolution.
func (d cpuTicks) got() float64 {
	if d.steal <= 0 || d.busy <= 0 {
		return 1
	}
	return float64(d.busy) / float64(d.busy+d.steal)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ms and us convert a duration to the float the metric tables use.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metric is one reported number: the median of its samples with the
// quartiles and the sample count, so a reader sees how far to trust it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// summarize reports the median of samples.
func summarize(unit string, samples []float64) metric {
	return metric{
		Value: median(samples),
		Unit:  unit,
		N:     len(samples),
		Q1:    quantile(samples, 0.25),
		Q3:    quantile(samples, 0.75),
	}
}

// single reports one measured value (a count, a ratio, a percentile that
// already pooled its samples).
func single(unit string, v float64, n int) metric {
	return metric{Value: v, Unit: unit, N: n, Q1: v, Q3: v}
}

// machine says what box produced a result file; no row is read without it.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
}

func machineBlock() machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				m.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		f.Close()
	}
	// The driver's checkout is not a git repository; the commit then
	// stays "unknown" rather than failing the run.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// peakRSSMB reads this process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
