// Package proc simulates the process substrate beneath INSPECTOR's
// threads-as-processes design (§V-A). The real library intercepts
// pthread_create and issues clone() to fork a process that shares file
// descriptors and signal handlers with its parent but owns a private
// address space. Here a Process couples a PID with a private mem.Space
// over the shared backings and a virtual-time clock; the Table hands out
// PIDs and tracks liveness.
//
// Process creation cost matters to the evaluation: the paper attributes
// kmeans's slowdown to it creating over 400 short-lived threads, each of
// which INSPECTOR must fork as a process ("creating a process takes more
// time than creating a thread", §VII-A). The caller charges
// vtime.CostModel.ProcessSpawn or ThreadSpawn accordingly.
package proc

import (
	"fmt"
	"sort"
	"sync"

	"github.com/repro/inspector/internal/mem"
	"github.com/repro/inspector/internal/vtime"
)

// Process is one simulated process (an INSPECTOR "thread").
type Process struct {
	// PID is the process id.
	PID int32
	// Parent is the PID of the creating process (0 for the initial one).
	Parent int32
	// Name is the comm value reported to perf.
	Name string
	// Space is the process's private view of shared memory.
	Space *mem.Space
	// Clock is the process's virtual-time clock.
	Clock *vtime.Clock
	// Slot is the dense thread index (0..T-1) used for vector clocks.
	Slot int
}

// Table allocates PIDs and tracks live processes. It is safe for
// concurrent use.
type Table struct {
	mu      sync.Mutex
	nextPID int32
	procs   map[int32]*Process
	spawned uint64
}

// NewTable creates a table; PIDs start at firstPID (conventionally 1000,
// keeping them visually distinct from thread slots).
func NewTable(firstPID int32) *Table {
	if firstPID <= 0 {
		firstPID = 1
	}
	return &Table{nextPID: firstPID, procs: make(map[int32]*Process)}
}

// SpawnConfig carries everything needed to create a process.
type SpawnConfig struct {
	Parent   int32
	Name     string
	Slot     int
	Backings []*mem.Backing
	Handler  mem.FaultHandler
	// Tracking selects INSPECTOR mode (protected private space) versus
	// native mode (direct shared access).
	Tracking bool
	// ClockOrigin is the child's starting virtual time (the parent's
	// clock at the spawn point).
	ClockOrigin vtime.Cycles
}

// Spawn clones a new process.
func (t *Table) Spawn(cfg SpawnConfig) *Process {
	t.mu.Lock()
	pid := t.nextPID
	t.nextPID++
	t.spawned++
	p := &Process{
		PID:    pid,
		Parent: cfg.Parent,
		Name:   cfg.Name,
		Slot:   cfg.Slot,
		Clock:  vtime.NewClock(cfg.ClockOrigin),
	}
	t.procs[pid] = p
	t.mu.Unlock()
	p.Space = mem.NewSpace(pid, cfg.Backings, cfg.Handler, cfg.Tracking)
	return p
}

// Exit removes a process from the table.
func (t *Table) Exit(pid int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.procs, pid)
}

// Get returns the process with the given pid.
func (t *Table) Get(pid int32) (*Process, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.procs[pid]
	return p, ok
}

// Live returns the number of live processes.
func (t *Table) Live() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.procs)
}

// Spawned returns the cumulative process creation count (the statistic
// behind kmeans's overhead in Figure 5).
func (t *Table) Spawned() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spawned
}

// PIDs returns live PIDs in ascending order.
func (t *Table) PIDs() []int32 {
	t.mu.Lock()
	out := make([]int32, 0, len(t.procs))
	for pid := range t.procs {
		out = append(out, pid)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the process for logs.
func (p *Process) String() string {
	return fmt.Sprintf("proc(pid=%d slot=%d %q)", p.PID, p.Slot, p.Name)
}
