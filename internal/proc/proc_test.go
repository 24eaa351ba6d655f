package proc

import (
	"sync"
	"testing"

	"github.com/repro/inspector/internal/mem"
)

func testBackings(t *testing.T) []*mem.Backing {
	t.Helper()
	b, err := mem.NewBacking("heap", 0x10000, 1<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return []*mem.Backing{b}
}

func TestSpawnAssignsPIDs(t *testing.T) {
	tbl := NewTable(1000)
	bks := testBackings(t)
	p1 := tbl.Spawn(SpawnConfig{Name: "main", Backings: bks, Tracking: true})
	p2 := tbl.Spawn(SpawnConfig{Parent: p1.PID, Name: "w1", Slot: 1, Backings: bks, Tracking: true})
	if p1.PID != 1000 || p2.PID != 1001 {
		t.Errorf("pids = %d, %d", p1.PID, p2.PID)
	}
	if p2.Parent != p1.PID {
		t.Errorf("parent = %d", p2.Parent)
	}
	if tbl.Live() != 2 || tbl.Spawned() != 2 {
		t.Errorf("live=%d spawned=%d", tbl.Live(), tbl.Spawned())
	}
}

func TestSpawnClockOrigin(t *testing.T) {
	tbl := NewTable(1)
	p := tbl.Spawn(SpawnConfig{Name: "x", Backings: testBackings(t), ClockOrigin: 500})
	if p.Clock.Now() != 500 {
		t.Errorf("child clock = %d, want parent origin 500", p.Clock.Now())
	}
	if p.Clock.Work() != 0 {
		t.Errorf("child clock work = %d, want 0", p.Clock.Work())
	}
}

func TestSpacesAreIsolated(t *testing.T) {
	tbl := NewTable(1)
	bks := testBackings(t)
	p1 := tbl.Spawn(SpawnConfig{Name: "a", Backings: bks, Tracking: true})
	p2 := tbl.Spawn(SpawnConfig{Name: "b", Slot: 1, Backings: bks, Tracking: true})
	if _, err := p1.Space.StoreU64(0x10000, 7); err != nil {
		t.Fatal(err)
	}
	v, err := p2.Space.LoadU64(0x10000)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("p2 saw p1's uncommitted write: %d", v)
	}
}

func TestExitAndGet(t *testing.T) {
	tbl := NewTable(1)
	p := tbl.Spawn(SpawnConfig{Name: "x", Backings: testBackings(t)})
	if got, ok := tbl.Get(p.PID); !ok || got != p {
		t.Fatal("Get failed")
	}
	tbl.Exit(p.PID)
	if _, ok := tbl.Get(p.PID); ok {
		t.Error("process still visible after exit")
	}
	if tbl.Live() != 0 {
		t.Errorf("live=%d", tbl.Live())
	}
	tbl.Exit(p.PID) // double exit is harmless
}

func TestPIDsSorted(t *testing.T) {
	tbl := NewTable(10)
	bks := testBackings(t)
	for i := 0; i < 5; i++ {
		tbl.Spawn(SpawnConfig{Name: "w", Slot: i, Backings: bks})
	}
	pids := tbl.PIDs()
	if len(pids) != 5 {
		t.Fatalf("pids = %v", pids)
	}
	for i := 1; i < len(pids); i++ {
		if pids[i] <= pids[i-1] {
			t.Errorf("pids not sorted: %v", pids)
		}
	}
}

func TestConcurrentSpawn(t *testing.T) {
	tbl := NewTable(1)
	bks := testBackings(t)
	var wg sync.WaitGroup
	const n = 50
	pids := make([]int32, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pids[i] = tbl.Spawn(SpawnConfig{Name: "w", Slot: i, Backings: bks}).PID
		}(i)
	}
	wg.Wait()
	seen := make(map[int32]bool)
	for _, pid := range pids {
		if seen[pid] {
			t.Fatalf("duplicate pid %d", pid)
		}
		seen[pid] = true
	}
	if tbl.Spawned() != n {
		t.Errorf("spawned = %d", tbl.Spawned())
	}
}

func TestDefaultFirstPID(t *testing.T) {
	tbl := NewTable(0)
	p := tbl.Spawn(SpawnConfig{Name: "x", Backings: testBackings(t)})
	if p.PID != 1 {
		t.Errorf("pid = %d, want 1", p.PID)
	}
	if p.String() == "" {
		t.Error("empty String()")
	}
}
