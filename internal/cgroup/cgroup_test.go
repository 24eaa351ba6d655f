package cgroup

import (
	"errors"
	"sync"
	"testing"
)

func TestRootExists(t *testing.T) {
	h := NewHierarchy()
	if root, err := h.Lookup("/"); err != nil || root.Path() != "/" {
		t.Fatalf("root group missing: %v", err)
	}
}

func TestCreateAndLookup(t *testing.T) {
	h := NewHierarchy()
	g, err := h.Create("/inspector")
	if err != nil {
		t.Fatal(err)
	}
	if g.Path() != "/inspector" {
		t.Errorf("path = %q", g.Path())
	}
	got, err := h.Lookup("/inspector")
	if err != nil || got != g {
		t.Errorf("Lookup = %v, %v", got, err)
	}
}

func TestCreateNested(t *testing.T) {
	h := NewHierarchy()
	if _, err := h.Create("/a"); err != nil {
		t.Fatal(err)
	}
	b, err := h.Create("/a/b")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := h.Lookup("/a")
	root, _ := h.Lookup("/")
	if b.parent != a || a.parent != root {
		t.Errorf("parents: b under %v, a under %v", b.parent.Path(), a.parent.Path())
	}
}

func TestCreateErrors(t *testing.T) {
	h := NewHierarchy()
	if _, err := h.Create("/x/y"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing parent: %v", err)
	}
	if _, err := h.Create("relative"); !errors.Is(err, ErrBadPath) {
		t.Errorf("relative path: %v", err)
	}
	if _, err := h.Create("/"); !errors.Is(err, ErrExists) {
		t.Errorf("recreate root: %v", err)
	}
	if _, err := h.Create("/a//b"); !errors.Is(err, ErrBadPath) {
		t.Errorf("empty segment: %v", err)
	}
	if _, err := h.Create("/a/../b"); !errors.Is(err, ErrBadPath) {
		t.Errorf("dotdot segment: %v", err)
	}
	h.Create("/dup")
	if _, err := h.Create("/dup"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate: %v", err)
	}
	if _, err := h.Lookup("/nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("lookup missing: %v", err)
	}
}

func TestProcessMembership(t *testing.T) {
	h := NewHierarchy()
	g, _ := h.Create("/app")
	g.AddProcess(100)
	if got := h.GroupOf(100); got != g {
		t.Errorf("GroupOf(100) = %v", got.Path())
	}
	// Unknown process defaults to root.
	if got := h.GroupOf(999); got.Path() != "/" {
		t.Errorf("GroupOf(999) = %v", got.Path())
	}
	// Moving between groups removes from the old one.
	g2, _ := h.Create("/other")
	g2.AddProcess(100)
	if len(g.procs) != 0 {
		t.Errorf("old group still holds %v", g.procs)
	}
	if _, ok := g2.procs[100]; !ok || len(g2.procs) != 1 {
		t.Errorf("new group procs = %v", g2.procs)
	}
}

func TestForkInheritance(t *testing.T) {
	h := NewHierarchy()
	g, _ := h.Create("/app")
	g.AddProcess(1)
	h.Fork(1, 2)
	h.Fork(2, 3)
	for _, pid := range []int32{1, 2, 3} {
		if h.GroupOf(pid) != g {
			t.Errorf("pid %d not in /app", pid)
		}
	}
	// This is the property the paper relies on: all forked "threads"
	// stay inside the trace filter group.
	for _, pid := range []int32{1, 2, 3} {
		if !g.Contains(pid) {
			t.Errorf("Contains(%d) = false", pid)
		}
	}
}

func TestContainsDescendants(t *testing.T) {
	h := NewHierarchy()
	parent, _ := h.Create("/p")
	child, _ := h.Create("/p/c")
	child.AddProcess(5)
	if !parent.Contains(5) {
		t.Error("parent filter must match processes in child groups")
	}
	if !child.Contains(5) {
		t.Error("child must contain its own process")
	}
	other, _ := h.Create("/q")
	if other.Contains(5) {
		t.Error("unrelated group matched")
	}
}

func TestExit(t *testing.T) {
	h := NewHierarchy()
	g, _ := h.Create("/app")
	g.AddProcess(7)
	h.Exit(7)
	if len(g.procs) != 0 {
		t.Errorf("procs after exit = %v", g.procs)
	}
	if h.GroupOf(7).Path() != "/" {
		t.Error("exited process should default to root")
	}
	// Exiting an unknown pid is harmless.
	h.Exit(12345)
}

func TestConcurrentUse(t *testing.T) {
	h := NewHierarchy()
	g, _ := h.Create("/app")
	g.AddProcess(0)
	var wg sync.WaitGroup
	for i := 1; i <= 32; i++ {
		wg.Add(1)
		go func(pid int32) {
			defer wg.Done()
			h.Fork(0, pid)
			_ = g.Contains(pid)
			_ = h.GroupOf(pid)
		}(int32(i))
	}
	wg.Wait()
	if got := len(g.procs); got != 33 {
		t.Errorf("procs = %d, want 33", got)
	}
}

func TestNormalizeTrailingSlash(t *testing.T) {
	h := NewHierarchy()
	if _, err := h.Create("/app"); err != nil {
		t.Fatal(err)
	}
	g, err := h.Lookup("/app/")
	if err != nil || g.Path() != "/app" {
		t.Errorf("trailing slash lookup: %v %v", g, err)
	}
}
