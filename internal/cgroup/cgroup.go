// Package cgroup simulates the Linux perf_event control-group
// controller INSPECTOR depends on (§V-B): the paper creates a cgroup
// exclusively for the traced application because the threading library
// turns threads into processes whose PIDs are not known in advance;
// membership is inherited across fork, so every forked "thread" is
// captured by the same PT trace session. (The paper reads its "work"
// metric from cpuacct, §VII; here vtime.Accounting sums it from the
// per-thread virtual clocks, so no accounting controller is modelled.)
//
// The simulation keeps the same semantics: a hierarchy of named groups,
// processes that belong to exactly one group, children inheriting the
// parent's group at fork, and descendant matching for event filters.
package cgroup

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Errors returned by hierarchy operations.
var (
	ErrExists   = errors.New("cgroup: group already exists")
	ErrNotFound = errors.New("cgroup: no such group")
	ErrBadPath  = errors.New("cgroup: invalid path")
)

// Hierarchy is one cgroup tree (think one mounted controller hierarchy).
type Hierarchy struct {
	mu     sync.RWMutex
	groups map[string]*Group
	procs  map[int32]*Group
}

// Group is one control group.
type Group struct {
	h      *Hierarchy
	path   string
	parent *Group

	mu    sync.Mutex
	procs map[int32]struct{}
}

// NewHierarchy creates a hierarchy containing only the root group "/".
func NewHierarchy() *Hierarchy {
	h := &Hierarchy{
		groups: make(map[string]*Group),
		procs:  make(map[int32]*Group),
	}
	root := &Group{h: h, path: "/", procs: make(map[int32]struct{})}
	h.groups["/"] = root
	return h
}

// normalize validates and canonicalizes a group path.
func normalize(path string) (string, error) {
	if path == "" || path[0] != '/' {
		return "", fmt.Errorf("%w: %q (must be absolute)", ErrBadPath, path)
	}
	if path == "/" {
		return "/", nil
	}
	path = strings.TrimRight(path, "/")
	for _, seg := range strings.Split(path[1:], "/") {
		if seg == "" || seg == "." || seg == ".." {
			return "", fmt.Errorf("%w: %q", ErrBadPath, path)
		}
	}
	return path, nil
}

// Create makes a new group at path; all intermediate groups must already
// exist (like mkdir without -p).
func (h *Hierarchy) Create(path string) (*Group, error) {
	path, err := normalize(path)
	if err != nil {
		return nil, err
	}
	if path == "/" {
		return nil, fmt.Errorf("%w: /", ErrExists)
	}
	parentPath := path[:strings.LastIndex(path, "/")]
	if parentPath == "" {
		parentPath = "/"
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.groups[path]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, path)
	}
	parent, ok := h.groups[parentPath]
	if !ok {
		return nil, fmt.Errorf("%w: parent %s", ErrNotFound, parentPath)
	}
	g := &Group{h: h, path: path, parent: parent, procs: make(map[int32]struct{})}
	h.groups[path] = g
	return g, nil
}

// Lookup returns the group at path.
func (h *Hierarchy) Lookup(path string) (*Group, error) {
	path, err := normalize(path)
	if err != nil {
		return nil, err
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	g, ok := h.groups[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return g, nil
}

// GroupOf returns the group a process belongs to (root if never placed).
func (h *Hierarchy) GroupOf(pid int32) *Group {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if g, ok := h.procs[pid]; ok {
		return g
	}
	return h.groups["/"]
}

// Fork places child in parent's group — the inheritance property the
// paper's design exploits: "by default every child process belongs to the
// same [group] as its parent".
func (h *Hierarchy) Fork(parentPID, childPID int32) {
	g := h.GroupOf(parentPID)
	g.AddProcess(childPID)
}

// Exit removes a process from the hierarchy.
func (h *Hierarchy) Exit(pid int32) {
	h.mu.Lock()
	g, ok := h.procs[pid]
	if ok {
		delete(h.procs, pid)
	}
	h.mu.Unlock()
	if ok {
		g.mu.Lock()
		delete(g.procs, pid)
		g.mu.Unlock()
	}
}

// Path returns the group's absolute path.
func (g *Group) Path() string { return g.path }

// AddProcess moves a process into this group (removing it from its
// previous group).
func (g *Group) AddProcess(pid int32) {
	h := g.h
	h.mu.Lock()
	prev := h.procs[pid]
	h.procs[pid] = g
	h.mu.Unlock()
	if prev != nil && prev != g {
		prev.mu.Lock()
		delete(prev.procs, pid)
		prev.mu.Unlock()
	}
	g.mu.Lock()
	g.procs[pid] = struct{}{}
	g.mu.Unlock()
}

// Contains reports whether pid belongs to this group or any descendant —
// the matching rule perf uses for cgroup-scoped events.
func (g *Group) Contains(pid int32) bool {
	cur := g.h.GroupOf(pid)
	for cur != nil {
		if cur == g {
			return true
		}
		cur = cur.parent
	}
	return false
}
