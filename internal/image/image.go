// Package image models the program binary image that Intel PT decoding
// requires. A hardware PT decoder cannot interpret the trace alone: TNT
// packets carry only taken/not-taken bits, so the decoder must walk the
// program's control-flow graph (the executable and its libraries) to know
// *which* branch each bit belongs to. The paper (§V-B) tracks mmap events
// for exactly this reason: "to map the trace onto binaries, it needs
// access to executables and linked libraries of the application".
//
// In this reproduction, workloads execute through a virtual CPU that
// announces labelled branch sites. The Image assigns each label a stable
// synthetic instruction address and records the control-flow edges the
// execution reveals. The PT decoder (internal/pt) then reconstructs the
// exact executed path from the packet stream plus this image, never from
// side channels: any successor the CFG cannot predict is carried in the
// trace itself as a TIP/FUP packet, just as real PT carries indirect
// branch targets.
package image

import (
	"fmt"
	"sort"
	"sync"

	"github.com/repro/inspector/internal/intern"
)

// CodeBase is the synthetic text-segment base address. Branch sites are
// laid out every 16 bytes above it, emulating instruction spacing.
const CodeBase = 0x40_0000

// SiteSpacing is the synthetic distance between consecutive branch sites.
const SiteSpacing = 16

// SiteID densely identifies a branch site within one image.
type SiteID uint32

// NoSite is the sentinel for "no such site".
const NoSite SiteID = ^SiteID(0)

// SiteKind classifies a branch site the way PT packet generation does:
// conditional branches produce TNT bits; indirect transfers (indirect
// jumps, calls through pointers, returns) produce TIP packets.
type SiteKind uint8

// Site kinds.
const (
	// Conditional sites produce one TNT bit per execution.
	Conditional SiteKind = iota + 1
	// Indirect sites produce a TIP packet carrying the target.
	Indirect
)

// String names the kind.
func (k SiteKind) String() string {
	switch k {
	case Conditional:
		return "cond"
	case Indirect:
		return "indirect"
	default:
		return "unknown"
	}
}

// Site is one branch instruction in the synthetic program.
type Site struct {
	ID    SiteID
	Label string
	Kind  SiteKind
}

// Addr returns the site's synthetic instruction address.
func (s *Site) Addr() uint64 {
	return CodeBase + uint64(s.ID)*SiteSpacing
}

// Image is the synthetic binary image: the set of branch sites and the
// address mapping a PT decoder needs. It is shared by all threads of a
// run and safe for concurrent use.
//
// The label table is an intern.Interner — the same string-intern machinery
// that backs the CPG's symbol table — whose dense ids double as SiteIDs.
// The image deliberately keeps its *own* interner rather than sharing the
// graph's instance: SiteIDs feed the synthetic address scheme (Site.Addr)
// and therefore the trace bytes, so they must be assigned only by site
// registration order, never perturbed by sync-object names the graph
// interns alongside.
type Image struct {
	mu       sync.RWMutex
	interner *intern.Interner
	sites    []*Site
}

// New returns an empty image.
func New() *Image {
	return &Image{interner: intern.New()}
}

// Site returns the site for label, registering it on first use. Kind must
// be consistent across registrations of the same label.
func (im *Image) Site(label string, kind SiteKind) (*Site, error) {
	if id, ok := im.interner.Find(label); ok {
		im.mu.RLock()
		s := im.sites[id]
		im.mu.RUnlock()
		if s.Kind != kind {
			return nil, fmt.Errorf("image: site %q registered as %v, requested %v", label, s.Kind, kind)
		}
		return s, nil
	}

	im.mu.Lock()
	defer im.mu.Unlock()
	if id, ok := im.interner.Find(label); ok {
		s := im.sites[id]
		if s.Kind != kind {
			return nil, fmt.Errorf("image: site %q registered as %v, requested %v", label, s.Kind, kind)
		}
		return s, nil
	}
	id := im.interner.Intern(label)
	if int(id) != len(im.sites) {
		// The interner is private to the image, so ids track the site
		// slice exactly; a gap means a bug, not a recoverable state.
		panic(fmt.Sprintf("image: interner id %d does not match site count %d", id, len(im.sites)))
	}
	s := &Site{ID: SiteID(id), Label: label, Kind: kind}
	im.sites = append(im.sites, s)
	return s, nil
}

// MustSite is Site but panics on kind conflicts; for use at workload setup
// where a conflict is a programming error in the workload itself.
func (im *Image) MustSite(label string, kind SiteKind) *Site {
	s, err := im.Site(label, kind)
	if err != nil {
		panic(err)
	}
	return s
}

// ByID returns the site with the given ID, or nil.
func (im *Image) ByID(id SiteID) *Site {
	im.mu.RLock()
	defer im.mu.RUnlock()
	if int(id) >= len(im.sites) {
		return nil
	}
	return im.sites[id]
}

// AddrToID maps a synthetic instruction address to its SiteID. It is
// the pure inverse of Site.Addr, shared by every address resolver (the
// image's ByAddr, the PT decoder's lock-free site cache) so the address
// scheme lives in one place.
func AddrToID(addr uint64) (SiteID, bool) {
	if addr < CodeBase || (addr-CodeBase)%SiteSpacing != 0 {
		return NoSite, false
	}
	return SiteID((addr - CodeBase) / SiteSpacing), true
}

// ByAddr returns the site whose synthetic address is addr, or nil.
func (im *Image) ByAddr(addr uint64) *Site {
	id, ok := AddrToID(addr)
	if !ok {
		return nil
	}
	return im.ByID(id)
}

// ByLabel returns the site registered under label, or nil.
func (im *Image) ByLabel(label string) *Site {
	id, ok := im.interner.Find(label)
	if !ok {
		return nil
	}
	im.mu.RLock()
	defer im.mu.RUnlock()
	return im.sites[id]
}

// Len returns the number of registered sites.
func (im *Image) Len() int {
	im.mu.RLock()
	defer im.mu.RUnlock()
	return len(im.sites)
}

// Labels returns all registered labels in sorted order.
func (im *Image) Labels() []string {
	out := im.interner.Snapshot()
	sort.Strings(out)
	return out
}

// EdgeTable is a per-trace control-flow-edge cache: (site, taken) ->
// successor. Both the PT encoder and decoder maintain one incrementally
// and identically, which is what makes the compressed trace
// self-describing: a successor present in the table is elided from the
// trace (a bare TNT bit suffices); a missing or deviating successor is
// carried in-band by a FUP packet.
//
// Site IDs are dense (the Image allocates them sequentially), so the
// table is a flat slice indexed by SiteID<<1|taken with NoSite marking
// absent entries — every per-branch lookup is one bounds check and one
// load, no hashing. The tests hold it to a plain map.
type EdgeTable struct {
	succ []SiteID
}

// NewEdgeTable creates an empty dense edge table.
func NewEdgeTable() *EdgeTable { return &EdgeTable{} }

// edgeIndex flattens (site, taken) into the dense index.
func edgeIndex(site SiteID, taken bool) int {
	idx := int(site) << 1
	if taken {
		idx |= 1
	}
	return idx
}

// Lookup returns the recorded successor, if any.
func (t *EdgeTable) Lookup(site SiteID, taken bool) (SiteID, bool) {
	if idx := edgeIndex(site, taken); idx < len(t.succ) && t.succ[idx] != NoSite {
		return t.succ[idx], true
	}
	return 0, false
}

// Record stores successor for (site, taken) and reports whether the entry
// changed (was absent or held a different successor).
func (t *EdgeTable) Record(site SiteID, taken bool, succ SiteID) bool {
	idx := edgeIndex(site, taken)
	for len(t.succ) <= idx {
		t.succ = append(t.succ, NoSite)
	}
	changed := t.succ[idx] != succ
	t.succ[idx] = succ
	return changed
}

// Len returns the number of recorded edges.
func (t *EdgeTable) Len() int {
	n := 0
	for _, s := range t.succ {
		if s != NoSite {
			n++
		}
	}
	return n
}
