package provenance

import (
	"container/list"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/repro/inspector/internal/cpgfile"
)

// StoreOptions configure a CPG store.
type StoreOptions struct {
	// ResidentBudget bounds the estimated bytes of decoded analyses
	// kept resident at once. When a decode pushes the total past the
	// budget, least-recently-used analyses are dropped (the mmap
	// stays; the file re-materializes on its next query). 0 means
	// unlimited. The budget governs materialized graphs, not mapped
	// file bytes — mappings are the cheap part the kernel pages on
	// demand. A materialized graph keeps its thunks section encoded,
	// as an owned copy of the file's bytes, and is charged that
	// section's length for it (cpgfile.Mapped.Analysis).
	ResidentBudget int64
	// ResultCacheCapacity bounds the content-addressed query-result
	// cache, in entries. 0 means the default (1024); negative disables
	// the cache.
	ResultCacheCapacity int
	// Engine configures every engine the store materializes.
	Engine EngineOptions
	// Lenient skips files that fail to open, checksum or list, logging
	// each by name, instead of failing OpenFiles — one corrupt archive
	// must not take down the healthy neighbors.
	Lenient bool
	// Logf receives lenient-skip lines (nil = none).
	Logf func(format string, args ...any)
}

const defaultResultCacheCapacity = 1024

// ResultCacheStats counts content-addressed result-cache traffic.
type ResultCacheStats struct {
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// StoreStats is the GET /v1/store response body: how the bounded-memory
// serving machinery is behaving.
type StoreStats struct {
	Version string `json:"version"`
	// CPGs counts the files the store serves.
	CPGs int `json:"cpgs"`
	// ResidentBytes estimates the decoded analyses currently held;
	// ResidentBudget echoes the configured bound (omitted if unlimited).
	ResidentBytes  int64 `json:"resident_bytes"`
	ResidentBudget int64 `json:"resident_budget,omitempty"`
	// DecodedCPGs counts files whose analysis is currently resident;
	// Decodes counts materializations over the store's lifetime (a
	// file decoded, evicted, and decoded again counts twice); and
	// EngineEvictions counts budget-driven drops.
	DecodedCPGs     int              `json:"decoded_cpgs"`
	Decodes         uint64           `json:"decodes"`
	EngineEvictions uint64           `json:"engine_evictions"`
	ResultCache     ResultCacheStats `json:"result_cache"`
}

// Store serves a set of on-disk CPG files with bounded memory. It is
// how a process serves a .cpg file. Every file stays cheaply
// memory-mapped and is listed from the stats section read at open;
// decoded analyses (the expensive part) live in an LRU governed by the
// resident-bytes budget — the one place a decoded analysis is kept —
// and repeated queries short-circuit through a result cache keyed by
// (file content hash, epoch, canonical query encoding). That key is
// sound because a CPG file is immutable and its analysis is immutable
// per epoch: same bytes, same epoch, same query — same result, forever.
// All methods are safe for concurrent use.
type Store struct {
	opts    StoreOptions
	entries map[string]*storeEntry

	mu      sync.Mutex // guards engines and decodes
	engines *lru[*storeEntry, *Engine]
	decodes uint64

	// resultsMu is the result cache's own lock, so a cache hit never
	// takes mu. results is nil when the cache is disabled.
	resultsMu sync.Mutex
	results   *lru[string, *Result]
}

// storeEntry is one served file: its mapping and the listing entry read
// at open.
type storeEntry struct {
	m    *cpgfile.Mapped
	info CPGInfo
	// decode serializes the entry's materialization, so concurrent cold
	// queries of one file decode it once.
	decode sync.Mutex
	// hashKey caches the hex content hash once a query computes it.
	hashOnce sync.Once
	hashKey  string
}

// OpenDir serves every *.cpg file in dir: OpenFiles over the
// directory's listing.
func OpenDir(dir string, opts StoreOptions) (*Store, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.cpg"))
	if err != nil {
		return nil, err
	}
	return OpenFiles(paths, opts)
}

// OpenFiles serves the CPG files at paths, each under the id of its base
// name without the extension (run.cpg -> "run"); two paths with one id
// are refused, naming both. Each file is mapped, its header parsed,
// every section checksum verified — a sequential read, no decoding —
// and its stats section decoded for the listing, so a damaged file is
// refused (or, with Lenient, skipped by name) at startup rather than
// surfacing mid-query. Damage that only a decode sees, behind valid
// checksums, fails that file's queries, naming the path and the section.
func OpenFiles(paths []string, opts StoreOptions) (*Store, error) {
	s := &Store{
		opts:    opts,
		entries: make(map[string]*storeEntry, len(paths)),
		engines: newLRU[*storeEntry, *Engine](opts.ResidentBudget),
	}
	switch {
	case opts.ResultCacheCapacity == 0:
		s.results = newLRU[string, *Result](defaultResultCacheCapacity)
	case opts.ResultCacheCapacity > 0:
		s.results = newLRU[string, *Result](int64(opts.ResultCacheCapacity))
	}
	for _, path := range paths {
		e, err := openEntry(path)
		if err != nil {
			if opts.Lenient {
				s.logf("provenance: skipping %s: %v (-lenient)", path, err)
				continue
			}
			s.Close()
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		id := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		if prev, dup := s.entries[id]; dup {
			e.m.Close()
			s.Close()
			return nil, fmt.Errorf("duplicate cpg id %q: %s and %s", id, prev.m.Path(), path)
		}
		s.entries[id] = e
	}
	return s, nil
}

// openEntry maps one file, verifies its checksums and reads its listing
// entry.
func openEntry(path string) (*storeEntry, error) {
	m, err := cpgfile.Open(path)
	if err != nil {
		return nil, err
	}
	err = m.VerifyChecksums()
	var st cpgfile.Stats
	if err == nil {
		st, err = m.Stats()
	}
	if err != nil {
		m.Close()
		return nil, err
	}
	hdr := m.Header()
	return &storeEntry{m: m, info: infoOf(Stats(st), hdr.Epoch, hdr.Degraded)}, nil
}

func (s *Store) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Len returns the number of served CPGs.
func (s *Store) Len() int { return len(s.entries) }

// IDs returns the served CPG ids, sorted.
func (s *Store) IDs() []string {
	ids := make([]string, 0, len(s.entries))
	for id := range s.entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Sources returns one Source per served CPG, for NewServerSources.
func (s *Store) Sources() map[string]Source {
	out := make(map[string]Source, len(s.entries))
	for id, e := range s.entries {
		out[id] = storeSource{s: s, e: e}
	}
	return out
}

// Query executes one query against the CPG with the given id, through
// the result cache — the programmatic equivalent of the server's
// POST /v1/cpgs/{id}/query path.
func (s *Store) Query(ctx context.Context, id string, q Query) (*Result, error) {
	e, ok := s.entries[id]
	if !ok {
		return nil, fmt.Errorf("provenance: no cpg %q in store", id)
	}
	return storeSource{s: s, e: e}.Query(ctx, q)
}

// Stats snapshots the store counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	st := StoreStats{
		Version:         Version,
		CPGs:            len(s.entries),
		ResidentBytes:   s.engines.used,
		ResidentBudget:  s.opts.ResidentBudget,
		DecodedCPGs:     s.engines.len(),
		Decodes:         s.decodes,
		EngineEvictions: s.engines.evictions,
	}
	s.mu.Unlock()
	if s.results != nil {
		s.resultsMu.Lock()
		st.ResultCache = ResultCacheStats{
			Entries:   s.results.len(),
			Hits:      s.results.hits,
			Misses:    s.results.misses,
			Evictions: s.results.evictions,
		}
		s.resultsMu.Unlock()
	}
	return st
}

// Close unmaps every file. In-flight analyses stay valid (they own
// their memory, and read a thunks column they have not read yet from
// its file); the store must not be queried afterwards.
func (s *Store) Close() error {
	var first error
	for _, e := range s.entries {
		if err := e.m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// engine returns the entry's engine, materializing the analysis if it
// is not resident and evicting LRU analyses past the budget. The
// returned engine stays valid even if the entry is evicted immediately
// (analyses are immutable and own their memory) — eviction only
// affects what the *next* request pays.
func (s *Store) engine(e *storeEntry) (*Engine, error) {
	if eng, ok := s.resident(e); ok {
		return eng, nil
	}
	// Decode outside the store lock, one decoder per entry: a query
	// that waited here re-checks, and finds the engine the query it
	// waited on decoded. Different files decode in parallel.
	e.decode.Lock()
	defer e.decode.Unlock()
	if eng, ok := s.resident(e); ok {
		return eng, nil
	}
	a, n, err := e.m.Analysis()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.m.Path(), err)
	}
	eng := NewEngine(a, s.opts.Engine)
	s.mu.Lock()
	s.engines.put(e, eng, n)
	s.decodes++
	s.mu.Unlock()
	return eng, nil
}

// resident returns the entry's engine if it is resident, marking it
// most recently used.
func (s *Store) resident(e *storeEntry) (*Engine, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engines.get(e)
}

// cacheKey builds the content-addressed result-cache key: file hash,
// epoch, canonical query encoding. json.Marshal of a Query is
// canonical — struct field order is fixed — so equal queries encode
// equally. ok is false when caching is disabled or the query cannot
// be encoded.
func (s *Store) cacheKey(e *storeEntry, q Query) (string, bool) {
	if s.results == nil {
		return "", false
	}
	enc, err := json.Marshal(q)
	if err != nil {
		return "", false
	}
	e.hashOnce.Do(func() {
		h := e.m.ContentHash()
		e.hashKey = hex.EncodeToString(h[:]) + ":" + strconv.FormatUint(e.m.Header().Epoch, 10) + ":"
	})
	return e.hashKey + string(enc), true
}

// storeSource is one store entry as a Source. Only Engine materializes
// the graph unconditionally; queries go through the result cache, and
// listing info and the epoch come from what open read.
type storeSource struct {
	s *Store
	e *storeEntry
}

// Engine materializes the entry's engine. A decode failure here has no
// error channel, so it panics — the server's recovery envelope turns
// that into a logged 500 instead of a crash.
func (ss storeSource) Engine() *Engine {
	eng, err := ss.s.engine(ss.e)
	if err != nil {
		panic(fmt.Sprintf("cpg store: %v", err))
	}
	return eng
}

// Query executes one query with result caching. Cached *Result values
// are shared read-only — every consumer (the server's JSON encoder)
// only reads them.
func (ss storeSource) Query(ctx context.Context, q Query) (*Result, error) {
	s := ss.s
	key, cacheable := s.cacheKey(ss.e, q)
	if cacheable {
		s.resultsMu.Lock()
		res, ok := s.results.get(key)
		s.resultsMu.Unlock()
		if ok {
			return res, nil
		}
	}
	eng, err := s.engine(ss.e)
	if err != nil {
		return nil, err
	}
	res, err := eng.Execute(ctx, q)
	if err == nil && cacheable {
		s.resultsMu.Lock()
		s.results.put(key, res, 1)
		s.resultsMu.Unlock()
	}
	return res, err
}

// Info is the listing entry read from the stats section and header at
// open — no graph decode.
func (ss storeSource) Info() CPGInfo { return ss.e.info }

// Epoch reports the file's epoch from the header alone.
func (ss storeSource) Epoch() uint64 { return ss.e.info.Epoch }

// WaitEpoch never waits: a file's epoch is final.
func (ss storeSource) WaitEpoch(context.Context, uint64) (uint64, error) {
	return ss.Epoch(), ErrLiveClosed
}

// lru is a least-recently-used cache whose entries each cost what put
// says, evicting from the cold end while the total exceeds the budget
// (0 means unlimited). An entry that alone exceeds the budget is
// evicted by the put that adds it. It is not synchronized: each user
// holds its own lock.
type lru[K comparable, V any] struct {
	budget, used            int64
	order                   *list.List // of *lruItem[K, V], most recent in front
	items                   map[K]*list.Element
	hits, misses, evictions uint64
}

type lruItem[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

func newLRU[K comparable, V any](budget int64) *lru[K, V] {
	return &lru[K, V]{budget: budget, order: list.New(), items: make(map[K]*list.Element)}
}

func (c *lru[K, V]) len() int { return c.order.Len() }

// get returns the value under k, marking it most recently used.
func (c *lru[K, V]) get(k K) (V, bool) {
	el, ok := c.items[k]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruItem[K, V]).val, true
}

// put stores v under k at cost, most recently used, then evicts past
// the budget.
func (c *lru[K, V]) put(k K, v V, cost int64) {
	if el, ok := c.items[k]; ok {
		it := el.Value.(*lruItem[K, V])
		c.used += cost - it.cost
		it.val, it.cost = v, cost
		c.order.MoveToFront(el)
	} else {
		c.items[k] = c.order.PushFront(&lruItem[K, V]{key: k, val: v, cost: cost})
		c.used += cost
	}
	for c.budget > 0 && c.used > c.budget {
		it := c.order.Remove(c.order.Back()).(*lruItem[K, V])
		delete(c.items, it.key)
		c.used -= it.cost
		c.evictions++
	}
}
