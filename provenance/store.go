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

// StoreOptions configure a directory-backed CPG store.
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
	// Lenient skips files that fail to open or checksum, logging each
	// by name, instead of failing OpenDir — one corrupt archive must
	// not take down the healthy neighbors.
	Lenient bool
	// Logf receives lenient-skip and decode-failure lines (nil = none).
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

// Store serves a directory of on-disk CPG files with bounded memory.
// Every file stays cheaply memory-mapped; decoded analyses (the
// expensive part) live in an LRU governed by the resident-bytes
// budget, and repeated queries short-circuit through a result cache
// keyed by (file content hash, epoch, canonical query encoding).
// That key is sound because a CPG file is immutable and its analysis
// is immutable per epoch: same bytes, same epoch, same query — same
// result, forever. All methods are safe for concurrent use.
type Store struct {
	opts  StoreOptions
	cache *resultCache

	mu       sync.Mutex
	entries  map[string]*storeEntry
	lru      *list.List // entries with a resident engine, most recent in front
	resident int64
	decodes  uint64
	evicted  uint64
}

// storeEntry is one served file. eng/bytes/elem are guarded by the
// store mutex; m has its own synchronization.
type storeEntry struct {
	m     *cpgfile.Mapped
	eng   *Engine
	bytes int64
	elem  *list.Element
	// hashKey caches the hex content hash once a query computes it.
	hashOnce sync.Once
	hashKey  string
}

// OpenDir opens every *.cpg file in dir (the CPG id is the file name
// without the extension) and verifies all section checksums up front —
// a sequential read per file, no decoding — so a corrupt file is
// rejected (or, with Lenient, skipped by name) at startup rather than
// surfacing mid-query.
func OpenDir(dir string, opts StoreOptions) (*Store, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.cpg"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	s := &Store{
		opts:    opts,
		entries: make(map[string]*storeEntry, len(paths)),
		lru:     list.New(),
	}
	switch {
	case opts.ResultCacheCapacity == 0:
		s.cache = newResultCache(defaultResultCacheCapacity)
	case opts.ResultCacheCapacity > 0:
		s.cache = newResultCache(opts.ResultCacheCapacity)
	}
	for _, path := range paths {
		m, err := cpgfile.Open(path)
		if err == nil {
			err = m.VerifyChecksums()
		}
		if err != nil {
			if m != nil {
				m.Close()
			}
			if opts.Lenient {
				s.logf("provenance: skipping %s: %v (-lenient)", path, err)
				continue
			}
			s.Close()
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		id := strings.TrimSuffix(filepath.Base(path), ".cpg")
		if _, dup := s.entries[id]; dup {
			m.Close()
			s.Close()
			return nil, fmt.Errorf("%s: duplicate cpg id %q", path, id)
		}
		s.entries[id] = &storeEntry{m: m}
	}
	return s, nil
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
		ResidentBytes:   s.resident,
		ResidentBudget:  s.opts.ResidentBudget,
		DecodedCPGs:     s.lru.Len(),
		Decodes:         s.decodes,
		EngineEvictions: s.evicted,
	}
	s.mu.Unlock()
	if s.cache != nil {
		st.ResultCache = s.cache.stats()
	}
	return st
}

// Close unmaps every file. In-flight analyses stay valid (they own
// their memory); the store must not be queried afterwards.
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
	s.mu.Lock()
	if e.eng != nil {
		eng := e.eng
		s.touch(e)
		s.mu.Unlock()
		return eng, nil
	}
	s.mu.Unlock()

	// Decode outside the store lock: the Mapped's own mutex serializes
	// concurrent decoders of the same file, while different files
	// decode in parallel.
	a, n, err := e.m.Analysis()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.m.Path(), err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if e.eng == nil {
		e.eng = NewEngine(a, s.opts.Engine)
		e.bytes = n
		s.resident += n
		s.decodes++
	}
	eng := e.eng
	s.touch(e)
	s.evict()
	return eng, nil
}

// touch marks the entry most recently used. Caller holds s.mu.
func (s *Store) touch(e *storeEntry) {
	if e.elem != nil {
		s.lru.MoveToFront(e.elem)
		return
	}
	e.elem = s.lru.PushFront(e)
}

// evict drops least-recently-used decoded analyses until the resident
// estimate fits the budget. Caller holds s.mu.
func (s *Store) evict() {
	for s.opts.ResidentBudget > 0 && s.resident > s.opts.ResidentBudget {
		el := s.lru.Back()
		if el == nil {
			return
		}
		victim := el.Value.(*storeEntry)
		s.lru.Remove(el)
		victim.elem = nil
		if victim.eng != nil {
			victim.eng = nil
			s.resident -= victim.bytes
			victim.bytes = 0
			victim.m.Drop()
			s.evicted++
		}
	}
}

// cacheKey builds the content-addressed result-cache key: file hash,
// epoch, canonical query encoding. json.Marshal of a Query is
// canonical — struct field order is fixed — so equal queries encode
// equally. ok is false when caching is disabled or the query cannot
// be encoded.
func (s *Store) cacheKey(e *storeEntry, q Query) (string, bool) {
	if s.cache == nil {
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
// the graph unconditionally; queries go through the result cache,
// listing info comes from the stats section and the epoch from the
// header.
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

// Query executes one query with result caching.
func (ss storeSource) Query(ctx context.Context, q Query) (*Result, error) {
	key, cacheable := ss.s.cacheKey(ss.e, q)
	if cacheable {
		if res, ok := ss.s.cache.get(key); ok {
			return res, nil
		}
	}
	eng, err := ss.s.engine(ss.e)
	if err != nil {
		return nil, err
	}
	res, err := eng.Execute(ctx, q)
	if err == nil && cacheable {
		ss.s.cache.put(key, res)
	}
	return res, err
}

// Info describes the CPG from its precomputed stats section and
// header — no graph decode.
func (ss storeSource) Info() CPGInfo {
	hdr := ss.e.m.Header()
	st, err := ss.e.m.Stats()
	if err != nil {
		ss.s.logf("provenance: %s: stats section unreadable: %v", ss.e.m.Path(), err)
	}
	return infoOf(Stats(st), hdr.Epoch, hdr.Degraded)
}

// Epoch reports the file's epoch from the header alone.
func (ss storeSource) Epoch() uint64 { return ss.e.m.Header().Epoch }

// WaitEpoch never waits: a file's epoch is final.
func (ss storeSource) WaitEpoch(context.Context, uint64) (uint64, error) {
	return ss.Epoch(), ErrLiveClosed
}

// resultCache is a capacity-bounded LRU of query results. Cached
// *Result values are shared read-only — every consumer (the server's
// JSON encoder) only reads them.
type resultCache struct {
	capacity int

	mu        sync.Mutex
	byKey     map[string]*list.Element
	lru       *list.List // of *cacheSlot
	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheSlot struct {
	key string
	res *Result
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		capacity: capacity,
		byKey:    make(map[string]*list.Element, capacity),
		lru:      list.New(),
	}
}

func (c *resultCache) get(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheSlot).res, true
}

func (c *resultCache) put(key string, res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheSlot).res = res
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(&cacheSlot{key: key, res: res})
	for c.lru.Len() > c.capacity {
		el := c.lru.Back()
		slot := el.Value.(*cacheSlot)
		c.lru.Remove(el)
		delete(c.byKey, slot.key)
		c.evictions++
	}
}

func (c *resultCache) stats() ResultCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ResultCacheStats{
		Entries:   c.lru.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
