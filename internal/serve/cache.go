package serve

import (
	"container/list"
	"encoding/json"
	"hash/crc32"
	"sync"
	"sync/atomic"
)

// CacheStats is the cache section of GET /stats.
type CacheStats struct {
	Entries    int   `json:"entries"`
	MaxEntries int   `json:"max_entries"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
	// Corruptions counts entries whose integrity checksum failed on read;
	// each was evicted and recomputed instead of served (result cache only).
	Corruptions int64 `json:"corruptions,omitempty"`
	// EncodeDrops counts results whose encoding failed at store time; each
	// was dropped instead of cached under a sum over a truncated stream
	// (result cache only).
	EncodeDrops int64 `json:"encode_drops,omitempty"`
}

// lru is a content-addressed cache with LRU eviction. Stored values are
// deterministic functions of their key, so entries never go stale; the only
// eviction pressure is capacity. Stored values are treated as immutable by
// all readers. It backs both the result cache (JSON payloads, cheap, many
// entries) and the ECO base cache (full retained outcomes, heavy, few
// entries).
type lru[V any] struct {
	mu          sync.Mutex
	max         int
	ll          *list.List // front = most recently used
	items       map[string]*list.Element
	hits        int64
	misses      int64
	evictions   int64
	corruptions int64
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](maxEntries, fallback int) *lru[V] {
	if maxEntries <= 0 {
		maxEntries = fallback
	}
	return &lru[V]{max: maxEntries, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached value for key, counting a hit or a miss.
func (c *lru[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// GetChecked is Get with an integrity gate: the entry is handed to verify
// while the cache lock is held, and a failing entry is removed and counted
// as a corruption, an eviction AND a miss in the same critical section. A
// concurrent Stats snapshot therefore always sees the three counters agree
// about every lookup — there is no window where a corrupted read has been
// counted as a hit but not yet reclassified.
func (c *lru[V]) GetChecked(key string, verify func(V) bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var zero V
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return zero, false
	}
	e := el.Value.(*lruEntry[V])
	if verify != nil && !verify(e.val) {
		c.ll.Remove(el)
		delete(c.items, key)
		c.corruptions++
		c.evictions++
		c.misses++
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return e.val, true
}

// Put stores a value, evicting the least recently used entry beyond
// capacity. Storing an existing key refreshes its value and recency.
func (c *lru[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*lruEntry[V]).key)
		c.evictions++
	}
}

// Remove drops a key if present (corrupted-entry eviction); it counts as an
// eviction.
func (c *lru[V]) Remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.ll.Remove(el)
	delete(c.items, key)
	c.evictions++
	return true
}

// Update replaces key's value with fn of it, in place: recency and the
// counters are untouched (the fault harness corrupts entries through it,
// and injecting a fault must not reorder eviction).
func (c *lru[V]) Update(key string, fn func(V) V) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	e := el.Value.(*lruEntry[V])
	e.val = fn(e.val)
	return true
}

// Peek returns the value without touching recency or the hit/miss counters.
func (c *lru[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// Stats snapshots the counters.
func (c *lru[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries: c.ll.Len(), MaxEntries: c.max,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Corruptions: c.corruptions,
	}
}

// encResult is a finished result as it is served: the result without its
// per-sink delays plus the result's two wire forms, each encoded exactly
// once, when the result is stored. It is the result-cache entry and what a
// done job holds, so serving a result — sync response, GET /jobs/{id},
// stream "done" event — writes bytes and never re-encodes it. The per-sink
// delay maps live on only in full, as bytes: the encoded form is smaller
// than the maps it replaces.
//
// slim and full are nil only for a result the cache refused because its
// encoding failed; res then is the whole result and is served by encoding
// it, as before there was a cache.
type encResult struct {
	res     *Result // res.view(false) of the stored result
	slim    []byte  // json.Marshal(result.view(false))
	full    []byte  // json.Marshal(result); aliases slim when the two coincide
	slimSum uint32  // CRC32-C of slim
	fullSum uint32  // CRC32-C of full
}

// castagnoli is the CRC32-C table, hardware-accelerated on amd64 and arm64:
// over C2's 372 KB full form it takes 22 µs where FNV-64a takes 0.62 ms.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeResult is the one place a *Result is encoded for serving: both
// wire forms, once, each under its own checksum. An encode failure is
// surfaced, not swallowed — a sum over a truncated stream would be
// indistinguishable from in-place corruption on the next read.
func encodeResult(r *Result) (*encResult, error) {
	full, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return withForms(r, full)
}

// decodeResult rebuilds a cache entry from a full wire form (a persisted
// payload): the bytes are kept as they are; only the slim form, which
// omits the bulk of them, is encoded again.
func decodeResult(full []byte) (*encResult, error) {
	r := new(Result)
	if err := json.Unmarshal(full, r); err != nil {
		return nil, err
	}
	return withForms(r, full)
}

// withForms completes an entry from a result and its full wire form.
func withForms(r *Result, full []byte) (*encResult, error) {
	sum := crc32.Checksum(full, castagnoli)
	e := &encResult{res: r.view(false), full: full, slim: full, fullSum: sum, slimSum: sum}
	if e.res != r {
		var err error
		if e.slim, err = json.Marshal(e.res); err != nil {
			return nil, err
		}
		e.slimSum = crc32.Checksum(e.slim, castagnoli)
	}
	return e, nil
}

// intact reports whether the wire form a request asks for still matches
// its checksum. Only that form is hashed: a slim hit never pays for the
// full form it does not serve.
func (e *encResult) intact(sinkDelays bool) bool {
	if sinkDelays {
		return crc32.Checksum(e.full, castagnoli) == e.fullSum
	}
	return crc32.Checksum(e.slim, castagnoli) == e.slimSum
}

// refused is the result of an entry the cache refused (no wire forms), in
// the form a request asks for, to be served by encoding it; nil otherwise,
// and for a nil entry.
func (e *encResult) refused(sinkDelays bool) *Result {
	if e == nil || e.full != nil {
		return nil
	}
	return e.res.view(sinkDelays)
}

// form is the wire form a request asks for; nil for a refused result.
func (e *encResult) form(sinkDelays bool) []byte {
	if sinkDelays {
		return e.full
	}
	return e.slim
}

// cache is the result cache: an LRU of encoded results, each wire form
// under a CRC32-C computed at store time and re-verified on every read of
// that form, over the very bytes the hit writes. A mismatch means the entry was corrupted in place
// (injected by the fault harness, or real memory damage), so Get evicts it
// and reports a miss — the caller recomputes instead of serving garbage.
type cache struct {
	lru         *lru[encResult]
	encodeDrops atomic.Int64
}

func newCache(maxEntries int) *cache {
	return &cache{lru: newLRU[encResult](maxEntries, 128)}
}

// GetForm returns the cached entry after verifying the checksum of the
// wire form the caller will serve (sinkDelays selects it, as in form).
// Verification runs under the LRU lock so the hit/miss/corruption counters
// stay mutually consistent (see lru.GetChecked).
func (c *cache) GetForm(key string, sinkDelays bool) (*encResult, bool) {
	return c.get(key, func(e encResult) bool { return e.intact(sinkDelays) })
}

// Get is GetForm for a caller that may serve either form: both are
// verified.
func (c *cache) Get(key string) (*encResult, bool) {
	return c.get(key, func(e encResult) bool { return e.intact(false) && e.intact(true) })
}

func (c *cache) get(key string, verify func(encResult) bool) (*encResult, bool) {
	e, ok := c.lru.GetChecked(key, verify)
	if !ok {
		return nil, false
	}
	return &e, true
}

// Put encodes and stores a result, reporting whether it was stored.
func (c *cache) Put(key string, res *Result) bool {
	return c.put(key, res) != nil
}

// put encodes and stores a result, returning the stored entry. A result
// whose encoding fails — which a well-formed engine result never does — is
// dropped and counted instead (nil).
func (c *cache) put(key string, res *Result) *encResult {
	e, err := encodeResult(res)
	if err != nil {
		c.encodeDrops.Add(1)
		return nil
	}
	c.lru.Put(key, *e)
	return e
}

// Has reports whether a key is present without touching recency or the
// hit/miss counters: cluster routing peeks before forwarding a request to
// its ring owner, and a peek must not distort the cache statistics.
func (c *cache) Has(key string) bool {
	_, ok := c.lru.Peek(key)
	return ok
}

// Corrupt flips the stored checksums of an entry in place, simulating
// in-place corruption for the fault harness and tests; the next Get of
// either form must detect it. The entry keeps its place in the eviction
// order.
func (c *cache) Corrupt(key string) bool {
	return c.lru.Update(key, func(e encResult) encResult {
		e.slimSum ^= 0xdeadbeef
		e.fullSum ^= 0xdeadbeef
		return e
	})
}

// Stats snapshots the counters. A corrupted read counts as a miss (the
// caller recomputed), not a hit, and its eviction is included in Evictions;
// all three are taken from one LRU snapshot, so no transient combination
// (negative hits included) is ever observable.
func (c *cache) Stats() CacheStats {
	st := c.lru.Stats()
	st.EncodeDrops = c.encodeDrops.Load()
	return st
}
