// Package rescache is a query-result cache keyed by the canonicalized
// compiled plan (internal/sparql PlanKey) combined with a source
// fingerprint. Entries are validated against the source's data epoch —
// a monotonic counter the source bumps on every mutation — so ingest
// invalidates cached answers without any explicit hook call. Sources
// that expose no epoch fall back to a TTL bound.
//
// Correctness contract:
//
//   - For an Epocher source the epoch is read BEFORE evaluation and
//     stored with the entry. If a write lands mid-evaluation the stored
//     epoch is already behind, so the entry can never validate — torn
//     reads are conservatively treated as stale.
//   - A source whose evaluation itself advances the epoch (the OBDA
//     virtual graph refreshes its window cache inside eval) declares
//     that with EvalEpocher; for those the epoch is captured at Fill
//     time instead. That is sound because such evaluations are
//     serialized by the source and are a pure function of its state.
//   - An entry holds only the encoded SPARQL-results-JSON body
//     (sparql.AppendResultsJSON), which is what the endpoint writes:
//     a hit with the filler's variable spelling is a slice hand-off.
//     Returned bodies are shared read-only; callers must not mutate
//     them. Only the rare paths decode: a hit under renamed variables
//     and a stale serve re-encode under the caller's spelling, and the
//     federation decodes hits back into a result set.
package rescache

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"applab/internal/sparql"
	"applab/internal/telemetry"
)

// Epocher is implemented by sources whose data version is observable as
// a monotonic counter.
type Epocher interface {
	DataEpoch() uint64
}

// Fingerprinter distinguishes source *instances*. A fingerprint must be
// unique per logical dataset instance: reopening a store from disk must
// yield a fresh fingerprint (epochs restart at zero, so stale entries
// from the previous instance must be unreachable).
type Fingerprinter interface {
	Fingerprint() string
}

// EvalEpocher marks sources whose evaluation advances their own epoch
// (e.g. a virtual graph that refreshes its backing cache during eval).
// For these the cache captures the epoch after evaluation, at Fill time.
type EvalEpocher interface {
	Epocher
	EpochAdvancesOnEval()
}

// Status classifies a Lookup outcome.
type Status int

const (
	// Bypass: the cache declined (nil cache, uncacheable query/source).
	Bypass Status = iota
	// Miss: no valid entry; caller should evaluate and Fill.
	Miss
	// Hit: a validated entry was returned.
	Hit
	// Stale: an entry exists but failed validation (epoch moved or TTL
	// expired). Lookup treats it as a miss; LookupStale serves it.
	Stale
)

func (s Status) String() string {
	switch s {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Stale:
		return "stale"
	default:
		return "bypass"
	}
}

// instanceSeq feeds process-unique fallback fingerprints.
var instanceSeq atomic.Uint64

// NextFingerprint returns a process-unique fingerprint with the given
// prefix. Sources use it to mint per-instance identities.
func NextFingerprint(prefix string) string {
	return prefix + "-" + strconv.FormatUint(instanceSeq.Add(1), 10)
}

type entry struct {
	body     []byte            // encoded answer; its length is the entry's cost
	varMap   map[string]string // original var -> canonical slot, from fill-time query
	epoch    uint64
	hasEpoch bool
	filledAt time.Time
	elem     *list.Element
}

func (e *entry) cost() int64 { return int64(len(e.body)) }

// Fill stores an evaluation result for the key that missed. A zero Fill
// (from a Bypass) is a no-op.
type Fill struct {
	c     *Cache
	key   string
	vm    map[string]string
	src   sparql.Source
	epoch uint64 // pre-read epoch (ignored for EvalEpocher sources)
	has   bool
	eval  bool // capture epoch at Fill time (EvalEpocher)
}

// Cache is a bounded, LRU-evicting, epoch-validated result cache. The
// zero value is not usable; call New.
type Cache struct {
	capacity int
	ttl      time.Duration

	// Now is the clock used for TTL checks; defaults to time.Now.
	// Swap for a fake clock in tests.
	Now func() time.Time

	// Metrics, when set, records cache_* counters.
	Metrics *telemetry.Registry

	mu       sync.Mutex
	entries  map[string]*entry
	lru      *list.List // front = most recent; values are keys
	maxBytes int64
	bytes    int64
}

// New returns a cache holding at most capacity entries, each valid for
// at most ttl (ttl <= 0 means no TTL bound for epoch-validated entries
// and a 1-minute default bound for epochless ones).
func New(capacity int, ttl time.Duration) *Cache {
	if capacity <= 0 {
		capacity = 256
	}
	return &Cache{
		capacity: capacity,
		ttl:      ttl,
		Now:      time.Now,
		entries:  make(map[string]*entry),
		lru:      list.New(),
	}
}

const epochlessTTL = time.Minute

// SetMaxBytes bounds the cache by total entry cost — the exact length
// of each entry's encoded response body — in addition to the
// entry-count capacity.
// n <= 0 removes the byte bound. Shrinking below the current residency
// evicts from the LRU tail immediately.
func (c *Cache) SetMaxBytes(n int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.maxBytes = n
	c.evictLocked()
	resident := len(c.entries)
	bytes := c.bytes
	c.mu.Unlock()
	c.setEntries(resident)
	c.setBytes(bytes)
}

// MaxBytes reports the current byte budget (0 = unbounded).
func (c *Cache) MaxBytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxBytes
}

// Bytes reports the summed cost of resident entries.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// evictLocked pops LRU-tail entries until both bounds hold. A single
// entry costing more than the whole byte budget is evicted too: the
// cache honors its budget rather than pinning one oversized answer.
func (c *Cache) evictLocked() {
	for len(c.entries) > c.capacity || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		back := c.lru.Back()
		if back == nil {
			break
		}
		k := back.Value.(string)
		c.lru.Remove(back)
		c.bytes -= c.entries[k].cost()
		delete(c.entries, k)
		c.noteEviction()
	}
}

// key derives the cache key for a query against a source, or "" when
// the pair is not cacheable (no fingerprint — identity unknown).
func (c *Cache) key(q *sparql.Query, src sparql.Source) (string, map[string]string) {
	fp, ok := src.(Fingerprinter)
	if !ok {
		return "", nil
	}
	cp := q.PlanKey()
	return fp.Fingerprint() + "\x00" + cp.Key, cp.VarMap
}

// Lookup checks for a cached answer to q over src. On Hit the returned
// body is the encoded answer under q's variable spelling, ready to
// write. On Miss/Stale/Bypass the caller evaluates and, for
// Miss/Stale, calls Fill.Store with the fresh result.
func (c *Cache) Lookup(q *sparql.Query, src sparql.Source) ([]byte, Fill, Status) {
	if c == nil {
		return nil, Fill{}, Bypass
	}
	key, vm := c.key(q, src)
	if key == "" {
		c.noteBypass()
		return nil, Fill{}, Bypass
	}

	fill := Fill{c: c, key: key, vm: vm, src: src}
	if ee, ok := src.(EvalEpocher); ok {
		_ = ee
		fill.eval = true
	} else if ep, ok := src.(Epocher); ok {
		fill.epoch = ep.DataEpoch()
		fill.has = true
	}

	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.noteMiss()
		return nil, fill, Miss
	}
	valid := c.validLocked(e, src)
	if !valid {
		c.mu.Unlock()
		c.noteStale()
		return nil, fill, Stale
	}
	c.lru.MoveToFront(e.elem)
	body, evm := e.body, e.varMap
	c.mu.Unlock()

	out := remap(body, evm, vm)
	if out == nil {
		// Slot structure mismatch should be impossible for equal keys;
		// degrade to a miss rather than serve a wrong shape.
		c.noteMiss()
		return nil, fill, Miss
	}
	c.noteHit()
	return out, fill, Hit
}

// LookupStale returns a cached body even if its epoch is behind or its
// TTL has lapsed — the degraded-serving path. It never returns entries
// from a different source instance (fingerprints see to that).
func (c *Cache) LookupStale(q *sparql.Query, src sparql.Source) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	key, vm := c.key(q, src)
	if key == "" {
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	body, evm := e.body, e.varMap
	c.mu.Unlock()
	out := remap(body, evm, vm)
	if out == nil {
		return nil, false
	}
	c.noteStaleServed()
	return out, true
}

// validLocked reports whether e is still serveable as fresh.
func (c *Cache) validLocked(e *entry, src sparql.Source) bool {
	if e.hasEpoch {
		ep, ok := src.(Epocher)
		if !ok || ep.DataEpoch() != e.epoch {
			return false
		}
		if c.ttl > 0 && c.Now().Sub(e.filledAt) >= c.ttl {
			return false
		}
		return true
	}
	ttl := c.ttl
	if ttl <= 0 {
		ttl = epochlessTTL
	}
	return c.Now().Sub(e.filledAt) < ttl
}

// Store encodes res once, records the body for the looked-up key and
// returns it, so the caller writes exactly the bytes it cached. A zero
// Fill (from a Bypass) stores nothing and returns nil. A CONSTRUCT
// result is encoded but not stored: its Graph is not part of the body.
// Concurrent fills of the same key are last-write-wins; both results
// are correct answers for their respective epochs, and validation
// re-checks on every hit.
func (f Fill) Store(res *sparql.Results) []byte {
	if f.c == nil || res == nil {
		return nil
	}
	body := sparql.AppendResultsJSON(nil, res)
	body = body[:len(body):len(body)] // shared: an append must copy
	if res.Graph != nil {
		return body
	}
	e := &entry{body: body, varMap: f.vm, epoch: f.epoch, hasEpoch: f.has, filledAt: f.c.Now()}
	if f.eval {
		if ep, ok := f.src.(Epocher); ok {
			e.epoch = ep.DataEpoch()
			e.hasEpoch = true
		}
	}
	c := f.c
	c.mu.Lock()
	if old, ok := c.entries[f.key]; ok {
		c.lru.Remove(old.elem)
		c.bytes -= old.cost()
	}
	e.elem = c.lru.PushFront(f.key)
	c.entries[f.key] = e
	c.bytes += e.cost()
	c.evictLocked()
	n := len(c.entries)
	bytes := c.bytes
	c.mu.Unlock()
	c.noteFill()
	c.setEntries(n)
	c.setBytes(bytes)
	return body
}

// Len reports the number of resident entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Purge drops every entry.
func (c *Cache) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.entries = make(map[string]*entry)
	c.lru.Init()
	c.bytes = 0
	c.mu.Unlock()
	c.setEntries(0)
	c.setBytes(0)
}

// remap serves a cached body under the variable spelling of the
// querying (lookup-side) query. entryVM maps fill-time names to slots;
// lookupVM maps lookup-time names to the same slots. With identical
// spelling the body is shared as is; otherwise it is decoded, its
// columns renamed, and re-encoded. Returns nil if the slot sets don't
// line up (defensive; equal keys imply equal slots).
func remap(body []byte, entryVM, lookupVM map[string]string) []byte {
	same := len(entryVM) == len(lookupVM)
	if same {
		for name, slot := range entryVM {
			if lookupVM[name] != slot {
				same = false
				break
			}
		}
	}
	if same {
		return body
	}
	res, err := sparql.DecodeResultsJSON(body)
	if err != nil {
		return nil
	}
	// ASK results carry no variable columns.
	if len(res.Vars) == 0 && len(res.Bindings) == 0 {
		return body
	}
	// slot -> lookup-side name
	fromSlot := make(map[string]string, len(lookupVM))
	for name, slot := range lookupVM {
		fromSlot[slot] = name
	}
	trans := make(map[string]string, len(entryVM)) // entry name -> lookup name
	for name, slot := range entryVM {
		ln, ok := fromSlot[slot]
		if !ok {
			return nil
		}
		trans[name] = ln
	}
	for i, v := range res.Vars {
		ln, ok := trans[v]
		if !ok {
			return nil
		}
		res.Vars[i] = ln
	}
	for i, b := range res.Bindings {
		nb := make(sparql.Binding, len(b))
		for v, t := range b {
			ln, ok := trans[v]
			if !ok {
				return nil
			}
			nb[ln] = t
		}
		res.Bindings[i] = nb
	}
	return sparql.AppendResultsJSON(make([]byte, 0, len(body)), res)
}
