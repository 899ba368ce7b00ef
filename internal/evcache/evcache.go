// Package evcache is the explorer's persistent, content-addressed
// evaluation cache: a two-level store (an in-memory LRU in front of
// on-disk JSON-lines shards) keyed by hashes that cover everything an
// evaluation sweep can observe — the kernel source, the unroll policy,
// the compiler fingerprint, the reference workload, and the target's
// backend signature. A re-run of the full design-space sweep against a
// warm cache is near-instant, and an interrupted sweep resumes warm.
//
// Layout: one shard file per benchmark under the cache directory
// (`<bench>.jsonl`), each starting with a versioned header line.
// Loading a shard whose header does not match the current
// SchemaVersion silently discards it — a stale schema self-invalidates
// rather than poisoning results. Shards are rewritten wholesale
// through a temp file plus atomic rename, so a crashed or interrupted
// writer can never leave a half-written shard behind: readers see
// either the old complete file or the new one.
//
// Concurrency: every method is safe for concurrent use. Do gives
// lookups singleflight semantics — workers racing on the same cold key
// share one compute instead of duplicating the miss.
//
// Fleet tier: SetRemote attaches a Store (typically
// internal/fleetcache's HTTP client against a cfp-serve peer) and the
// cache becomes the local level of a fleet-wide two-level cache — a
// local miss reads through the remote before computing, and local
// computes are shipped back via an async bounded write-behind queue
// that never blocks the evaluate hot path. A failing remote degrades
// the cache to local-only behind a circuit breaker; it never fails a
// lookup. See docs/PERFORMANCE.md.
//
// Telemetry (when an obs collector is installed): `evcache.hits`,
// `evcache.misses`, `evcache.coalesced` (misses absorbed by an
// in-flight compute), `evcache.bytes` (shard bytes read + written),
// `evcache.invalidated` (shards discarded on schema mismatch) and
// `evcache.corrupt_lines` (undecodable shard lines skipped at load,
// typically a line truncated by a crash mid-flush). The fleet tier
// adds `evcache.net_hits`, `evcache.net_misses`, `evcache.net_errors`,
// `evcache.net_degraded` (circuit-breaker trips),
// `evcache.writebehind_flushes`, `evcache.writebehind_dropped` and the
// `evcache.net_fetch_seconds` latency histogram (p50/p95 via the obs
// reservoir).
package evcache

import (
	"bufio"
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"customfit/internal/obs"
)

// SchemaVersion is stamped into every shard header. Bump it whenever
// the Entry encoding or the key derivation changes shape; old shards
// are then ignored on load instead of being misread.
const SchemaVersion = 1

// headerMagic identifies a shard file as ours.
const headerMagic = "cfp-evcache"

// autoFlushDirty bounds how many unflushed entries a shard may pin in
// memory before it is written back inline.
const autoFlushDirty = 4096

// DefaultMaxEntries is the default in-memory LRU capacity. Entries are
// a few dozen bytes, so the default comfortably holds several
// full-space sweeps; lower it with SetMaxEntries for constrained runs.
const DefaultMaxEntries = 1 << 18

// Entry is one cached evaluation sweep: the architecture-signature
// invariant outcome of compiling a kernel at every unroll factor until
// spill. Cycle-time derating and datapath cost are deliberately
// excluded — both are recomputed from models outside the backend, so
// model changes never invalidate the cache.
type Entry struct {
	Unroll  int   `json:"u"`
	Cycles  int64 `json:"c"`
	Spilled int   `json:"s"`
	Failed  bool  `json:"f,omitempty"`
	// Runs is how many backend compilations the sweep performed, so a
	// cache hit can re-count them as logical runs (the paper's Table 3
	// accounting).
	Runs int64 `json:"r"`
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits      int64
	Misses    int64
	Coalesced int64 // misses served by waiting on an in-flight compute
	BytesRead int64
	BytesWrit int64
	// CorruptLines counts shard lines skipped at load because they did
	// not decode (typically one truncated trailing line from a crash
	// mid-flush). The rest of the shard still loads.
	CorruptLines int64
	// Computes counts Do/DoErr calls that fell through both cache
	// levels and ran the compute here — the fleet test's "backend
	// compilations actually performed by this process" signal.
	Computes int64
	// NetHits/NetMisses/NetErrors count remote-tier read-throughs (only
	// meaningful after SetRemote). Errors also feed the circuit breaker
	// that degrades the cache to local-only.
	NetHits   int64
	NetMisses int64
	NetErrors int64
	// WriteBehindFlushed counts entries shipped to the remote tier;
	// WriteBehindDropped counts entries dropped because the bounded
	// queue was full or the remote refused the batch.
	WriteBehindFlushed int64
	WriteBehindDropped int64
}

// Cache is the two-level store. The zero value is not usable; call
// Open.
type Cache struct {
	dir string // "" = memory-only (no persistence)

	mu     sync.Mutex
	max    int
	shards map[string]*shard
	lru    *list.List // of *node; front = most recently used
	n      int        // resident entries
	flight map[string]*flight
	stats  Stats

	// remote is the optional network tier (SetRemote), read without the
	// lock — it is set once before concurrent use.
	remote *remoteState
	// Read-path circuit breaker (under mu): consecutive failures and
	// the deadline until which the remote is skipped.
	netFails     int
	netDownUntil time.Time
}

// node is one resident entry, linked into the LRU.
type node struct {
	shard string
	key   string
	e     Entry
	dirty bool // not yet persisted (always false when memory-only)
}

// shard is the in-memory view of one on-disk shard file.
type shard struct {
	loaded  bool
	entries map[string]*list.Element
	dirty   int // unflushed entries
}

// flight coordinates singleflight computes: waiters block on done and
// then read e (or err, when the compute aborted without producing an
// entry — nothing was stored, and waiters retry or propagate).
type flight struct {
	done chan struct{}
	e    Entry
	err  error
}

type header struct {
	Magic  string `json:"evcache"`
	Schema int    `json:"schema"`
}

// Open returns a cache persisting under dir, creating the directory if
// needed. An empty dir yields a memory-only cache: the evaluator's
// default result store (see dse.NewEvaluator), and useful for tests.
func Open(dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("evcache: %w", err)
		}
	}
	return &Cache{
		dir:    dir,
		max:    DefaultMaxEntries,
		shards: map[string]*shard{},
		lru:    list.New(),
		flight: map[string]*flight{},
	}, nil
}

// SetMaxEntries adjusts the in-memory LRU capacity. Dirty entries are
// pinned until flushed, so the cache may transiently exceed the cap by
// up to the auto-flush threshold per shard.
func (c *Cache) SetMaxEntries(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 1 {
		n = 1
	}
	c.max = n
	c.evictLocked()
}

// Dir returns the backing directory ("" when memory-only).
func (c *Cache) Dir() string { return c.dir }

// Stats returns a snapshot of hit/miss/IO counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Get returns the cached entry for (shardName, key), consulting memory
// first and the shard file on first touch of the shard.
func (c *Cache) Get(shardName, key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.loadLocked(shardName)
	if el, ok := s.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hitLocked()
		return el.Value.(*node).e, true
	}
	c.missLocked()
	return Entry{}, false
}

// Contains reports whether (shardName, key) is resident without
// touching hit/miss accounting or LRU order (used to decide whether
// warm-up work can be skipped).
func (c *Cache) Contains(shardName, key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.loadLocked(shardName)
	_, ok := s.entries[key]
	return ok
}

// Put stores an entry, scheduling it for persistence on the next
// flush (or inline once the shard accumulates enough dirty entries).
// With a remote tier attached, the entry is also enqueued for
// write-behind: a direct Put is new local data the fleet has not seen.
func (c *Cache) Put(shardName, key string, e Entry) {
	c.mu.Lock()
	s := c.loadLocked(shardName)
	c.insertLocked(s, shardName, key, e, c.dir != "")
	c.autoFlushLocked(shardName, s)
	c.mu.Unlock()
	c.writeBehind(shardName, key, e)
}

// Do returns the cached entry for (shardName, key), computing and
// storing it on a miss. Concurrent callers racing on the same cold key
// share a single compute: the first runs it, the rest block and reuse
// its result. The boolean reports whether the entry came from the
// cache (including a shared in-flight compute) rather than this
// caller's own compute.
func (c *Cache) Do(shardName, key string, compute func() Entry) (Entry, bool) {
	e, hit, _ := c.DoErr(shardName, key, func() (Entry, error) { return compute(), nil })
	return e, hit
}

// DoErr is Do for computes that can abort (typically on context
// cancellation): a compute returning an error stores nothing — the key
// stays cold, so a later caller recomputes it cleanly. Waiters
// coalesced onto an aborted compute retry the lookup themselves rather
// than inheriting the aborter's error; a waiter whose own compute then
// aborts propagates its own error.
func (c *Cache) DoErr(shardName, key string, compute func() (Entry, error)) (Entry, bool, error) {
	fkey := shardName + "\x00" + key
	for {
		c.mu.Lock()
		s := c.loadLocked(shardName)
		if el, ok := s.entries[key]; ok {
			c.lru.MoveToFront(el)
			c.hitLocked()
			e := el.Value.(*node).e
			c.mu.Unlock()
			return e, true, nil
		}
		if f, ok := c.flight[fkey]; ok {
			c.stats.Coalesced++
			obs.GetCounter("evcache.coalesced").Inc()
			c.mu.Unlock()
			<-f.done
			if f.err != nil {
				continue // aborted in flight: retry with our own compute
			}
			return f.e, true, nil
		}
		f := &flight{done: make(chan struct{})}
		c.flight[fkey] = f
		c.missLocked()
		c.mu.Unlock()

		// Read through the remote tier before computing: a sweep compiled
		// anywhere in the fleet is fetched, not recompiled. The fetch
		// rides the singleflight, so racing callers share one network
		// round trip exactly as they would share one compute. Remote hits
		// are admitted locally (persisted like any entry) but never
		// enqueued for write-behind — the fleet already has them.
		if re, ok := c.remoteLookup(shardName, key); ok {
			f.e = re
			c.settleFlight(shardName, key, f, fkey, true)
			return re, true, nil
		}

		f.e, f.err = compute()
		c.mu.Lock()
		c.stats.Computes++
		c.mu.Unlock()
		c.settleFlight(shardName, key, f, fkey, f.err == nil)
		if f.err == nil {
			c.writeBehind(shardName, key, f.e)
		}
		return f.e, false, f.err
	}
}

// settleFlight stores a finished flight's entry (when store is set),
// clears the flight and wakes waiters. The shard is re-resolved under
// the lock: a concurrent DropShard may have detached the view the
// caller loaded before computing.
func (c *Cache) settleFlight(shardName, key string, f *flight, fkey string, store bool) {
	c.mu.Lock()
	s := c.loadLocked(shardName)
	if store {
		c.insertLocked(s, shardName, key, f.e, c.dir != "")
	}
	delete(c.flight, fkey)
	c.autoFlushLocked(shardName, s)
	c.mu.Unlock()
	close(f.done)
}

// Flush persists every dirty shard via temp-file + atomic rename.
func (c *Cache) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	for name, s := range c.shards {
		if s.dirty == 0 {
			continue
		}
		if err := c.flushShardLocked(name, s); err != nil {
			return err
		}
	}
	return nil
}

// Close drains the write-behind queue (when a remote tier is
// attached), flushes dirty shards, and renders further writes
// best-effort-only. It is the caller's shutdown hook; the cache
// remains readable afterwards.
func (c *Cache) Close() error {
	c.stopWriteBehind()
	return c.Flush()
}

func (c *Cache) hitLocked() {
	c.stats.Hits++
	obs.GetCounter("evcache.hits").Inc()
}

func (c *Cache) missLocked() {
	c.stats.Misses++
	obs.GetCounter("evcache.misses").Inc()
}

// loadLocked returns shardName's in-memory view, reading its file on
// first touch. Unreadable files, foreign files and stale schemas are
// treated as an empty shard.
func (c *Cache) loadLocked(name string) *shard {
	s := c.shards[name]
	if s == nil {
		s = &shard{entries: map[string]*list.Element{}}
		c.shards[name] = s
	}
	if s.loaded {
		return s
	}
	s.loaded = true
	if c.dir == "" {
		return s
	}
	f, err := os.Open(c.shardPath(name))
	if err != nil {
		return s // no shard on disk yet
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return s
	}
	var h header
	line := sc.Bytes()
	if json.Unmarshal(line, &h) != nil || h.Magic != headerMagic || h.Schema != SchemaVersion {
		obs.GetCounter("evcache.invalidated").Inc()
		return s // stale or foreign: self-invalidate by ignoring it
	}
	read := int64(len(line))
	for sc.Scan() {
		b := sc.Bytes()
		var r Record
		// A torn tail line (a crash mid-flush before the atomic rename
		// landed, or filesystem truncation) or junk is skipped, not
		// fatal: one bad line must never cost the rest of the shard.
		if json.Unmarshal(b, &r) != nil || r.Key == "" {
			c.stats.CorruptLines++
			obs.GetCounter("evcache.corrupt_lines").Inc()
			continue
		}
		read += int64(len(b))
		c.insertLocked(s, name, r.Key, r.Entry, false)
	}
	c.stats.BytesRead += read
	obs.GetCounter("evcache.bytes").Add(read)
	return s
}

// insertLocked adds or refreshes one entry and evicts past capacity.
func (c *Cache) insertLocked(s *shard, shardName, key string, e Entry, dirty bool) {
	if el, ok := s.entries[key]; ok {
		nd := el.Value.(*node)
		if dirty && !nd.dirty {
			s.dirty++
		}
		nd.e = e
		nd.dirty = nd.dirty || dirty
		c.lru.MoveToFront(el)
		return
	}
	el := c.lru.PushFront(&node{shard: shardName, key: key, e: e, dirty: dirty})
	s.entries[key] = el
	c.n++
	if dirty {
		s.dirty++
	}
	c.evictLocked()
}

// evictLocked drops least-recently-used clean entries down to
// capacity. Dirty entries are pinned (their data exists nowhere else)
// until a flush cleans them.
func (c *Cache) evictLocked() {
	for el := c.lru.Back(); el != nil && c.n > c.max; {
		nd := el.Value.(*node)
		prev := el.Prev()
		if !nd.dirty {
			c.lru.Remove(el)
			delete(c.shards[nd.shard].entries, nd.key)
			c.n--
		}
		el = prev
	}
}

// autoFlushLocked writes a shard back once it accumulates enough
// unflushed entries, bounding pinned memory on long sweeps.
func (c *Cache) autoFlushLocked(name string, s *shard) {
	if c.dir == "" || s.dirty < autoFlushDirty {
		return
	}
	// Flush failures here are deferred to the explicit Flush/Close,
	// which reports them; the entries stay dirty and pinned.
	_ = c.flushShardLocked(name, s)
}

// flushShardLocked rewrites one shard: the on-disk records (which may
// include entries long evicted from memory) merged with every resident
// entry, written to a temp file and atomically renamed into place.
func (c *Cache) flushShardLocked(name string, s *shard) error {
	merged := map[string]Entry{}
	order := []string{} // stable-ish: disk order then new keys
	if f, err := os.Open(c.shardPath(name)); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		if sc.Scan() {
			var h header
			if json.Unmarshal(sc.Bytes(), &h) == nil && h.Magic == headerMagic && h.Schema == SchemaVersion {
				for sc.Scan() {
					var r Record
					if json.Unmarshal(sc.Bytes(), &r) == nil && r.Key != "" {
						if _, ok := merged[r.Key]; !ok {
							order = append(order, r.Key)
						}
						merged[r.Key] = r.Entry
					}
				}
			}
		}
		f.Close()
	}
	for key, el := range s.entries {
		if _, ok := merged[key]; !ok {
			order = append(order, key)
		}
		merged[key] = el.Value.(*node).e
	}

	tmp, err := os.CreateTemp(c.dir, "."+sanitize(name)+".tmp-*")
	if err != nil {
		return fmt.Errorf("evcache: flush %s: %w", name, err)
	}
	w := bufio.NewWriter(tmp)
	var written int64
	count := func(n int, err error) error {
		written += int64(n)
		return err
	}
	hb, _ := json.Marshal(header{Magic: headerMagic, Schema: SchemaVersion})
	if err := count(w.Write(append(hb, '\n'))); err == nil {
		for _, key := range order {
			rb, merr := json.Marshal(Record{Key: key, Entry: merged[key]})
			if merr != nil {
				err = merr
				break
			}
			if err = count(w.Write(append(rb, '\n'))); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		// Durability, step 1: the data must be on stable storage before
		// the rename can publish it.
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), c.shardPath(name))
	}
	if err == nil {
		// Durability, step 2: the rename itself is atomic but not
		// durable until the directory is fsynced — without this a crash
		// right after Flush could lose the whole renamed shard file.
		err = syncDir(c.dir)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("evcache: flush %s: %w", name, err)
	}
	c.stats.BytesWrit += written
	obs.GetCounter("evcache.bytes").Add(written)
	for _, el := range s.entries {
		el.Value.(*node).dirty = false
	}
	s.dirty = 0
	c.evictLocked() // formerly pinned entries may now be evictable
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry
// is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

func (c *Cache) shardPath(name string) string {
	return filepath.Join(c.dir, sanitize(name)+".jsonl")
}

// sanitize maps a shard (benchmark) name onto a safe file stem.
func sanitize(name string) string {
	if name == "" {
		return "_"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}
