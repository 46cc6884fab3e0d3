package memo

import (
	"sync"
	"sync/atomic"
)

// ShardedTable is a concurrency-safe memo table built for a read-mostly
// workload: after warmup the overwhelming majority of operations are
// lookups of already-cached problems (the paper's §5 observation), so the
// read path must not serialize workers.
//
// The key space is split over N power-of-two shards. Each shard holds an
// atomic pointer to its bucket array — the paper's open hash table with
// linear probing — whose slots are atomic pointers to immutable entries
// (key, mixed hash, value). A lookup hashes its key once, takes the shard
// from the high bits of the mixed hash and the bucket from the low bits,
// and probes with atomic loads, comparing stored hashes before keys: no
// locks and no shared writes at all. The table keeps no traffic counters:
// a shared counter write per probe is exactly the cache-line ping-pong the
// design exists to avoid, so callers count lookups and hits in their own
// worker-local counters (the analyzer's stats.Counters).
//
// An insert takes the shard's mutex and publishes one new entry into the
// first empty slot of its probe chain, in place: O(1) amortized. When the
// load would pass 3/4 it first builds a doubled array from the existing
// entries, placed by their stored hashes (growth never rehashes a key),
// and publishes that. A reader still probing the old array may miss an
// entry inserted after the swap — indistinguishable from a lookup that ran
// just before the insert; a reader ordered after the insert (through any
// lock or channel) always finds it.
//
// Values are stored as given; callers that cache the same key from multiple
// goroutines must make the value deterministic in the key (true for the
// analyzer: a canonical problem has exactly one verdict), so racing
// lookup-miss/insert pairs can only publish equivalent entries. Inserted
// Keys are retained: pass stable keys (Key.Clone scratch-backed ones).
type ShardedTable[V any] struct {
	shift uint
	sh    []shard[V]
}

// entry is one published key/value pair with the key's mixed hash. It is
// never written after publication, so a reader that loads it needs no
// further synchronization.
type entry[V any] struct {
	key Key
	h   uint64
	val V
}

// buckets is one shard's open-addressed array, a power of two in size. Load
// factor stays ≤ 3/4, guaranteeing an empty slot that ends every probe.
type buckets[V any] []atomic.Pointer[entry[V]]

// shard pads to its own cache line so neighbouring shards' inserts do not
// false-share.
type shard[V any] struct {
	tab atomic.Pointer[buckets[V]]
	n   atomic.Int64 // entry count, written under mu
	mu  sync.Mutex   // serializes Insert and Reset; never taken by Lookup
	_   [40]byte
}

// DefaultShards is the shard count NewShardedTable uses for n <= 0.
const DefaultShards = 16

// shardBuckets is the initial bucket count of each shard.
const shardBuckets = 16

// NewShardedTable returns an empty table with n shards, rounded up to a
// power of two (n <= 0 means DefaultShards).
func NewShardedTable[V any](n int) *ShardedTable[V] {
	if n <= 0 {
		n = DefaultShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	s := &ShardedTable[V]{sh: make([]shard[V], p)}
	for i := range s.sh {
		s.sh[i].reset()
	}
	for p > 1 {
		s.shift++
		p >>= 1
	}
	return s
}

// shardAt picks a shard from the high bits of the mixed hash h; the shard
// indexes buckets with its low bits. The avalanche mix decorrelates the
// two, so keys landing in one shard still spread over its buckets.
func (s *ShardedTable[V]) shardAt(h uint64) *shard[V] {
	return &s.sh[h>>(64-s.shift)&uint64(len(s.sh)-1)]
}

// Lookup returns the cached value for k. Safe for concurrent use and
// lock-free: one hash, one atomic array load plus a probe — it allocates
// nothing, writes nothing shared, and never blocks on writers.
func (s *ShardedTable[V]) Lookup(k Key) (V, bool) {
	_, v, ok := s.LookupStored(k)
	return v, ok
}

// LookupStored is Lookup additionally returning the table's interned copy
// of the key on a hit, a stable identity for the entry (the concurrent
// driver's provenance records keep it). Same lock-free guarantees as
// Lookup.
func (s *ShardedTable[V]) LookupStored(k Key) (Key, V, bool) {
	h := mix(k.hash())
	if _, e := (*s.shardAt(h).tab.Load()).probe(h, k); e != nil {
		return e.key, e.val, true
	}
	var zero V
	return nil, zero, false
}

// Insert stores v under k in place under the shard mutex. Safe for
// concurrent use; the table retains k. Overwriting an existing entry
// publishes a new entry that keeps the already-interned key, so the
// instance LookupStored hands out never changes.
func (s *ShardedTable[V]) Insert(k Key, v V) {
	h := mix(k.hash())
	sh := s.shardAt(h)
	sh.mu.Lock()
	tab := *sh.tab.Load()
	i, e := tab.probe(h, k)
	if e != nil {
		tab[i].Store(&entry[V]{key: e.key, h: h, val: v})
		sh.mu.Unlock()
		return
	}
	n := sh.n.Load() + 1
	if n*4 > int64(len(tab))*3 {
		next := tab.grow()
		sh.tab.Store(next)
		tab = *next
		i = tab.free(h)
	}
	tab[i].Store(&entry[V]{key: k, h: h, val: v})
	sh.n.Store(n)
	sh.mu.Unlock()
}

// probe walks the chain of k, whose mixed hash is h: it returns k's slot
// and entry, or the first empty slot and nil. The stored hash is compared
// before the key.
func (tab buckets[V]) probe(h uint64, k Key) (uint64, *entry[V]) {
	mask := uint64(len(tab) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if e := tab[i].Load(); e == nil || e.h == h && e.key.equal(k) {
			return i, e
		}
	}
}

// free returns the first empty slot of h's probe chain.
func (tab buckets[V]) free(h uint64) uint64 {
	mask := uint64(len(tab) - 1)
	i := h & mask
	for tab[i].Load() != nil {
		i = (i + 1) & mask
	}
	return i
}

// grow returns a doubled, unpublished copy of tab with every entry placed
// by its stored hash.
func (tab buckets[V]) grow() *buckets[V] {
	next := make(buckets[V], 2*len(tab))
	for j := range tab {
		if e := tab[j].Load(); e != nil {
			next[next.free(e.h)].Store(e)
		}
	}
	return &next
}

// reset publishes an empty initial bucket array.
func (sh *shard[V]) reset() {
	tab := make(buckets[V], shardBuckets)
	sh.tab.Store(&tab)
	sh.n.Store(0)
}

// Len returns the number of unique entries, summed across shards. During
// concurrent inserts the sum is a point-in-time count per shard.
func (s *ShardedTable[V]) Len() int {
	n := 0
	for i := range s.sh {
		n += int(s.sh[i].n.Load())
	}
	return n
}

// NumShards returns the shard count.
func (s *ShardedTable[V]) NumShards() int { return len(s.sh) }

// ShardLens returns the entry count of every shard — the spread the
// -memostats report prints to show the hash scattering hot keys.
func (s *ShardedTable[V]) ShardLens() []int {
	out := make([]int, len(s.sh))
	for i := range s.sh {
		out[i] = int(s.sh[i].n.Load())
	}
	return out
}

// Buckets returns the total bucket count over all shards (the occupancy
// denominator).
func (s *ShardedTable[V]) Buckets() int {
	n := 0
	for i := range s.sh {
		n += len(*s.sh[i].tab.Load())
	}
	return n
}

// Reset drops every entry and shrinks each shard back to its initial
// bucket array, releasing the retained keys and values to the collector —
// the eviction primitive a long-lived analyzer uses to bound its memory.
// Safe for concurrent use with Lookup/Insert.
func (s *ShardedTable[V]) Reset() {
	for i := range s.sh {
		sh := &s.sh[i]
		sh.mu.Lock()
		sh.reset()
		sh.mu.Unlock()
	}
}

// Range calls f for every entry until f returns false, shard by shard. Each
// shard is walked through the bucket array current when the walk reaches
// it; entries are immutable and never move within an array, so Range never
// blocks writers, visits each key at most once, and f may call back into
// the table (inserts made during the walk may or may not be visited).
func (s *ShardedTable[V]) Range(f func(Key, V) bool) {
	for i := range s.sh {
		tab := *s.sh[i].tab.Load()
		for j := range tab {
			if e := tab[j].Load(); e != nil && !f(e.key, e.val) {
				return
			}
		}
	}
}
