// Package memo implements the memoization scheme of Maydan, Hennessy & Lam
// §5: dependence problems are canonicalized into integer vectors and cached
// in an open hash table keyed by the paper's hash function
//
//	h(x) = size(x) + Σ 2^i·x_i,
//
// so repeated subscript/bound patterns — the overwhelming majority in real
// programs — are tested once.
//
// The analyzer keeps three logical tables over this package's keys:
//
//   - the eq table, keyed on the subscript equations alone, caches GCD-test
//     verdicts (the GCD test ignores bounds, so one entry serves every
//     bounds variation of the same equations);
//   - the full table, keyed on the complete problem (equations plus
//     bounds), caches candidate-level verdicts with their distance and
//     direction summaries;
//   - the dir table, keyed on the full problem plus a canonical direction
//     segment (Encoder.EncodeDirections), caches the up-to-3^d
//     direction-constrained subproblems of Burke–Cytron refinement.
//
// The "improved" encoding first drops loop variables that cannot affect the
// verdict (unused indices), merging cases such as the paper's pair of
// doubly nested loops that both collapse to a single loop.
//
// Because memoization eliminates most test invocations, the memo lookup
// itself is the analyzer's steady-state hot path. The package therefore
// provides a zero-allocation fast path end to end:
//
//   - Encoder canonicalizes problems into scratch-backed keys (no maps, no
//     sorting, no fresh Key per candidate) — one Encoder per worker.
//   - Table is the paper's open hash table, unsynchronized, for serial
//     analysis.
//   - ShardedTable shares one cache across the concurrent driver's workers
//     with lock-free, stat-free reads: each shard's open-addressed bucket
//     array holds atomic pointers to immutable entries that carry their
//     mixed hash, so a lookup hashes its key once and probes with atomic
//     loads; an insert publishes one entry in place under a short per-shard
//     mutex (O(1) amortized, growth reuses the stored hashes), and traffic
//     counters merge delta-only at worker exit via AddStats (see sharded.go).
//   - L1 is a small direct-mapped per-worker cache in front of the shared
//     table, so a worker's hot working set is answered without touching
//     shared memory at all (see l1.go). Every L1 entry's key is an interned
//     L2 key, preserving the L1 ⊆ L2 containment the concurrent driver's
//     provenance replay relies on.
//   - InFlight deduplicates concurrent solves of the same canonical key, so
//     two workers never run the test cascade for one problem at the same
//     time (see inflight.go).
//
// Table and ShardedTable share the Map interface, so a serial table can be
// promoted to a sharded one by re-inserting its entries (the concurrent
// driver core.Analyzer.AnalyzeAll does exactly that).
package memo

import "encoding/binary"

// Key is a canonical integer encoding of a dependence problem. Keys
// produced by an Encoder alias its scratch buffers and are valid only until
// the encoder's next call; Clone them before storing (Table and ShardedTable
// retain the Key they are given).
type Key []int64

// Bytes renders the key as a compact string usable as a Go map key: eight
// little-endian bytes per element, so keys of different lengths can never
// collide. The concurrent driver uses this to replay cache provenance
// deterministically.
func (k Key) Bytes() string {
	b := make([]byte, 8*len(k))
	for i, v := range k {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return string(b)
}

// Clone returns a copy of k with its own backing array, safe to retain
// after the encoder that produced k reuses its buffers.
func (k Key) Clone() Key {
	if k == nil {
		return nil
	}
	return append(Key(nil), k...)
}

// hash implements the paper's function: size(x) + Σ 2^i·x_i. The shift
// *amount* wraps at 63 (i mod 63, cycling through 0..62), not at 64: a
// shift of 63 or more would park short-key contributions in the sign bit or
// (at ≥64) discard them entirely, so element i of a long key instead shares
// a shift with element i±63 and the top bit is reached only through carry
// propagation. Residual collisions are resolved by key comparison in the
// tables; TestHashShiftWrap pins the wrap and TestHashDistributionOnSuiteKeys
// watches the collision rate over the workload's real keys.
func (k Key) hash() uint64 {
	h := uint64(len(k))
	var sh uint // i mod 63, kept as a running count instead of a division
	for _, v := range k {
		h += uint64(v) << sh
		if sh++; sh == 63 {
			sh = 0
		}
	}
	return h
}

// Hash exposes the paper's hash for introspection (occupancy reports,
// distribution tests). The tables index buckets and shards through mix
// rather than using it raw.
func (k Key) Hash() uint64 { return k.hash() }

// mix finalizes the paper's hash for indexing (a splitmix64-style avalanche
// step). The additive hash keeps distinct problems apart — its collision
// rate over the suite's real keys is fine — but it concentrates structure
// in the low bits (every key starts with a small variable count and column
// width), and TestHashDistributionOnSuiteKeys showed raw low-bit indexing
// packing a quarter of the suite into one bucket chain. Diffusing the bits
// first keeps probe chains short and lets the sharded table take shard
// bits and bucket bits from the same value without correlation.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

func (k Key) equal(o Key) bool {
	if len(k) != len(o) {
		return false
	}
	for i, v := range k {
		if o[i] != v {
			return false
		}
	}
	return true
}

// Table is an open-addressing hash table from Key to V using the paper's
// hash function with linear probing. It retains the Keys it is given.
type Table[V any] struct {
	keys    []Key
	vals    []V
	n       int
	lookups int
	hits    int
}

const initialBuckets = 64

// NewTable returns an empty table.
func NewTable[V any]() *Table[V] {
	return &Table[V]{keys: make([]Key, initialBuckets), vals: make([]V, initialBuckets)}
}

// Lookup returns the cached value for k.
func (t *Table[V]) Lookup(k Key) (V, bool) {
	_, v, ok := t.LookupStored(k)
	return v, ok
}

// LookupStored is Lookup additionally returning the table's interned copy
// of the key on a hit. Callers that need to retain the key (the L1 cache)
// keep the interned one instead of cloning a scratch-backed probe key.
func (t *Table[V]) LookupStored(k Key) (Key, V, bool) {
	t.lookups++
	mask := uint64(len(t.keys) - 1)
	for i := mix(k.hash()) & mask; ; i = (i + 1) & mask {
		if t.keys[i] == nil {
			var zero V
			return nil, zero, false
		}
		if t.keys[i].equal(k) {
			t.hits++
			return t.keys[i], t.vals[i], true
		}
	}
}

// Insert stores v under k (overwriting an existing entry). The table
// retains k: pass a stable key, never a scratch-backed one (Key.Clone).
func (t *Table[V]) Insert(k Key, v V) {
	if (t.n+1)*4 > len(t.keys)*3 { // keep load factor ≤ 3/4
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	for i := mix(k.hash()) & mask; ; i = (i + 1) & mask {
		if t.keys[i] == nil {
			t.keys[i] = k
			t.vals[i] = v
			t.n++
			return
		}
		if t.keys[i].equal(k) {
			t.vals[i] = v
			return
		}
	}
}

func (t *Table[V]) grow() {
	oldK, oldV := t.keys, t.vals
	t.keys = make([]Key, len(oldK)*2)
	t.vals = make([]V, len(oldV)*2)
	t.n = 0
	for i, k := range oldK {
		if k != nil {
			t.reinsert(k, oldV[i])
		}
	}
}

func (t *Table[V]) reinsert(k Key, v V) {
	mask := uint64(len(t.keys) - 1)
	for i := mix(k.hash()) & mask; ; i = (i + 1) & mask {
		if t.keys[i] == nil {
			t.keys[i] = k
			t.vals[i] = v
			t.n++
			return
		}
	}
}

// Reset drops every entry and shrinks the table back to its initial bucket
// array, releasing the retained keys and values to the collector — the
// eviction primitive a long-lived analyzer uses to bound its memory.
// Traffic counters (Stats) are cumulative and survive the reset.
func (t *Table[V]) Reset() {
	t.keys = make([]Key, initialBuckets)
	t.vals = make([]V, initialBuckets)
	t.n = 0
}

// Len returns the number of unique entries.
func (t *Table[V]) Len() int { return t.n }

// Buckets returns the current bucket-array size (occupancy denominator).
func (t *Table[V]) Buckets() int { return len(t.keys) }

// Stats returns lookup and hit counts.
func (t *Table[V]) Stats() (lookups, hits int) { return t.lookups, t.hits }

// Range calls f for every entry until f returns false. Iteration order is
// the table's bucket order (deterministic for a given insert history).
func (t *Table[V]) Range(f func(Key, V) bool) {
	for i, k := range t.keys {
		if k == nil {
			continue
		}
		if !f(k, t.vals[i]) {
			return
		}
	}
}
