package memo

// L1 is a small direct-mapped cache a worker holds in front of the shared
// ShardedTable (its L2): a lookup is one multiply, one shift, and one key
// comparison against private memory — no atomics, no shared cache lines.
// The concurrent driver's workload makes this effective for the same reason
// memoization works at all (§5): candidates repeat, and a worker's recent
// problems repeat soonest.
//
// An L1 never owns entries. It is filled only with interned keys handed
// back by the L2's LookupStored (or keys already cloned for an L2 insert),
// so storing never copies, and every L1 entry is present in the L2 — which
// keeps AnalyzeAll's deterministic provenance post-pass valid: an L1 hit is
// just a cheaper way to observe an L2 fact. Not safe for concurrent use;
// give each worker its own.
type L1[V any] struct {
	keys  []Key
	vals  []V
	shift uint
	live  int
}

// DefaultL1Size is the slot count NewL1 uses for size <= 0.
const DefaultL1Size = 256

// NewL1 returns a direct-mapped cache with the given slot count, rounded up
// to a power of two (size <= 0 means DefaultL1Size).
func NewL1[V any](size int) *L1[V] {
	if size <= 0 {
		size = DefaultL1Size
	}
	p := 1
	for p < size {
		p <<= 1
	}
	l := &L1[V]{keys: make([]Key, p), vals: make([]V, p), shift: 64}
	for n := p; n > 1; n >>= 1 {
		l.shift--
	}
	return l
}

// slot maps a key to its single slot: the high bits of the mixed hash, the
// same scattering the sharded table uses for shard choice. For a one-slot
// cache the shift is 64, which in Go would be a no-op shift, so it is
// special-cased to 0.
func (l *L1[V]) slot(k Key) uint64 {
	if l.shift == 64 {
		return 0
	}
	return mix(k.hash()) >> l.shift
}

// Lookup returns the cached value for k. Allocation-free.
func (l *L1[V]) Lookup(k Key) (V, bool) {
	_, v, ok := l.LookupStored(k)
	return v, ok
}

// LookupStored is Lookup additionally returning the cache's stable key on a
// hit. Because an L1 is filled only with interned keys, the returned key is
// the same instance the L2 retains — callers that need a stable identity for
// the entry (the concurrent driver's provenance records) take it from here
// without touching the shared table. Allocation-free.
func (l *L1[V]) LookupStored(k Key) (Key, V, bool) {
	i := l.slot(k)
	if sk := l.keys[i]; sk != nil && sk.equal(k) {
		return sk, l.vals[i], true
	}
	var zero V
	return nil, zero, false
}

// Store caches v under k, evicting whatever occupied the slot. k must be a
// stable key (interned by an L2 LookupStored, or already cloned for an L2
// insert) — the cache retains it without copying.
func (l *L1[V]) Store(k Key, v V) {
	i := l.slot(k)
	if l.keys[i] == nil {
		l.live++
	}
	l.keys[i] = k
	l.vals[i] = v
}

// Reset empties every slot, releasing the interned keys and values it
// referenced. Must be reset together with its backing L2 (the L1 ⊆ L2
// containment only needs re-establishing from the empty side: an empty L1
// is trivially contained in any L2).
func (l *L1[V]) Reset() {
	clear(l.keys)
	clear(l.vals)
	l.live = 0
}

// Len returns the number of occupied slots.
func (l *L1[V]) Len() int { return l.live }

// Cap returns the slot count.
func (l *L1[V]) Cap() int { return len(l.keys) }
