package memo

import (
	"sync"
	"sync/atomic"
)

// InFlight is the singleflight layer of the concurrent memo hierarchy: it
// deduplicates solves of the same canonical problem that are in progress at
// the same time. The memo tables only prevent re-solving a problem after
// its verdict is published; when two workers miss on the same key within
// one solve's latency, both would run the full test cascade and race to
// insert equivalent entries. Claim elects exactly one leader per key; every
// other claimant blocks in Wait until the leader Finishes, then adopts the
// published verdict directly off the flight, without a table re-probe.
//
// Values handed off must be deterministic in the key (one verdict per
// canonical problem — the same contract the tables have), so adoption is
// indistinguishable from a table hit. Leaders that decide not to cache
// (clock-tripped or cancelled verdicts) Finish with ok=false; waiters then
// re-claim, and whoever wins the next claim solves for itself.
//
// A flight that Finishes ok stays registered until Forget, so a claimant
// arriving in between adopts instantly instead of re-solving. The driver
// inserts the verdict before Finish and Forgets right after it: from then
// on a lookup finds the table entry, and a worker that missed the table
// just before the insert and claims after the Forget leads, re-probes the
// table, and hits. ok=false flights are removed at Finish (there is nothing
// to adopt).
//
// Flights are found by the key's mixed hash, with colliding keys told apart
// by comparison, so neither Claim nor Forget renders the key; only a leader
// election copies it (Flight.Key).
type InFlight[V any] struct {
	sh []inflightShard[V]
	// claims counts leader elections, waits counts Wait calls, adoptions
	// counts waits that ended in a value handoff. waits − adoptions is the
	// re-claim traffic caused by non-cacheable verdicts.
	claims    atomic.Int64
	waits     atomic.Int64
	adoptions atomic.Int64
}

type inflightShard[V any] struct {
	mu sync.Mutex
	m  map[uint64]*Flight[V] // by mixed hash; collisions chain through next
	_  [48]byte
}

// Flight is one in-progress solve. The leader publishes through Finish;
// waiters block in Wait.
type Flight[V any] struct {
	g       *InFlight[V]
	h       uint64
	claimed Key        // the leader's own copy of the claimed key
	next    *Flight[V] // next flight with the same hash; guarded by the shard mutex
	done    chan struct{}
	// key/val/ok are written by Finish before done is closed and read by
	// waiters only after <-done, so they need no further synchronization.
	key Key
	val V
	ok  bool
}

// NewInFlight returns an InFlight layer with n shards, rounded up to a
// power of two (n <= 0 means DefaultShards).
func NewInFlight[V any](n int) *InFlight[V] {
	if n <= 0 {
		n = DefaultShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	g := &InFlight[V]{sh: make([]inflightShard[V], p)}
	for i := range g.sh {
		g.sh[i].m = make(map[uint64]*Flight[V])
	}
	return g
}

func (g *InFlight[V]) shardAt(h uint64) *inflightShard[V] {
	return &g.sh[h&uint64(len(g.sh)-1)]
}

// find returns the registered flight for key k with mixed hash h, or nil.
// The caller holds sh.mu.
func (sh *inflightShard[V]) find(h uint64, k Key) *Flight[V] {
	for f := sh.m[h]; f != nil; f = f.next {
		if f.claimed.equal(k) {
			return f
		}
	}
	return nil
}

// unlink deregisters f. The caller holds sh.mu.
func (sh *inflightShard[V]) unlink(f *Flight[V]) {
	head := sh.m[f.h]
	if head == f {
		if f.next == nil {
			delete(sh.m, f.h)
		} else {
			sh.m[f.h] = f.next
		}
		return
	}
	for p := head; p != nil; p = p.next {
		if p.next == f {
			p.next = f.next
			return
		}
	}
}

// Claim registers the caller as the solver of canonical key k, returning
// leader=true and a Flight it must eventually Finish. If another solve of k
// is already in flight, Claim returns that solve's Flight and leader=false;
// the caller should Wait on it. k may be scratch-backed: a leader's flight
// keeps its own copy.
func (g *InFlight[V]) Claim(k Key) (f *Flight[V], leader bool) {
	h := mix(k.hash())
	sh := g.shardAt(h)
	sh.mu.Lock()
	if cur := sh.find(h, k); cur != nil {
		sh.mu.Unlock()
		return cur, false
	}
	f = &Flight[V]{g: g, h: h, claimed: k.Clone(), next: sh.m[h], done: make(chan struct{})}
	sh.m[h] = f
	sh.mu.Unlock()
	g.claims.Add(1)
	return f, true
}

// Key returns the flight's own copy of the claimed key. It is stable, so a
// leader can hand it to a table insert (and then to Finish) instead of
// cloning its scratch-backed key a second time.
func (f *Flight[V]) Key() Key { return f.claimed }

// Finish publishes the leader's verdict on f and releases every waiter.
// stored must be the interned (stable) key of the published entry when
// ok=true; ok=false means the leader did not cache, telling waiters to
// re-claim and solve for themselves. A flight finished ok remains claimable
// (late claimants adopt without waiting) until Forget; a flight finished
// !ok is deregistered here so the next claimant becomes a leader.
func (g *InFlight[V]) Finish(f *Flight[V], stored Key, v V, ok bool) {
	f.key, f.val, f.ok = stored, v, ok
	if !ok {
		sh := g.shardAt(f.h)
		sh.mu.Lock()
		sh.unlink(f)
		sh.mu.Unlock()
	}
	close(f.done)
}

// Forget deregisters the flight for key k, if any. The driver calls this
// once k's table entry is visible to every worker: from then on a lookup
// hits the table and the flight is no longer needed.
func (g *InFlight[V]) Forget(k Key) {
	h := mix(k.hash())
	sh := g.shardAt(h)
	sh.mu.Lock()
	if f := sh.find(h, k); f != nil {
		sh.unlink(f)
	}
	sh.mu.Unlock()
}

// Wait blocks until the flight's leader Finishes and returns the published
// interned key and value. ok=false means the leader did not cache its
// verdict; the caller should re-claim.
func (f *Flight[V]) Wait() (Key, V, bool) {
	f.g.waits.Add(1)
	<-f.done
	if f.ok {
		f.g.adoptions.Add(1)
	}
	return f.key, f.val, f.ok
}

// Stats returns the cumulative leader-election, wait, and adoption counts.
func (g *InFlight[V]) Stats() (claims, waits, adoptions int) {
	return int(g.claims.Load()), int(g.waits.Load()), int(g.adoptions.Load())
}
