package memo

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestInFlightLeaderAndAdopt orchestrates the dedup guarantee directly: one
// leader claims a key, several racers claim while the solve is in progress,
// the leader publishes — every racer must adopt the published verdict, and
// exactly one claim may have been a leader election.
func TestInFlightLeaderAndAdopt(t *testing.T) {
	g := NewInFlight[int](4)
	k := Key{7, 1, 2, 3}

	f, leader := g.Claim(k)
	if !leader {
		t.Fatal("first claim of an idle key must elect a leader")
	}

	const racers = 8
	var wg sync.WaitGroup
	results := make([]int, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rf, rl := g.Claim(k)
			if rl {
				t.Error("racer elected leader while a flight was registered")
				return
			}
			ik, v, ok := rf.Wait()
			if !ok {
				t.Error("racer saw ok=false from a cacheable finish")
				return
			}
			if &ik[0] != &k[0] {
				t.Error("racer adopted a key other than the published instance")
			}
			results[i] = v
		}(i)
	}

	// Wait until every racer is parked in Wait before publishing, so the
	// adoption path (not the table) is what serves them.
	for {
		if _, waits, _ := g.Stats(); waits >= racers {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	g.Finish(f, k, 42, true)
	wg.Wait()

	for i, v := range results {
		if v != 42 {
			t.Fatalf("racer %d adopted %d, want 42", i, v)
		}
	}
	claims, waits, adoptions := g.Stats()
	if claims != 1 {
		t.Fatalf("claims = %d, want exactly 1 leader election", claims)
	}
	if waits != racers || adoptions != racers {
		t.Fatalf("waits/adoptions = %d/%d, want %d/%d", waits, adoptions, racers, racers)
	}
}

// TestInFlightNonCacheableReclaim: a leader that finishes ok=false tells its
// waiters to re-claim; the flight is deregistered, so the next claim elects
// a new leader.
func TestInFlightNonCacheableReclaim(t *testing.T) {
	g := NewInFlight[int](1)
	k := Key{9, 4}

	f, leader := g.Claim(k)
	if !leader {
		t.Fatal("first claim must lead")
	}
	done := make(chan bool)
	go func() {
		rf, rl := g.Claim(k)
		if rl {
			t.Error("claim during flight must not lead")
			done <- false
			return
		}
		if _, _, ok := rf.Wait(); ok {
			t.Error("waiter saw ok=true from a non-cacheable finish")
			done <- false
			return
		}
		// Re-claim after the failed flight: now we must lead.
		rf2, rl2 := g.Claim(k)
		if !rl2 {
			t.Error("re-claim after ok=false finish must elect a new leader")
			done <- false
			return
		}
		g.Finish(rf2, k, 7, true)
		done <- true
	}()

	for {
		if _, waits, _ := g.Stats(); waits >= 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	g.Finish(f, nil, 0, false)
	if !<-done {
		t.Fatal("reclaim scenario failed")
	}
	if claims, _, _ := g.Stats(); claims != 2 {
		t.Fatalf("claims = %d, want 2 (original + re-claim)", claims)
	}
}

// TestInFlightFinishedFlightServesUntilForget pins the deferred-insert
// contract: a flight finished ok stays claimable — late claimants adopt its
// verdict without waiting — until Forget retires it, after which a claim
// elects a fresh leader.
func TestInFlightFinishedFlightServesUntilForget(t *testing.T) {
	g := NewInFlight[string](2)
	k := Key{1, 2}

	f, leader := g.Claim(k)
	if !leader {
		t.Fatal("first claim must lead")
	}
	g.Finish(f, k, "verdict", true)

	// The flight is finished but not yet forgotten: a claim in this window
	// must adopt off the closed flight instead of re-solving.
	lf, ll := g.Claim(k)
	if ll {
		t.Fatal("claim of a finished-but-unforgotten key must not lead")
	}
	if _, v, ok := lf.Wait(); !ok || v != "verdict" {
		t.Fatalf("late claimant got (%q, %v), want (\"verdict\", true)", v, ok)
	}

	g.Forget(k)
	f2, l2 := g.Claim(k)
	if !l2 {
		t.Fatal("claim after Forget must elect a leader (the table now serves the key)")
	}
	g.Finish(f2, k, "again", true)
	g.Forget(k)
}

// TestInFlightHammer stress-races many goroutines over a small key space in
// the driver's usage pattern (lookup table → claim → leader solves and
// inserts, waiters adopt), with flights retired only at the end — the
// staged-insert window at its widest. Exactly one solve per key must happen,
// and every goroutine must observe that solve's value. Run under -race by
// make race.
func TestInFlightHammer(t *testing.T) {
	const (
		goroutines = 8
		keyCount   = 32
		rounds     = 50
	)
	g := NewInFlight[int64](8)
	tbl := NewShardedTable[int64](8)
	keys := make([]Key, keyCount)
	for i := range keys {
		keys[i] = Key{int64(i), int64(i) * 3, 11}
	}
	var solves [keyCount]atomic.Int64

	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for ki := range keys {
					k := keys[ki]
					want := int64(ki) * 1000
					if v, ok := tbl.Lookup(k); ok {
						if v != want {
							t.Errorf("table served %d for key %d, want %d", v, ki, want)
						}
						continue
					}
					for {
						f, leader := g.Claim(k)
						if leader {
							solves[ki].Add(1)
							tbl.Insert(k.Clone(), want)
							g.Finish(f, k, want, true)
							break
						}
						if _, v, ok := f.Wait(); ok {
							if v != want {
								t.Errorf("adopted %d for key %d, want %d", v, ki, want)
							}
							break
						}
					}
				}
			}
		}(gi)
	}
	wg.Wait()

	for ki := range solves {
		if n := solves[ki].Load(); n != 1 {
			t.Fatalf("key %d solved %d times, want exactly 1", ki, n)
		}
	}
	claims, _, _ := g.Stats()
	if claims != keyCount {
		t.Fatalf("claims = %d, want %d (one leader election per key)", claims, keyCount)
	}
	for _, k := range keys {
		g.Forget(k)
		if _, leader := g.Claim(k); !leader {
			t.Fatal("claim after Forget must lead")
		}
	}
}

// TestInFlightHashCollision: flights are found by the key's hash, so two
// distinct keys with the same paper hash must still get separate flights —
// each claim leads, a re-claim joins the right one, and Forget or a failed
// Finish retires only its own key, wherever it sits in the chain.
func TestInFlightHashCollision(t *testing.T) {
	a, b := Key{2, 0}, Key{0, 1}
	if a.hash() != b.hash() {
		t.Fatalf("test keys must collide: hash %d vs %d", a.hash(), b.hash())
	}
	g := NewInFlight[int](1)
	fa, la := g.Claim(a)
	fb, lb := g.Claim(b)
	if !la || !lb || fa == fb {
		t.Fatal("colliding keys must each elect their own leader")
	}
	if !fa.Key().equal(a) || &fa.Key()[0] == &a[0] {
		t.Fatal("a leader's flight must own a copy of the claimed key")
	}
	if f, l := g.Claim(a); l || f != fa {
		t.Fatal("re-claim of a must join a's flight")
	}
	if f, l := g.Claim(b); l || f != fb {
		t.Fatal("re-claim of b must join b's flight")
	}

	// a sits behind b in the chain: a failed finish must unlink just a.
	g.Finish(fa, nil, 0, false)
	if f, l := g.Claim(b); l || f != fb {
		t.Fatal("unlinking a must leave b's flight registered")
	}
	fa, la = g.Claim(a)
	if !la {
		t.Fatal("claim of a after its failed finish must lead")
	}
	g.Finish(fa, fa.Key(), 1, true)
	g.Finish(fb, fb.Key(), 2, true)

	g.Forget(b)
	f, l := g.Claim(a)
	if l || f != fa {
		t.Fatal("forgetting b must leave a's finished flight claimable")
	}
	if _, v, ok := f.Wait(); !ok || v != 1 {
		t.Fatalf("a's flight served (%d, %v), want (1, true)", v, ok)
	}
	if _, l := g.Claim(b); !l {
		t.Fatal("claim of b after Forget must lead")
	}
}
