package corpus

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"exactdep/internal/core"
	"exactdep/internal/memo"
	"exactdep/internal/refs"
)

// The pipelined corpus run (workers > 1). Three stages overlap:
//
//	front end (pool of N workers)      solver (the Run goroutine)
//	┌───────────────────────────┐      ┌───────────────────────────────┐
//	│ claim index i (atomic)    │      │ walk slots in corpus order    │
//	│ load unit i (Lister only) │ ───▶ │ hit  → serve / queue          │
//	│ fingerprint (cached)      │ slot │ miss → append to chunk        │
//	│ probe store (read-only)   │ ready│ chunk full → AnalyzeAll batch │
//	└───────────────────────────┘      │ emit finished prefix in order │
//	                                   └───────────────────────────────┘
//
// Determinism invariants, in force at every worker count:
//
//   - Unit order is fixed before any loading starts (sorted walk, path
//     list, or the in-memory slice), and workers fill a pre-sized slot
//     array, so order never depends on scheduling.
//   - The solver consumes slots strictly in corpus order, so miss batches
//     contain the same candidates in the same order as the serial run's
//     single batch, just split at chunk boundaries; analyzer results are
//     deterministic and memo-state independent, so the split cannot change
//     a verdict, a vector, or a distance.
//   - No unit hits an entry written earlier in the same run: the front end
//     only reads the store, and the solver defers its Puts until every
//     slot has been probed. The store is safe for concurrent use, so this
//     is not about data races (other drivers sharing the store may Put at
//     any time); it reproduces the serial semantics, where every probe
//     precedes every Put, and so keeps UnitsSolved/PairsSolved identical.
//   - Emit happens on the solver goroutine only, in corpus order, as each
//     prefix completes: the caller's emit callback needs no locking.
//   - On a load error the solver stops at the lowest failing index —
//     workers never abandon a claimed slot, so every slot before it is
//     complete — and returns the same error the serial loop would have
//     stopped on, after joining the pool (no goroutine outlives Run).

// solveChunkPairs is the miss-batch size that triggers an analyzer batch
// while the front end is still running. Large enough that per-batch
// overhead (worker spin-up, provenance post-pass) stays marginal, small
// enough that solving overlaps loading on corpora of a few thousand pairs.
const solveChunkPairs = 512

// feSlot is one unit's front-end product, written by exactly one pool
// worker and read by the solver only after the slot is marked ready.
type feSlot struct {
	u      *Unit // the loaded unit: &preloaded[i], or &owned for Lister items
	owned  Unit
	fp     memo.Fingerprint
	stored *StoredUnit // store hit, if any
	err    error       // load failure
}

// pipelineTimes aggregates front-end stage time across workers.
type pipelineTimes struct {
	load, fingerprint, probe atomic.Int64 // nanoseconds
}

// runPipelined is the workers > 1 Run path. See the package comment above
// for the stage diagram and the determinism invariants.
func (d *Driver) runPipelined(ctx context.Context, src Source, emit func(UnitResult) error, workers int) error {
	// Enumerate the corpus. Lister sources stay lazy — the pool pays the
	// read+parse per unit; plain sources are materialized here (Mem is a
	// no-op, and Dir/Files without List would not reach this path anyway).
	var (
		items     []Item
		preloaded []Unit
		times     pipelineTimes
	)
	if l, ok := src.(Lister); ok {
		var err error
		if items, err = l.List(); err != nil {
			return err
		}
		d.Stats.Units = len(items)
	} else {
		t0 := time.Now()
		var err error
		if preloaded, err = src.Units(); err != nil {
			return err
		}
		if d.TimeStages {
			times.load.Add(time.Since(t0).Nanoseconds())
		}
		d.Stats.Units = len(preloaded)
	}
	n := d.Stats.Units

	slots := make([]feSlot, n)
	ready := make([]bool, n)
	var (
		mu   sync.Mutex
		cond = sync.NewCond(&mu)
		next atomic.Int64
		stop atomic.Bool // solver failed; workers stop claiming
		wg   sync.WaitGroup
	)
	markReady := func(i int) {
		mu.Lock()
		ready[i] = true
		mu.Unlock()
		cond.Broadcast()
	}

	fe := workers
	if fe > n {
		fe = n
	}
	for w := 0; w < fe; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fpr Fingerprinter // per-worker scratch (hasher chain)
			timed := d.TimeStages
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				s := &slots[i]
				if preloaded != nil {
					s.u = &preloaded[i]
				} else {
					var t0 time.Time
					if timed {
						t0 = time.Now()
					}
					u, err := items[i].Load()
					if timed {
						times.load.Add(time.Since(t0).Nanoseconds())
					}
					if err != nil {
						s.err = err
						markReady(i)
						continue
					}
					s.owned = u
					s.u = &s.owned
				}
				var t1 time.Time
				if timed {
					t1 = time.Now()
				}
				// Cached on the Unit, so a long-lived in-memory corpus pays
				// the digest walk once per unit across runs; workers touch
				// disjoint slice elements, so the in-place caching is
				// race-free.
				s.fp = s.u.Fingerprint(&fpr)
				if timed {
					t2 := time.Now()
					times.fingerprint.Add(t2.Sub(t1).Nanoseconds())
					t1 = t2
				}
				if d.store != nil {
					s.stored = d.probe(s.fp, len(s.u.Cands))
					if timed {
						times.probe.Add(time.Since(t1).Nanoseconds())
					}
				}
				markReady(i)
			}
		}()
	}

	err := d.solve(ctx, slots, ready, &mu, cond, emit, workers)
	stop.Store(true)
	wg.Wait()
	if d.TimeStages {
		d.Stats.Stage.Load = time.Duration(times.load.Load())
		d.Stats.Stage.Fingerprint = time.Duration(times.fingerprint.Load())
		d.Stats.Stage.Probe = time.Duration(times.probe.Load())
	}
	return err
}

// deferredPut is one solved unit's store insert, applied only after every
// slot of the run has been probed.
type deferredPut struct {
	fp memo.Fingerprint
	su StoredUnit
}

// pendingUnit is a unit the solver has walked but not yet emitted: either a
// store hit queued behind unsolved misses, or a miss waiting for its chunk.
type pendingUnit struct {
	slot *feSlot
	off  int // offset into the current miss chunk; -1 for store hits
}

// solve is the solver stage: walk slots in corpus order, batch misses into
// chunks, overlap analyzer batches with the still-running front end, and
// emit results in order as each prefix completes. Returns the first error
// in corpus order (load failure, analyzer failure, or emit rejection).
func (d *Driver) solve(ctx context.Context, slots []feSlot, ready []bool,
	mu *sync.Mutex, cond *sync.Cond, emit func(UnitResult) error, workers int) error {
	var (
		chunk []refs.Candidate
		queue []pendingUnit
		puts  []deferredPut
	)
	timed := d.TimeStages

	// emitUnit builds and emits one unit's result; solved is the chunk's
	// result slice for misses (nil serves from the store).
	emitUnit := func(p pendingUnit, solved []core.Result) error {
		s := p.slot
		ur := UnitResult{Name: s.u.Name, Fingerprint: s.fp, Warnings: s.u.Warnings}
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		if p.off < 0 {
			ur.Reused = true
			ur.Results = Serve(s.u.Cands, s.stored)
			ur.Cost = s.stored.Cost
		} else {
			ur.Results = solved[p.off : p.off+len(s.u.Cands)]
			ur.Cost = Summarize(ur.Results)
			if d.storable(ur.Results) {
				puts = append(puts, deferredPut{s.fp, ToStored(s.u.Name, ur.Results)})
			}
		}
		var err error
		if emit != nil {
			err = emit(ur)
		}
		if timed {
			d.Stats.Stage.Emit += time.Since(t0)
		}
		return err
	}

	// flush solves the accumulated miss chunk (if any) and drains the emit
	// queue in corpus order.
	flush := func() error {
		var solved []core.Result
		if len(chunk) > 0 {
			t0 := time.Now()
			var err error
			solved, err = d.analyzer.AnalyzeAllContext(ctx, chunk, workers)
			if timed {
				d.Stats.Stage.Solve += time.Since(t0)
			}
			if err != nil {
				return err
			}
		}
		for _, p := range queue {
			if err := emitUnit(p, solved); err != nil {
				return err
			}
		}
		queue = queue[:0]
		chunk = chunk[:0]
		return nil
	}

	var err error
	for i := range slots {
		mu.Lock()
		for !ready[i] {
			cond.Wait()
		}
		mu.Unlock()
		s := &slots[i]
		if s.err != nil {
			// Lowest failing index: every earlier slot was walked already,
			// so this is the same error the serial loop stops on.
			err = s.err
			break
		}
		if s.stored != nil {
			d.Stats.UnitsReused++
			d.Stats.PairsServed += len(s.u.Cands)
			if emit == nil {
				// No consumer: a stats-only run pays nothing to rebuild
				// served results.
				continue
			}
			p := pendingUnit{slot: s, off: -1}
			if len(chunk) == 0 {
				// Nothing unsolved ahead of it — the prefix is complete,
				// stream it out immediately.
				if err = emitUnit(p, nil); err != nil {
					break
				}
			} else {
				queue = append(queue, p)
			}
			continue
		}
		d.Stats.UnitsSolved++
		d.Stats.PairsSolved += len(s.u.Cands)
		queue = append(queue, pendingUnit{slot: s, off: len(chunk)})
		chunk = append(chunk, s.u.Cands...)
		if len(chunk) >= solveChunkPairs {
			if err = flush(); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = flush()
	}
	if err == nil {
		// Every slot was walked, so every slot is ready, so every worker
		// has passed its last store probe (workers probe between claiming
		// a slot and marking it ready): no unit of this run can hit one of
		// these entries. On the error path puts are dropped entirely,
		// matching the serial run's abort-before-store behavior.
		for i := range puts {
			d.store.Put(puts[i].fp, puts[i].su)
		}
	}
	return err
}
