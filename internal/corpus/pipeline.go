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

// The corpus run. At more than one worker three stages overlap:
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
// At one worker there is no pool: the solver runs the front-end step for
// slot i itself just before it walks the slot, and the analyzer batches run
// on the same goroutine, so a one-worker Run starts no goroutine.
//
// Determinism invariants, in force at every worker count:
//
//   - Unit order is fixed before any loading starts (sorted walk, path
//     list, or the in-memory slice), and workers fill a pre-sized slot
//     array, so order never depends on scheduling.
//   - The solver consumes slots strictly in corpus order, so miss batches
//     contain the same candidates in the same order at every worker count,
//     split at the same chunk boundaries; analyzer results are
//     deterministic and memo-state independent, so the batching cannot
//     change a verdict, a vector, or a distance.
//   - No unit hits an entry written earlier in the same run: the front end
//     only reads the store, and the solver defers its Puts until every
//     slot has been probed. The store is safe for concurrent use, so this
//     is not about data races (other drivers sharing the store may Put at
//     any time); it is what keeps UnitsSolved/PairsSolved independent of
//     how far the front end has run ahead of the solver.
//   - Emit happens on the solver goroutine only, in corpus order, as each
//     prefix completes: the caller's emit callback needs no locking.
//   - On a load error the solver stops at the lowest failing index —
//     workers never abandon a claimed slot, so every slot before it is
//     complete — and returns that index's error, the one Source.Units
//     reports, after joining the pool (no goroutine outlives Run).

// solveChunkPairs is the miss-batch size that triggers an analyzer batch
// while the front end is still running. Large enough that per-batch
// overhead (worker spin-up, provenance post-pass) stays marginal, small
// enough that solving overlaps loading on corpora of a few thousand pairs.
const solveChunkPairs = 512

// feSlot is one unit's front-end product, written by exactly one front-end
// step and read by the solver only after that step has finished.
type feSlot struct {
	fp     memo.Fingerprint
	stored *StoredUnit // store hit, if any
}

// frontEnd is one run's corpus and the per-unit products of its front end.
// items is set only for a Lister source at more than one worker: the step
// then loads units[i] from items[i] and records its load error in errs[i].
type frontEnd struct {
	units []Unit
	items []Item
	errs  []error
	slots []feSlot

	load, fingerprint, probe atomic.Int64 // nanoseconds, summed over workers
}

// step is the front end for slot i: load the unit if it is lazy,
// fingerprint it, probe the store. fpr is the caller's hasher scratch.
func (d *Driver) step(fe *frontEnd, i int, fpr *Fingerprinter) {
	timed := d.TimeStages
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	if fe.items != nil {
		fe.units[i], fe.errs[i] = fe.items[i].Load()
		if timed {
			t1 := time.Now()
			fe.load.Add(t1.Sub(t0).Nanoseconds())
			t0 = t1
		}
		if fe.errs[i] != nil {
			return
		}
	}
	u, s := &fe.units[i], &fe.slots[i]
	// The fingerprint is part of the unit's result surface even without a
	// store (UnitResult.Fingerprint). It is cached on the Unit, so a
	// long-lived in-memory corpus pays the digest walk once per unit across
	// runs; steps touch disjoint slice elements, so the in-place caching is
	// race-free.
	s.fp = u.Fingerprint(fpr)
	if timed {
		t1 := time.Now()
		fe.fingerprint.Add(t1.Sub(t0).Nanoseconds())
		t0 = t1
	}
	if d.store != nil {
		s.stored = d.probe(s.fp, len(u.Cands))
		if timed {
			fe.probe.Add(time.Since(t0).Nanoseconds())
		}
	}
}

// run is Run's walk: enumerate the corpus, run the front end over every
// slot (inline at one worker, on a pool otherwise) and solve in corpus
// order. See the comment above for the stage diagram and the determinism
// invariants.
func (d *Driver) run(ctx context.Context, src Source, emit func(UnitResult) error, workers int) error {
	// Lister sources stay lazy on a pool, which pays the read+parse per
	// unit. Everything else is materialized here: Mem is a no-op, and at one
	// worker Dir and Files read and parse through their own pool in Units.
	var fe frontEnd
	if l, ok := src.(Lister); ok && workers > 1 {
		items, err := l.List()
		if err != nil {
			return err
		}
		fe.items = items
		fe.units = make([]Unit, len(items))
		fe.errs = make([]error, len(items))
	} else {
		t0 := time.Now()
		units, err := src.Units()
		if err != nil {
			return err
		}
		if d.TimeStages {
			fe.load.Add(time.Since(t0).Nanoseconds())
		}
		fe.units = units
	}
	n := len(fe.units)
	d.Stats.Units = n
	fe.slots = make([]feSlot, n)

	ready := func(i int) { d.step(&fe, i, &d.fp) }
	join := func() {}
	if workers > 1 {
		ready, join = d.startFrontEnd(&fe, workers)
	}
	err := d.solve(ctx, &fe, ready, emit, workers)
	join()
	if d.TimeStages {
		d.Stats.Stage.Load = time.Duration(fe.load.Load())
		d.Stats.Stage.Fingerprint = time.Duration(fe.fingerprint.Load())
		d.Stats.Stage.Probe = time.Duration(fe.probe.Load())
	}
	return err
}

// startFrontEnd starts a pool of up to workers goroutines that claim slots
// in index order and run the front-end step on each. It returns the
// solver's wait for slot i and the join that stops the pool from claiming
// more slots and waits for every worker to exit.
func (d *Driver) startFrontEnd(fe *frontEnd, workers int) (ready func(int), join func()) {
	n := len(fe.slots)
	done := make([]bool, n)
	var (
		mu   sync.Mutex
		cond = sync.NewCond(&mu)
		next atomic.Int64
		stop atomic.Bool // solver finished or failed; workers stop claiming
		wg   sync.WaitGroup
	)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fpr Fingerprinter // per-worker scratch (hasher chain)
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				d.step(fe, i, &fpr)
				mu.Lock()
				done[i] = true
				mu.Unlock()
				cond.Broadcast()
			}
		}()
	}
	ready = func(i int) {
		mu.Lock()
		for !done[i] {
			cond.Wait()
		}
		mu.Unlock()
	}
	join = func() {
		stop.Store(true)
		wg.Wait()
	}
	return ready, join
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
	i   int // slot index
	off int // offset into the current miss chunk; -1 for store hits
}

// solve is the solver stage: walk slots in corpus order, batch misses into
// chunks, overlap analyzer batches with the still-running front end, and
// emit results in order as each prefix completes. ready(i) returns once
// slot i's front-end step has finished. Returns the first error in corpus
// order (load failure, analyzer failure, or emit rejection).
func (d *Driver) solve(ctx context.Context, fe *frontEnd, ready func(int), emit func(UnitResult) error, workers int) error {
	var (
		chunk []refs.Candidate
		queue []pendingUnit
		puts  []deferredPut
	)
	timed := d.TimeStages

	// emitUnit builds and emits one unit's result; solved is the chunk's
	// result slice for misses (nil serves from the store).
	emitUnit := func(p pendingUnit, solved []core.Result) error {
		u, s := &fe.units[p.i], &fe.slots[p.i]
		ur := UnitResult{Name: u.Name, Fingerprint: s.fp, Warnings: u.Warnings}
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		if p.off < 0 {
			ur.Reused = true
			ur.Results = Serve(u.Cands, s.stored)
			ur.Cost = s.stored.Cost
		} else {
			ur.Results = solved[p.off : p.off+len(u.Cands)]
			ur.Cost = Summarize(ur.Results)
			if d.storable(ur.Results) {
				puts = append(puts, deferredPut{s.fp, ToStored(u.Name, ur.Results)})
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
	for i := range fe.slots {
		ready(i)
		if fe.errs != nil && fe.errs[i] != nil {
			// Lowest failing index: every earlier slot was walked already.
			err = fe.errs[i]
			break
		}
		u := &fe.units[i]
		if fe.slots[i].stored != nil {
			d.Stats.UnitsReused++
			d.Stats.PairsServed += len(u.Cands)
			if emit == nil {
				// No consumer: a stats-only run pays nothing to rebuild
				// served results.
				continue
			}
			p := pendingUnit{i: i, off: -1}
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
		d.Stats.PairsSolved += len(u.Cands)
		queue = append(queue, pendingUnit{i: i, off: len(chunk)})
		chunk = append(chunk, u.Cands...)
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
		// Every slot was walked, so every front-end step — and with it
		// every store probe of this run — has finished: no unit of this run
		// can hit one of these entries. On the error path puts are dropped
		// entirely, so a failed run stores nothing.
		for i := range puts {
			d.store.Put(puts[i].fp, puts[i].su)
		}
	}
	return err
}
