package corpus

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"exactdep/internal/core"
	"exactdep/internal/memo"
	"exactdep/internal/refs"
)

// The corpus run. Three stages overlap:
//
//	front end (pool of N workers)      solver (the Run goroutine)
//	┌───────────────────────────┐      ┌───────────────────────────────┐
//	│ claim index i (atomic)    │      │ walk slots in corpus order    │
//	│ read + digest unit i:     │      │ hit  → serve / queue          │
//	│   file index hit → done   │ ───▶ │ miss → append to chunk        │
//	│ else parse (Lister only), │ slot │ chunk full → AnalyzeAll batch │
//	│ fingerprint (cached),     │ ready│ emit finished prefix in order │
//	│ probe store (read-only)   │      │ after the walk: Puts, index   │
//	└───────────────────────────┘      └───────────────────────────────┘
//
// The pool has N = workers goroutines at more than one worker. At one
// worker the analyzer batches run on the solver goroutine, and so does the
// front end of an in-memory corpus, which starts no goroutine at all; a
// listing (Dir, Files) still gets a pool of GOMAXPROCS readers, because a
// file index miss pays a parse.
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
//     only reads the store, and the solver defers its Puts and its file
//     index entries until every slot has been probed. The store is safe
//     for concurrent use, so this is not about data races (other drivers
//     sharing the store may Put at any time); it is what keeps
//     UnitsSolved/PairsSolved independent of how far the front end has run
//     ahead of the solver.
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
	// With a store attached, the bytes of a Read item are digested. A file
	// index hit keeps them in src (UnitResult.LoadPairs) and builds no IR;
	// a parsed unit's digest becomes its index entry after the run.
	digested bool
	digest   [sha256.Size]byte
	indexed  bool
	src      []byte // index hits only
}

// frontEnd is one run's corpus and the per-unit products of its front end.
// items is set only for a Lister source: the step then reads or loads
// units[i] from items[i] and records its load error in errs[i].
type frontEnd struct {
	units []Unit
	items []Item
	errs  []error
	slots []feSlot

	load, fingerprint, probe atomic.Int64 // nanoseconds, summed over workers
}

// step is the front end for slot i: read the unit if it is listed — with a
// store attached, digest the bytes and finish on a file index hit the
// store still serves — and parse it (or load it); then fingerprint the
// unit and probe the store. fpr is the caller's hasher scratch.
func (d *Driver) step(fe *frontEnd, i int, fpr *Fingerprinter) {
	timed := d.TimeStages
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	// lap charges the time since the previous lap to one stage.
	lap := func(stage *atomic.Int64) {
		if timed {
			t1 := time.Now()
			stage.Add(t1.Sub(t0).Nanoseconds())
			t0 = t1
		}
	}
	u, s := &fe.units[i], &fe.slots[i]
	if fe.items != nil {
		if it := &fe.items[i]; it.Read == nil {
			*u, fe.errs[i] = it.Load()
		} else if src, err := it.Read(); err != nil {
			fe.errs[i] = fmt.Errorf("corpus: %w", err)
		} else {
			if d.store != nil {
				s.digested, s.digest = true, sha256.Sum256(src)
				lap(&fe.load)
				e, ok := d.store.file(it.Name)
				if ok && e.digest == s.digest {
					s.stored = d.probe(e.fp, e.pairs)
				}
				lap(&fe.probe)
				if s.stored != nil {
					// The unit the entry describes, without its IR.
					*u = Unit{Name: it.Name, Warnings: e.warnings}
					s.fp, s.indexed, s.src = e.fp, true, src
					return
				}
			}
			*u, fe.errs[i] = FromSource(it.Name, string(src))
		}
		lap(&fe.load)
		if fe.errs[i] != nil {
			return
		}
	}
	// The fingerprint is part of the unit's result surface even without a
	// store (UnitResult.Fingerprint). It is cached on the Unit, so a
	// long-lived in-memory corpus pays the digest walk once per unit across
	// runs; steps touch disjoint slice elements, so the in-place caching is
	// race-free.
	s.fp = u.Fingerprint(fpr)
	lap(&fe.fingerprint)
	if d.store != nil {
		s.stored = d.probe(s.fp, len(u.Cands))
		lap(&fe.probe)
	}
}

// run is Run's walk: enumerate the corpus, run the front end over every
// slot (on a pool, or inline for an in-memory corpus at one worker) and
// solve in corpus order. See the comment above for the stage diagram and
// the determinism invariants.
func (d *Driver) run(ctx context.Context, src Source, emit func(UnitResult) error, workers int) error {
	// Lister sources stay lazy: the front end reads them. Everything else
	// is materialized here (Mem is a no-op).
	var fe frontEnd
	if l, ok := src.(Lister); ok {
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
	pool := workers
	if pool == 1 && fe.items != nil {
		pool = runtime.GOMAXPROCS(0)
	}
	if pool > 1 {
		ready, join = d.startFrontEnd(&fe, pool)
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
	// Both run on the solver goroutine; under TimeStages they book the time
	// it spends blocked as Stats.Stage.Wait.
	timed := d.TimeStages
	ready = func(i int) {
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		mu.Lock()
		for !done[i] {
			cond.Wait()
		}
		mu.Unlock()
		if timed {
			d.Stats.Stage.Wait += time.Since(t0)
		}
	}
	join = func() {
		t0 := time.Now()
		stop.Store(true)
		wg.Wait()
		if timed {
			d.Stats.Stage.Wait += time.Since(t0)
		}
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
			ur.Results = Serve(u.Cands, s.stored) // no pairs on an index hit
			ur.Cost = s.stored.Cost
			ur.src = s.src
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
		u, s := &fe.units[i], &fe.slots[i]
		if s.stored != nil {
			d.Stats.UnitsReused++
			d.Stats.PairsServed += len(s.stored.Results)
			if s.indexed {
				d.Stats.UnitsIndexed++
			}
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
		// can hit one of these entries. On the error path puts and index
		// entries are dropped entirely, so a failed run stores nothing.
		for i := range puts {
			d.store.Put(puts[i].fp, puts[i].su)
		}
		d.indexFiles(fe)
	}
	return err
}

// indexFiles records the file index entry of every unit the run parsed from
// digested bytes and the store now serves, so the next run over the same
// bytes skips the parse.
func (d *Driver) indexFiles(fe *frontEnd) {
	for i := range fe.slots {
		u, s := &fe.units[i], &fe.slots[i]
		if s.digested && !s.indexed && d.probe(s.fp, len(u.Cands)) != nil {
			d.store.indexFile(u.Name, fileEntry{s.digest, s.fp, len(u.Cands), u.Warnings})
		}
	}
}
