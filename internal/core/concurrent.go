package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"exactdep/internal/dtest"
	"exactdep/internal/memo"
	"exactdep/internal/refs"
	"exactdep/internal/stats"
)

// AnalyzeAll analyzes every candidate pair with a pool of workers sharing
// this analyzer's memo tables, and returns the results in candidate order.
// workers <= 0 means runtime.GOMAXPROCS(0); at one worker the same loop
// runs on the calling goroutine over the analyzer itself, with no
// goroutine and no provenance bookkeeping.
//
// The workers share the analyzer's sharded memo tables (memo.ShardedTable,
// lock-free reads) as they are, entries from LoadMemo or earlier runs
// included, so a warm table keeps serving hits across runs. Each worker
// holds its own scratch key encoder and probes the shared table directly:
// a lookup is one hash and a few atomic loads. Each worker accumulates its
// own stats.Counters, merged into a.Stats at the end; UniqueFull/UniqueEq
// are then snapshotted from the shared tables.
//
// Results are deterministic — byte-identical across worker counts and
// schedules. Verdicts, vectors, and distances are deterministic because a
// cache hit expands to exactly what a fresh computation of the same
// canonical problem produces, so racing workers can only agree. DecidedBy
// is provenance (cache vs test). A hit on an entry from before the run is
// ByCache, as in a serial pass; every entry is stamped with the run that
// inserted it, so telling one apart costs no look at the rest of the
// table. For problems this run inserts, DecidedBy *does* depend on which
// worker reached a problem first, so workers record each such pair's
// canonical key plus its underlying fresh verdict, and an ordered
// post-pass replays the serial rule: the first occurrence of each
// cacheable problem keeps its fresh DecidedBy, later occurrences report
// ByCache.
//
// Counter values that depend on cache timing — hit and per-test counts —
// may vary between concurrent runs; verdict tallies (Pairs, Constant,
// GCDIndependent, Independent, Dependent, Unknown) and the unique-problem
// counts do not.
func (a *Analyzer) AnalyzeAll(cands []refs.Candidate, workers int) ([]Result, error) {
	return a.AnalyzeAllContext(context.Background(), cands, workers)
}

// degradedResult is the conservative verdict for a candidate the driver
// never analyzed because the context was already done: assume dependent,
// inexactly, attributed to cancellation. Kind stays KindNone — no test ran.
func degradedResult(c refs.Candidate) Result {
	return Result{Pair: c.Pair, Outcome: dtest.Maybe, DecidedBy: ByTest, Trip: dtest.TripCancelled}
}

// effectiveBudget merges the context's deadline (if any) into the options
// budget; the count limits — and therefore the budget class — are unchanged.
func (a *Analyzer) effectiveBudget(ctx context.Context) dtest.Budget {
	b := a.opts.Budget
	if d, ok := ctx.Deadline(); ok {
		if b.Deadline.IsZero() || d.Before(b.Deadline) {
			b.Deadline = d
		}
	}
	return b
}

// AnalyzeAllContext is AnalyzeAll honoring a context: the context's deadline
// is merged into the per-problem budget, its Done channel is polled at the
// cascade's budget hot points (cutting even a single monster problem short
// mid-elimination), and workers stop picking up new candidates once the
// context is done. Degradation is graceful rather than fatal — the returned
// slice always has one sound Result per candidate, with unanalyzed pairs
// reported as Maybe/TripCancelled (counted in stats.CancelledPairs) — and
// the error is nil unless a candidate genuinely failed to analyze. Verdicts
// produced under a deadline or cancellation are sound but scheduling-
// dependent, so the byte-identical determinism guarantee above holds only
// for count-limited (or unlimited) budgets on an undisturbed context.
func (a *Analyzer) AnalyzeAllContext(ctx context.Context, cands []refs.Candidate, workers int) ([]Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(cands)))
	plainCtx := ctx.Done() == nil
	// Entries this run inserts carry its number; anything stamped lower was
	// in the table before it started (cached.stamp).
	a.run++

	// Workers record provenance for the post-pass. A single worker visits
	// candidates in order, so it reports the serial DecidedBy as it goes and
	// records none.
	var provs []provenance
	if a.opts.Memoize && workers > 1 {
		if cap(a.provBuf) < len(cands) {
			a.provBuf = make([]provenance, len(cands))
		}
		provs = a.provBuf[:len(cands)]
		for i := range provs {
			provs[i] = provenance{}
		}
	}

	out := make([]Result, len(cands))
	if cap(a.procBuf) < len(cands) {
		a.procBuf = make([]bool, len(cands))
	}
	processed := a.procBuf[:len(cands)] // distinct indexes per worker; read after join
	for i := range processed {
		processed[i] = false
	}
	if cap(a.ctrBuf) < workers {
		a.ctrBuf = make([]stats.Counters, workers)
	}
	counters := a.ctrBuf[:workers]
	eff := a.effectiveBudget(ctx)
	// Workers claim candidates in chunks: one shared atomic add per chunk
	// instead of per pair, sized so each worker still gets several claims
	// (work stays balanced) without the claim counter becoming the
	// contended line of a memo-hot run.
	chunk := len(cands) / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > 64 {
		chunk = 64
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		errMu  sync.Mutex
		errIdx = len(cands)
		errVal error
	)
	// work is one worker's loop over an analyzer: a worker view, or the
	// parent itself at one worker. Options and the cascade stage
	// configuration are read-only; the cascade pipeline (with its scratch),
	// the builder, preprocessor and refiner scratch (kept warm across runs),
	// and the counters — including the per-stage Table 6 cost counters —
	// belong to wa, and its counters land in counters[w] for the merge. The
	// pipeline carries the deadline-merged budget and the context's Done
	// channel.
	work := func(w int, wa *Analyzer) {
		wa.Stats = stats.Counters{}
		wa.run = a.run
		if wa.pipe != nil {
			if plainCtx {
				wa.pipe.SetBudget(a.opts.Budget)
				wa.pipe.SetCancel(nil)
			} else {
				wa.pipe.SetBudget(eff)
				wa.pipe.SetCancel(ctx.Done())
			}
		}
		defer func() { counters[w] = wa.Stats }()
		for !failed.Load() {
			base := int(next.Add(int64(chunk))) - chunk
			if base >= len(cands) {
				return
			}
			end := base + chunk
			if end > len(cands) {
				end = len(cands)
			}
			if !plainCtx && ctx.Err() != nil {
				return
			}
			for i := base; i < end; i++ {
				if failed.Load() {
					return
				}
				var prov *provenance
				if provs != nil {
					prov = &provs[i]
				}
				if err := wa.analyzeCandidate(&cands[i], &out[i], prov); err != nil {
					errMu.Lock()
					// Keep the error of the earliest failing candidate so
					// the reported failure does not depend on scheduling.
					if i < errIdx {
						errIdx, errVal = i, err
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
				processed[i] = true
			}
		}
	}
	if workers == 1 {
		// The parent is the worker, on the calling goroutine: its own
		// pipeline and refiner, and no in-flight layer. work zeroes its
		// counters, so set the session totals aside for the merge, and put
		// the pipeline back on the options budget for direct
		// AnalyzeCandidate calls.
		saved := a.Stats
		work(0, a)
		a.Stats = saved
		if a.pipe != nil {
			a.pipe.SetBudget(a.opts.Budget)
			a.pipe.SetCancel(nil)
		}
	} else {
		var wg sync.WaitGroup
		for w, wa := range a.ensureViews(workers) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(w, wa)
			}()
		}
		wg.Wait()
	}
	for w := range counters {
		a.Stats.Add(&counters[w])
	}
	if errVal == nil {
		// Candidates no worker reached before the context was done get the
		// conservative degraded verdict; their provenance stays empty so
		// the post-pass leaves them untouched.
		for i := range cands {
			if !processed[i] {
				out[i] = degradedResult(cands[i])
				a.Stats.CancelledPairs++
			}
		}
	}
	// Workers do not track the shared tables' sizes — snapshot them now
	// that every insert has landed.
	a.Stats.UniqueFull = a.full.Len()
	a.Stats.UniqueEq = a.eq.Len()
	if errVal != nil {
		return nil, errVal
	}

	// Provenance post-pass: rewrite DecidedBy in candidate order to the
	// serial rule, over the problems this run inserted. GCD-independent
	// verdicts are never stored in the full table, so every occurrence
	// reports ByGCD (their provenance carries no key); a problem answered by
	// an entry from before the run already reports ByCache and records no
	// key either; any other problem's first occurrence keeps its fresh
	// verdict and marks the key, later occurrences report ByCache. The seen
	// set holds this run's keys only, so the pass costs the candidates, not
	// the table.
	if provs == nil {
		return out, nil
	}
	// The replay is keyed by identity (no strings, no allocation per pair):
	// every cacheable key a worker recorded is the table's interned
	// instance (a probe's, a flight's, or the one Insert handed back), so
	// only the clones of non-cacheable verdicts are resolved against the
	// table, then first-occurrence is replayed over instance identity.
	if a.seenPtr == nil {
		a.seenPtr = make(map[*int64]bool)
	}
	clear(a.seenPtr)
	for i := range provs {
		pv := &provs[i]
		if pv.key == nil { // constant, GCD-decided or pre pair
			continue
		}
		id := &pv.key[0]
		if !pv.cacheable {
			if sk, _, ok := a.full.LookupStored(pv.key); ok {
				id = &sk[0]
			}
		}
		if a.seenPtr[id] {
			out[i].DecidedBy = ByCache
		} else {
			out[i].DecidedBy = pv.fresh
		}
		if pv.cacheable {
			a.seenPtr[id] = true
		}
	}
	return out, nil
}

// ensureViews returns one cached worker view per worker, creating the
// in-flight dedup layer and any missing views. Views persist on the parent
// across AnalyzeAll calls so their pipeline, builder, preprocessor and
// refiner scratch is grown once, not once per call.
func (a *Analyzer) ensureViews(workers int) []*Analyzer {
	if a.opts.Memoize && a.flights == nil {
		a.flights = memo.NewInFlight[cached](4 * workers)
	}
	for len(a.views) < workers {
		a.views = append(a.views, a.workerView())
	}
	return a.views[:workers]
}
