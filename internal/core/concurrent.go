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
// workers <= 0 means runtime.GOMAXPROCS(0); workers == 1 runs serially on
// the calling goroutine with no synchronization overhead.
//
// The workers share the analyzer's sharded memo tables (memo.ShardedTable,
// lock-free reads) as they are, entries from LoadMemo or earlier runs
// included, so a warm table keeps serving hits across runs. Each worker
// holds its own scratch key encoder and — unless Options.L1Size is
// negative — a private direct-mapped L1 memo in front of the shared table,
// so a worker's hot working set is answered without touching shared
// memory. Each worker accumulates its own stats.Counters, merged into
// a.Stats at the end; UniqueFull/UniqueEq are then snapshotted from the
// shared tables.
//
// Results are deterministic — byte-identical across worker counts and
// schedules. Verdicts, vectors, and distances are deterministic because a
// cache hit expands to exactly what a fresh computation of the same
// canonical problem produces, so racing workers can only agree; an L1 hit
// only ever re-observes an entry also present in the shared table, so the
// L1 layer cannot introduce new outcomes. DecidedBy
// is provenance (cache vs test) and *does* depend on which worker reached a
// problem first, so workers record each pair's canonical key plus its
// underlying fresh verdict, and an ordered post-pass replays the serial
// rule: the first occurrence of each cacheable problem keeps its fresh
// DecidedBy, later occurrences report ByCache. (Exception: with
// Options.SymmetricMemo the *order* of a result's direction vectors can
// depend on whether the mirrored entry was cached first; verdicts, vector
// sets, and distances remain deterministic.)
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
	if workers > len(cands) {
		workers = len(cands)
	}
	plainCtx := ctx.Done() == nil
	if workers <= 1 {
		if !plainCtx && a.pipe != nil {
			a.pipe.SetBudget(a.effectiveBudget(ctx))
			a.pipe.SetCancel(ctx.Done())
			defer func() {
				a.pipe.SetBudget(a.opts.Budget)
				a.pipe.SetCancel(nil)
			}()
		}
		out := make([]Result, 0, len(cands))
		for i, c := range cands {
			if !plainCtx && ctx.Err() != nil {
				for _, rest := range cands[i:] {
					out = append(out, degradedResult(rest))
					a.Stats.CancelledPairs++
				}
				return out, nil
			}
			r, err := a.AnalyzeCandidate(c)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}

	views := a.ensureViews(workers)

	// Snapshot the keys already cached (LoadMemo, earlier runs) before
	// workers start: the provenance post-pass must treat them as hits from
	// the first occurrence on, exactly as a serial pass over a warm table
	// would. The default replay matches keys by interned-instance identity
	// (no strings, no allocation per pair); SymmetricMemo replays over key
	// *content* because one canonical problem is reachable through two keys.
	var provs []provenance
	var seenStr map[string]bool
	if a.opts.Memoize {
		if cap(a.provBuf) < len(cands) {
			a.provBuf = make([]provenance, len(cands))
		}
		provs = a.provBuf[:len(cands)]
		for i := range provs {
			provs[i] = provenance{}
		}
		if a.opts.SymmetricMemo {
			seenStr = make(map[string]bool, a.full.Len())
			a.full.Range(func(k memo.Key, _ cached) bool {
				seenStr[k.Bytes()] = true
				return true
			})
		} else {
			if a.seenPtr == nil {
				a.seenPtr = make(map[*int64]bool, a.full.Len())
			} else {
				clear(a.seenPtr)
			}
			a.full.Range(func(k memo.Key, _ cached) bool {
				a.seenPtr[&k[0]] = true
				return true
			})
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
		wg     sync.WaitGroup
		errMu  sync.Mutex
		errIdx = len(cands)
		errVal error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker is a private Analyzer view over the shared
			// tables: options and the cascade stage configuration are
			// read-only; the cascade pipeline (with its scratch), the L1
			// caches (kept warm across runs), and the counters — including
			// the per-stage Table 6 cost counters — are per-worker and
			// merged at the end. The pipeline carries the deadline-merged
			// budget and the context's Done channel.
			wa := views[w]
			wa.Stats = stats.Counters{}
			if wa.pipe != nil {
				if plainCtx {
					wa.pipe.SetBudget(a.opts.Budget)
					wa.pipe.SetCancel(nil)
				} else {
					wa.pipe.SetBudget(eff)
					wa.pipe.SetCancel(ctx.Done())
				}
			}
			// Hand the counters over before wg.Wait releases the merge.
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
					r, err := wa.analyzeCandidate(cands[i], prov)
					if err != nil {
						errMu.Lock()
						// Keep the error of the earliest failing candidate
						// so the reported failure does not depend on
						// scheduling.
						if i < errIdx {
							errIdx, errVal = i, err
						}
						errMu.Unlock()
						failed.Store(true)
						return
					}
					out[i] = r
					processed[i] = true
				}
			}
		}(w)
	}
	wg.Wait()
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
	// serial rule. GCD-independent verdicts are never stored in the full
	// table, so every occurrence reports ByGCD (their provenance carries no
	// key); any other problem's first occurrence keeps its fresh verdict
	// and marks the key, later occurrences report ByCache.
	if a.opts.SymmetricMemo {
		// Content-keyed replay: a problem is also "seen" through its
		// mirrored key.
		for i := range provs {
			pv := &provs[i]
			if pv.keyStr == "" { // constant or GCD-decided pair
				continue
			}
			if pv.fresh == ByGCD {
				out[i].DecidedBy = ByGCD
				continue
			}
			if seenStr[pv.keyStr] || (pv.mirror != "" && seenStr[pv.mirror]) {
				out[i].DecidedBy = ByCache
			} else {
				out[i].DecidedBy = pv.fresh
			}
			// Only results that actually entered (or came from) the memo
			// table make later occurrences hits in a serial replay;
			// clock-tripped verdicts are never cached, so their keys stay
			// unseen.
			if pv.cacheable {
				seenStr[pv.keyStr] = true
			}
		}
		return out, nil
	}
	// Identity-keyed replay: resolve each recorded key to the table's
	// interned instance (occurrences of one canonical problem may have
	// recorded distinct clones when racing workers both inserted it),
	// then replay first-occurrence over instance identity.
	for i := range provs {
		pv := &provs[i]
		if pv.key == nil { // constant or GCD-decided pair
			continue
		}
		id := &pv.key[0]
		if sk, _, ok := a.full.LookupStored(pv.key); ok {
			id = &sk[0]
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
// across AnalyzeAll calls so their L1 caches stay warm — the dominant cost
// of the previous per-call views was every worker re-faulting its working
// set through the shared table.
func (a *Analyzer) ensureViews(workers int) []*Analyzer {
	if a.opts.Memoize && a.flights == nil {
		a.flights = memo.NewInFlight[cached](4 * workers)
	}
	for len(a.views) < workers {
		a.views = append(a.views, a.workerView())
	}
	return a.views[:workers]
}
