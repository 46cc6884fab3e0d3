package corpus

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"exactdep/internal/core"
	"exactdep/internal/dtest"
	"exactdep/internal/memo"
	"exactdep/internal/refs"
)

// StageTimes breaks one Run's cost into pipeline stages. Load, Fingerprint
// and Probe are summed across front-end workers, so on a pipelined run they
// are CPU time and may exceed Wall; Solve and Emit are wall time on the
// solver goroutine; Wall is the whole Run. All fields except Wall are zero
// unless Driver.TimeStages is set (per-unit clock reads are measurable next
// to a warm store probe, so the accounting is opt-in, like
// core.Options.TimeCascade).
type StageTimes struct {
	// Load is reading + parsing units (file-backed sources; zero for
	// in-memory corpora, whose units already exist).
	Load time.Duration
	// Fingerprint is the structural digest pass (zero-cost for units whose
	// cached fingerprint is still valid).
	Fingerprint time.Duration
	// Probe is the fingerprint → verdict store lookups.
	Probe time.Duration
	// Solve is the analyzer batches over store misses.
	Solve time.Duration
	// Emit is rebuilding store-served results plus the caller's emit
	// callbacks.
	Emit time.Duration
	// Wall is the whole Run, always measured.
	Wall time.Duration
}

// Stats counts one Run's incremental traffic. The unit counters are what
// the incremental tests pin: mutating k of N units must show UnitsSolved ==
// k and UnitsReused == N-k.
type Stats struct {
	// Units is the corpus size this run.
	Units int
	// UnitsReused were served from the store without analysis.
	UnitsReused int
	// UnitsSolved went through the analyzer (changed, new, or no store).
	UnitsSolved int
	// PairsServed / PairsSolved split the pair population the same way.
	PairsServed int
	PairsSolved int
	// Stage is the per-stage pipeline timing (see StageTimes; stage
	// accounting needs Driver.TimeStages).
	Stage StageTimes
}

// UnitResult is one unit's outcome in corpus order.
type UnitResult struct {
	Name        string
	Fingerprint memo.Fingerprint
	// Reused reports that the results came from the store, not the
	// analyzer.
	Reused   bool
	Results  []core.Result
	Cost     CostSummary
	Warnings []string
}

// Driver is the incremental corpus driver: it diffs unit fingerprints
// against a persistent Store and schedules only changed or new units
// through the analyzer, so unchanged-unit reuse (store hits) layers on top
// of cross-unit canonical-problem reuse (memo hits). Without a store every
// unit is solved fresh, and the driver is simply the corpus front end the
// suite runner and depanalyze share.
//
// At workers == 1 a Run is fully serial: load everything, fingerprint and
// probe unit by unit, solve the misses in one analyzer batch, emit. At
// workers > 1 the whole path is pipelined (see pipeline.go): a worker pool
// loads, fingerprints, and store-probes units concurrently; the solver
// feeds accumulated miss batches to core.AnalyzeAllContext while later
// units are still in the front end; and results are emitted in corpus
// order as their prefix completes. Cold and warm canonical bytes — and the
// unit/pair counters above — are identical at every worker count.
//
// A Driver is not safe for concurrent use; its own worker pools provide
// the parallelism. Several drivers may share one Store.
type Driver struct {
	analyzer *core.Analyzer
	workers  int
	sig      signature
	store    *Store
	// crossClass is set when the store is bound to another count-budget
	// class than the driver (see SetStore).
	crossClass bool
	fp         Fingerprinter

	// Stats describes the most recent Run.
	Stats Stats
	// TimeStages enables per-stage wall-time accounting in Stats.Stage.
	// Off by default: the per-unit clock reads are measurable next to a
	// warm store probe (same rationale as core.Options.TimeCascade).
	TimeStages bool
}

// NewDriver returns a driver over a fresh analyzer configured by opts.
// workers sizes the whole pipeline — the front-end load/fingerprint/probe
// pool and the analyzer pool of each solve batch (1 serial, <= 0
// GOMAXPROCS) — with the same byte-identical-results guarantee as
// core.AnalyzeAll.
func NewDriver(opts core.Options, workers int) *Driver {
	return &Driver{analyzer: core.New(opts), workers: workers, sig: signatureOf(opts)}
}

// NewDriverOver wraps an existing analyzer, sharing its memo tables and
// counters — the adapter that lets per-program front ends (the suite
// runner, depanalyze's multi-unit mode) keep one compiler-session analyzer
// while routing scheduling through the corpus driver.
func NewDriverOver(a *core.Analyzer, workers int) *Driver {
	return &Driver{analyzer: a, workers: workers, sig: signatureOf(a.Options())}
}

// Analyzer exposes the underlying analyzer (memo persistence, stats,
// distribution reports).
func (d *Driver) Analyzer() *core.Analyzer { return d.analyzer }

// SetStore attaches a persistent verdict store (nil detaches it). The
// store's result surface — its signature less the count-budget class — must
// be the driver's own; NewStore or LoadStore with the same options
// guarantees that.
//
// When only the budget class differs, the driver uses the store under the
// cross-class rule: a Maybe verdict may be a budget trip of the class that
// stored it, and an untripped result is the same under every class, so
// the driver serves only stored units without Maybe verdicts (Cost.Maybe
// == 0) and stores only results with no trip at all. Class-scoped verdicts
// therefore never leak between classes sharing one store.
func (d *Driver) SetStore(s *Store) error {
	if s != nil && s.sig.surface != d.sig.surface {
		return fmt.Errorf("corpus: store signature %q does not match driver configuration %q", s.sig, d.sig)
	}
	d.store = s
	d.crossClass = s != nil && s.sig.budget != d.sig.budget
	return nil
}

// Store returns the attached store (nil if none).
func (d *Driver) Store() *Store { return d.store }

// Run analyzes the corpus incrementally and emits one UnitResult per unit
// in corpus order. With a store attached, units whose fingerprint is
// already present are served from it; the rest are solved through the
// analyzer and stored back (unless a verdict tripped on the clock or on
// cancellation). emit may be nil — the run then updates the store and
// Stats without materializing store-served results at all; a non-nil emit
// error aborts the run. Stats is reset at the start of each run.
//
// At workers > 1 the run is pipelined: units are loaded, fingerprinted,
// and probed by a worker pool, miss batches overlap the rest of the front
// end in the analyzer, and UnitResults stream out in corpus order as their
// prefix completes. Canonical bytes, unit/pair counters, and store traffic
// are identical to the serial run; on a load failure, results for units
// preceding the failing one may already have been emitted before the
// (deterministic, lowest-index) error is returned, where the serial run
// emits nothing.
func (d *Driver) Run(ctx context.Context, src Source, emit func(UnitResult) error) error {
	start := time.Now()
	d.Stats = Stats{}
	workers := d.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var err error
	if workers <= 1 {
		err = d.runSerial(ctx, src, emit)
	} else {
		err = d.runPipelined(ctx, src, emit, workers)
	}
	d.Stats.Stage.Wall = time.Since(start)
	return err
}

// runSerial is the workers == 1 path: everything on the calling goroutine,
// one analyzer batch, no synchronization — the counter-for-counter
// reference the pipelined path is asserted against.
func (d *Driver) runSerial(ctx context.Context, src Source, emit func(UnitResult) error) error {
	t0 := time.Now()
	units, err := src.Units()
	if err != nil {
		return err
	}
	if d.TimeStages {
		d.Stats.Stage.Load = time.Since(t0)
	}
	d.Stats.Units = len(units)

	type slot struct {
		fp     memo.Fingerprint
		stored *StoredUnit
		off    int // offset into the miss batch when stored == nil
	}
	slots := make([]slot, len(units))
	var batch []refs.Candidate
	for i := range units {
		u := &units[i]
		var t1 time.Time
		if d.TimeStages {
			t1 = time.Now()
		}
		// The fingerprint is part of the unit's result surface even without
		// a store (UnitResult.Fingerprint), and it is cached on the Unit, so
		// compute it unconditionally.
		slots[i].fp = u.Fingerprint(&d.fp)
		if d.TimeStages {
			t2 := time.Now()
			d.Stats.Stage.Fingerprint += t2.Sub(t1)
			t1 = t2
		}
		if d.store != nil {
			su := d.probe(slots[i].fp, len(u.Cands))
			if d.TimeStages {
				d.Stats.Stage.Probe += time.Since(t1)
			}
			if su != nil {
				slots[i].stored = su
				d.Stats.UnitsReused++
				d.Stats.PairsServed += len(u.Cands)
				continue
			}
		}
		slots[i].off = len(batch)
		batch = append(batch, u.Cands...)
		d.Stats.UnitsSolved++
		d.Stats.PairsSolved += len(u.Cands)
	}

	var solved []core.Result
	if len(batch) > 0 {
		t1 := time.Now()
		solved, err = d.analyzer.AnalyzeAllContext(ctx, batch, 1)
		if d.TimeStages {
			d.Stats.Stage.Solve = time.Since(t1)
		}
		if err != nil {
			return err
		}
	}

	var emitStart time.Time
	if d.TimeStages {
		emitStart = time.Now()
	}
	for i := range units {
		u := &units[i]
		ur := UnitResult{Name: u.Name, Fingerprint: slots[i].fp, Warnings: u.Warnings}
		if slots[i].stored != nil {
			if emit == nil {
				// No consumer: a stats-only run (e.g. "did anything
				// change?") pays nothing to rebuild served results.
				continue
			}
			ur.Reused = true
			ur.Results = Serve(u.Cands, slots[i].stored)
			ur.Cost = slots[i].stored.Cost
		} else {
			ur.Results = solved[slots[i].off : slots[i].off+len(u.Cands)]
			ur.Cost = Summarize(ur.Results)
			if d.storable(ur.Results) {
				d.store.Put(slots[i].fp, ToStored(u.Name, ur.Results))
			}
		}
		if emit != nil {
			if err := emit(ur); err != nil {
				return err
			}
		}
	}
	if d.TimeStages {
		d.Stats.Stage.Emit = time.Since(emitStart)
	}
	return nil
}

// probe returns the stored unit that may serve a unit with fingerprint fp
// and n candidates, or nil. The pair-count cross-check guards the
// (astronomically unlikely) fingerprint collision and any hand-edited
// store; across budget classes only Maybe-free units are served.
func (d *Driver) probe(fp memo.Fingerprint, n int) *StoredUnit {
	su, ok := d.store.Lookup(fp)
	if !ok || len(su.Results) != n || d.crossClass && su.Cost.Maybe != 0 {
		return nil
	}
	return su
}

// storable reports whether a solved unit's results go back into the
// attached store: Storable ones, and across budget classes only results
// with no trip at all.
func (d *Driver) storable(results []core.Result) bool {
	switch {
	case d.store == nil:
		return false
	case !d.crossClass:
		return Storable(results)
	}
	for i := range results {
		if results[i].Trip != dtest.TripNone {
			return false
		}
	}
	return true
}

// RunAll is Run collecting every UnitResult.
func (d *Driver) RunAll(ctx context.Context, src Source) ([]UnitResult, error) {
	var out []UnitResult
	err := d.Run(ctx, src, func(ur UnitResult) error {
		out = append(out, ur)
		return nil
	})
	return out, err
}

// AppendCanonical appends the canonical rendering of a unit result: the
// byte-identity surface of incremental analysis. It covers everything the
// store persists — outcome, exactness, trip, direction vectors, distances,
// per pair in order — and deliberately excludes provenance (DecidedBy, and
// Kind, which names the deciding test): provenance depends on session
// history, so a warm run legitimately reports ByCache where a cold run
// reports ByTest. Cold and warm runs over the same corpus produce identical
// canonical bytes at any worker count.
func AppendCanonical(dst []byte, ur *UnitResult) []byte {
	dst = append(dst, ur.Name...)
	dst = append(dst, '\n')
	for i := range ur.Results {
		r := &ur.Results[i]
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, ' ')
		dst = append(dst, r.Outcome.String()...)
		if r.Exact {
			dst = append(dst, " exact"...)
		}
		if r.Trip != 0 {
			dst = append(dst, " trip="...)
			dst = strconv.AppendInt(dst, int64(r.Trip), 10)
		}
		for _, v := range r.Vectors {
			dst = append(dst, ' ')
			dst = append(dst, v.String()...)
		}
		for _, dist := range r.Distances {
			dst = append(dst, " d"...)
			dst = strconv.AppendInt(dst, int64(dist.Level), 10)
			dst = append(dst, '=')
			dst = strconv.AppendInt(dst, dist.Value, 10)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// Canonical runs the corpus and returns the concatenated canonical
// rendering of every unit — the convenient form of the byte-identity
// guarantee for tests and tools.
func (d *Driver) Canonical(ctx context.Context, src Source) ([]byte, error) {
	var buf []byte
	err := d.Run(ctx, src, func(ur UnitResult) error {
		buf = AppendCanonical(buf, &ur)
		return nil
	})
	return buf, err
}
