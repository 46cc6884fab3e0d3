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
)

// StageTimes breaks one Run's cost into pipeline stages. Load, Fingerprint
// and Probe are summed across front-end workers, so on a pipelined run they
// are CPU time and may exceed Wall; Solve, Emit and Wait are wall time on
// the solver goroutine; Wall is the whole Run. All fields except Wall are zero
// unless Driver.TimeStages is set (per-unit clock reads are measurable next
// to a warm store probe, so the accounting is opt-in, like
// core.Options.TimeCascade).
type StageTimes struct {
	// Load is reading, digesting and parsing units (file-backed sources;
	// zero for in-memory corpora, whose units already exist).
	Load time.Duration
	// Fingerprint is the structural digest pass (zero-cost for units whose
	// cached fingerprint is still valid, and skipped on file index hits).
	Fingerprint time.Duration
	// Probe is the file index and fingerprint → verdict store lookups.
	Probe time.Duration
	// Solve is the analyzer batches over store misses.
	Solve time.Duration
	// Emit is rebuilding store-served results plus the caller's emit
	// callbacks.
	Emit time.Duration
	// Wait is the solver blocked on a front-end pool: waiting for the next
	// slot's step to finish, and for the pool to exit at the end. Zero when
	// the front end runs inline on the solver (an in-memory corpus at one
	// worker).
	Wait time.Duration
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
	// UnitsIndexed of them were served through the store's file index,
	// without a parse (unchanged Dir and Files units).
	UnitsIndexed int
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
//
// A unit served through the store's file index was never parsed, so its
// results carry verdicts without IR: every Result.Pair is zero. LoadPairs
// attaches the pairs when a caller needs them.
type UnitResult struct {
	Name        string
	Fingerprint memo.Fingerprint
	// Reused reports that the results came from the store, not the
	// analyzer.
	Reused   bool
	Results  []core.Result
	Cost     CostSummary
	Warnings []string

	src []byte // the file bytes of a file index hit, until LoadPairs
}

// LoadPairs sets the Pair of every result of a unit served through the
// file index, by parsing the file bytes the run read and digested: the
// bytes the verdicts belong to, even if the file has changed since. It
// does nothing for results that already carry their pairs.
func (ur *UnitResult) LoadPairs() error {
	if ur.src == nil {
		return nil
	}
	u, err := FromSource(ur.Name, string(ur.src))
	if err != nil {
		return err
	}
	if len(u.Cands) != len(ur.Results) {
		return fmt.Errorf("corpus: %s: %d pairs parsed for %d results", ur.Name, len(u.Cands), len(ur.Results))
	}
	for i := range ur.Results {
		ur.Results[i].Pair = u.Cands[i].Pair
	}
	ur.src = nil
	return nil
}

// Driver is the incremental corpus driver: it diffs unit fingerprints
// against a persistent Store and schedules only changed or new units
// through the analyzer, so unchanged-unit reuse (store hits) layers on top
// of cross-unit canonical-problem reuse (memo hits). A file-backed unit
// whose bytes the store's file index already knows is served without even
// a parse. Without a store every unit is solved fresh, and the driver is
// simply the corpus front end the suite runner and depanalyze share.
//
// A Run is one walk at every worker count (see pipeline.go): the front end
// reads, digests, parses, fingerprints, and store-probes each unit; the
// solver walks the units in corpus order, feeds accumulated miss batches
// to core.AnalyzeAllContext, and emits results in corpus order as their
// prefix completes. A pool runs the front end concurrently, so later units
// are still in it while the analyzer solves earlier batches; at one worker
// over an in-memory corpus the solver runs each unit's front-end step
// itself and no goroutine is started. Cold and warm canonical bytes — and
// the unit/pair counters above — are identical at every worker count.
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
	// fp is the hasher scratch of one-worker runs' front end; pool
	// workers keep their own.
	fp Fingerprinter

	// Stats describes the most recent Run.
	Stats Stats
	// TimeStages enables per-stage wall-time accounting in Stats.Stage.
	// Off by default: the per-unit clock reads are measurable next to a
	// warm store probe (same rationale as core.Options.TimeCascade).
	TimeStages bool
}

// NewDriver returns a driver over a fresh analyzer configured by opts.
// workers sizes the whole pipeline — the front-end load/fingerprint/probe
// pool and the analyzer pool of each solve batch (<= 0 GOMAXPROCS) — with
// the same byte-identical-results guarantee as core.AnalyzeAll. At one
// worker the analyzer runs on the calling goroutine, but a listed corpus
// (Dir, Files) is still read and parsed by a GOMAXPROCS pool.
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
// UnitResults stream out in corpus order as their prefix completes. Units
// are read, fingerprinted, and probed by a worker pool and miss batches
// overlap the rest of the front end in the analyzer. Canonical bytes,
// unit/pair counters, and store traffic are identical at every worker
// count. On a load failure the (deterministic, lowest-index) error is
// returned; results for units preceding the failing one may already have
// been emitted.
func (d *Driver) Run(ctx context.Context, src Source, emit func(UnitResult) error) error {
	start := time.Now()
	d.Stats = Stats{}
	workers := d.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	err := d.run(ctx, src, emit, workers)
	d.Stats.Stage.Wall = time.Since(start)
	return err
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
