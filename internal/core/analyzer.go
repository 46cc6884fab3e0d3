// Package core is the paper's analyzer assembled from its parts: candidate
// pairs flow through constant classification, memoization (§5), Extended GCD
// preprocessing (§3.1), the exact test cascade (§3.2–3.5), and — when
// requested — direction/distance vector computation with pruning (§6) and
// symbolic unknowns (§8). Statistics are collected in the exact shape of the
// paper's tables.
//
// Candidate pairs are independent of each other up to the shared memo cache,
// so the package also provides the concurrent driver Analyzer.AnalyzeAll: a
// worker pool over the pair list, sharing sharded memo tables
// (memo.ShardedTable), accumulating stats.Counters per worker and merging
// them at the end, with results returned in candidate order. This is the
// analyzer running *on* many goroutines — not to be confused with
// internal/parallel, which *detects* loop-level parallelism in the analyzed
// program. See ARCHITECTURE.md for the full concurrency model.
package core

import (
	"errors"
	"runtime"
	"slices"

	"exactdep/internal/depvec"
	"exactdep/internal/dtest"
	"exactdep/internal/ir"
	"exactdep/internal/linalg"
	"exactdep/internal/memo"
	"exactdep/internal/refs"
	"exactdep/internal/stats"
	"exactdep/internal/system"
)

// Options configures an Analyzer. The zero value runs the bare cascade:
// no memoization, no direction vectors.
type Options struct {
	// Memoize caches results keyed on the canonicalized problem (§5).
	Memoize bool
	// ImprovedMemo additionally drops unused loop variables from the keys
	// (the paper's improved scheme; implies more hits, same answers).
	ImprovedMemo bool
	// DirectionVectors computes all dependence direction vectors (§6).
	DirectionVectors bool
	// PruneUnused keeps '*' for unused loop indices without testing.
	PruneUnused bool
	// PruneDistance fixes directions for constant GCD distances.
	PruneDistance bool
	// Deprecated: SymmetricMemo is ignored. Mirrored pairs (a[i] vs a[i-1]
	// and a[i-1] vs a[i]) are two canonical problems, each solved once.
	SymmetricMemo bool
	// Cascade names the dtest pipeline configuration: "" or "full" for the
	// paper's cost-ordered cascade, "fm-only" to run the Fourier–Motzkin
	// backup alone (cross-validation). An unknown name surfaces as an error
	// from the first Analyze call.
	Cascade string
	// TimeCascade enables per-stage wall-time accounting in the cascade
	// (stats.Counters.StageTimeNs). Off by default: two clock reads per
	// consulted stage are measurable next to a sub-microsecond SVPC probe.
	TimeCascade bool
	// Workers is the concurrent driver's pool size for the unit-level entry
	// points (exactdep.AnalyzeUnitContext / AnalyzeSourceContext) and the
	// corpus entry point (exactdep.AnalyzeCorpusRequest, where it sizes the
	// whole load/fingerprint/probe/solve pipeline): 0 means one worker,
	// negative means GOMAXPROCS. One worker analyzes on the calling
	// goroutine, but a directory or file-list corpus is still read and
	// parsed by a GOMAXPROCS pool. Analyzer.AnalyzeAll takes the pool size
	// as an explicit argument and ignores this field.
	Workers int
	// StorePath names a persistent corpus verdict-store snapshot for the
	// corpus entry point (exactdep.AnalyzeCorpusRequest): loaded when
	// present, saved back after the run. The analyzer itself ignores it —
	// per-pair memo persistence stays explicit via SaveMemo/LoadMemo.
	StorePath string
	// Budget bounds the work any single pair may spend in the expensive end
	// of the cascade; the zero value is unlimited. When a limit fires the
	// pair gets a sound, conservative Maybe verdict with Result.Trip naming
	// the limit. Count limits are deterministic and their degraded verdicts
	// are memoized per budget class; clock limits (and context deadlines/
	// cancellation, see AnalyzeAllContext) are scheduling-dependent and
	// their verdicts are never cached.
	Budget dtest.Budget
}

// Validate reports the first configuration error: an unknown Cascade name or
// a negative budget limit. The analyzer constructors tolerate an invalid
// Options value and surface the same error from the first Analyze call;
// Validate lets front ends (depanalyze) fail fast instead.
func (o Options) Validate() error {
	if _, err := dtest.ConfigByName(o.Cascade); err != nil {
		return err
	}
	b := o.Budget
	if b.MaxFMEliminations < 0 || b.MaxBranchNodes < 0 || b.MaxConstraints < 0 || b.MaxDuration < 0 {
		return errNegativeBudget
	}
	return nil
}

var errNegativeBudget = errors.New("core: budget limits must be non-negative (0 means unlimited)")

// DecidedBy identifies how a pair's verdict was obtained.
type DecidedBy int

const (
	// ByConstant: all-constant subscripts, no test needed.
	ByConstant DecidedBy = iota
	// ByGCD: Extended GCD proved independence without bounds.
	ByGCD
	// ByTest: an exact cascade test decided (see Result.Kind).
	ByTest
	// ByCache: a memoized result was reused.
	ByCache
	// ByDirections: the direction-vector refinement overrode an inexact
	// base verdict (implicit branch-and-bound).
	ByDirections
)

func (d DecidedBy) String() string {
	switch d {
	case ByConstant:
		return "constant"
	case ByGCD:
		return "gcd"
	case ByTest:
		return "test"
	case ByCache:
		return "cache"
	case ByDirections:
		return "directions"
	default:
		return "?"
	}
}

// Result is the analysis outcome for one candidate pair.
type Result struct {
	Pair      ir.Pair
	Outcome   dtest.Outcome
	Exact     bool
	DecidedBy DecidedBy
	// Kind is the deciding cascade test when DecidedBy == ByTest (or the
	// base test kind of a direction-vector run).
	Kind dtest.Kind
	// Trip names the budget limit that degraded the verdict when Outcome is
	// Maybe (dtest.TripNone otherwise).
	Trip dtest.TripReason
	// Vectors/Distances are filled when direction vectors are enabled and
	// the pair is dependent.
	Vectors   []depvec.Vector
	Distances []depvec.Distance
}

// verdict is the part of a Result a memo entry keeps: no pair, vectors or
// distances. Every field is a small enumeration, so each takes one byte.
type verdict struct {
	Outcome   uint8 // dtest.Outcome
	Exact     bool
	DecidedBy uint8 // DecidedBy
	Kind      uint8 // dtest.Kind
	Trip      uint8 // dtest.TripReason
}

func verdictOf(r *Result) verdict {
	return verdict{Outcome: uint8(r.Outcome), Exact: r.Exact, DecidedBy: uint8(r.DecidedBy),
		Kind: uint8(r.Kind), Trip: uint8(r.Trip)}
}

// into writes the verdict's fields into r, leaving its pair, vectors and
// distances alone.
func (v verdict) into(r *Result) {
	r.Outcome, r.Exact, r.DecidedBy = dtest.Outcome(v.Outcome), v.Exact, DecidedBy(v.DecidedBy)
	r.Kind, r.Trip = dtest.Kind(v.Kind), dtest.TripReason(v.Trip)
}

// cached is the memoized value for a full problem key. It keeps the
// verdict, not the Result of the pair that first produced it, so the table
// holds no pair's IR alive and a hit copies a few words. Direction vectors
// are stored projected onto the problem's *used* loop levels: under the
// improved scheme two pairs sharing a key may differ in their unused levels,
// so the vectors are re-expanded against the requesting pair (unused levels
// always get '*').
type cached struct {
	res verdict
	// stamp is the sequence number of the parent analyzer's AnalyzeAll run
	// that inserted the entry (Analyzer.run), 0 for LoadMemo entries. A
	// concurrent run tells an entry that was in the table when it started
	// from one its own workers inserted by the stamp alone.
	stamp uint64
	// projVectors[i][k] is the direction at the k-th used level.
	projVectors [][]depvec.Direction
	// projDistances pairs the ordinal of a used level with its constant
	// distance.
	projDistances []depvec.Distance
	// budgetClass scopes a degraded (Maybe) entry to the count limits that
	// produced it: a Maybe verdict is a property of the problem *and* the
	// budget, so a lookup under different count limits must miss and re-run.
	// Exact entries are valid under every class and ignore the field.
	budgetClass dtest.BudgetClass
}

// usable reports whether a cache hit may answer a lookup under the given
// budget class.
func (c *cached) usable(class dtest.BudgetClass) bool {
	return dtest.Outcome(c.res.Outcome) != dtest.Maybe || c.budgetClass == class
}

// usedLevels lists the common loop levels that constrain the problem, in
// the analyzer's scratch: valid until its next call.
func (a *Analyzer) usedLevels(p *system.Problem) []int {
	a.levels = a.levels[:0]
	for lvl := 0; lvl < p.Common; lvl++ {
		if p.LevelUsed(lvl) {
			a.levels = append(a.levels, lvl)
		}
	}
	return a.levels
}

// project reduces vectors/distances to the used levels, carving the
// projected vectors from one slab.
func project(res *Result, used []int) cached {
	c := cached{res: verdictOf(res)}
	if len(res.Vectors) > 0 {
		n := len(used)
		slab := make([]depvec.Direction, len(res.Vectors)*n)
		c.projVectors = make([][]depvec.Direction, len(res.Vectors))
		for k, v := range res.Vectors {
			pv := slab[k*n : (k+1)*n : (k+1)*n]
			for i, lvl := range used {
				if lvl < len(v) {
					pv[i] = v[lvl]
				} else {
					pv[i] = depvec.Any
				}
			}
			c.projVectors[k] = pv
		}
	}
	for _, d := range res.Distances {
		if i := slices.Index(used, d.Level); i >= 0 {
			if c.projDistances == nil {
				c.projDistances = make([]depvec.Distance, 0, len(res.Distances))
			}
			c.projDistances = append(c.projDistances, depvec.Distance{Level: i, Value: d.Value})
		}
	}
	return c
}

// expand writes the cached verdict into res and rebuilds its
// vectors/distances for the requesting pair's levels. The vectors are
// carved from one slab, each capped at its own length; res's vectors and
// distances must be empty.
func (a *Analyzer) expand(c *cached, prob *system.Problem, res *Result) {
	c.res.into(res)
	if len(c.projVectors) == 0 && len(c.projDistances) == 0 {
		// Nothing to re-expand; skip computing used levels so a vector-free
		// memo hit stays allocation-free.
		return
	}
	used := a.usedLevels(prob)
	if len(c.projVectors) > 0 {
		n := prob.Common
		slab := make([]depvec.Direction, len(c.projVectors)*n)
		for i := range slab {
			slab[i] = depvec.Any
		}
		res.Vectors = make([]depvec.Vector, len(c.projVectors))
		for k, pv := range c.projVectors {
			v := depvec.Vector(slab[k*n : (k+1)*n : (k+1)*n])
			for i, lvl := range used {
				if i < len(pv) {
					v[lvl] = pv[i]
				}
			}
			res.Vectors[k] = v
		}
	}
	for _, d := range c.projDistances {
		if d.Level < len(used) {
			if res.Distances == nil {
				res.Distances = make([]depvec.Distance, 0, len(c.projDistances))
			}
			res.Distances = append(res.Distances, depvec.Distance{Level: used[d.Level], Value: d.Value})
		}
	}
}

// Analyzer runs the full pipeline and accumulates statistics.
//
// An Analyzer is not safe for concurrent use directly: call AnalyzeAll to
// fan candidate pairs out over a worker pool. Its memo tables are sharded
// tables with lock-free reads (memo.ShardedTable) from construction on, so
// a serial analyzer and the worker views of a concurrent run use the same
// two tables.
type Analyzer struct {
	opts  Options
	full  *memo.ShardedTable[cached]
	eq    *memo.ShardedTable[system.GCDResult]
	Stats stats.Counters

	// enc is this analyzer's (or worker view's) scratch-backed key encoder:
	// steady-state encode+lookup+hit allocates nothing.
	enc memo.Encoder

	// refiner is the per-worker workspace of the clone-free direction-vector
	// refinement walk (arena for pushed direction rows, per-level buffers).
	refiner *depvec.Refiner

	// The cascade engine: cfg is the shared, immutable cascade (selected by
	// Options.Cascade); pipe is this analyzer's private pipeline with its
	// own scratch. prevStage holds the pipeline metrics at the last sync,
	// indexed by dtest.Kind, so syncStageStats can fold pure deltas into
	// Stats, keeping the counters additive across worker merges. cfgErr is
	// a deferred Options.Cascade resolution error, reported by the first
	// Analyze call.
	cfg       *dtest.Config
	pipe      *dtest.Pipeline
	prevStage [dtest.KindFourierMotzkin + 1]dtest.StageMetrics
	prevFM    dtest.FMMetrics
	cfgErr    error

	// budClass is the deterministic fingerprint of opts.Budget's count
	// limits, fixed at construction: degraded memo entries are served and
	// stored only under this class.
	budClass dtest.BudgetClass

	// pb builds each candidate's dependence problem into per-analyzer
	// scratch (system.Builder), so the memo-hot path does not allocate a
	// fresh Problem per pair. The built Problem is only live within one
	// analyzeCandidate call, which is what makes the reuse safe.
	pb system.Builder
	// pp runs the Extended GCD step into per-analyzer scratch
	// (system.Preprocessor): its TSystem is live within one analyzeFresh
	// call, which is what makes the reuse safe.
	pp system.Preprocessor
	// levels is usedLevels' scratch, live within one project or expand.
	levels []int

	// inflight is the singleflight layer over the full table, shared by all
	// worker views of one concurrent run; nil on the parent, which is also
	// the one-worker run's worker (the parent's flights field owns the
	// layer and workerView copies it here). A worker that misses every cache layer claims its key before
	// solving, so two workers never run the cascade for one canonical
	// problem at the same time.
	inflight *memo.InFlight[cached]

	// shared marks a worker view: its memo tables are the sharded tables
	// every worker inserts into, so inserts skip the per-insert Len sweep
	// behind the Unique* counters — the driver snapshots those from the
	// tables after the join.
	shared bool

	// Concurrent-driver state owned by the parent analyzer (nil/empty on
	// worker views): the shared in-flight layer, worker views cached across
	// AnalyzeAll calls (so their pipeline, builder, preprocessor and refiner
	// scratch stays warm instead of regrowing every call), and reusable
	// per-run buffers.
	flights *memo.InFlight[cached]
	views   []*Analyzer
	provBuf []provenance
	procBuf []bool
	ctrBuf  []stats.Counters
	seenPtr map[*int64]bool

	// run is the sequence number of the parent's current (or last)
	// AnalyzeAll run, copied into every worker view when a run starts; each
	// full-table insert is stamped with it (cached.stamp).
	run uint64
}

// New returns an analyzer with the given options.
func New(opts Options) *Analyzer {
	// More shards than cores keeps concurrent workers' inserts off one
	// shard mutex without noticeable memory cost; the cap bounds the
	// per-shard sweeps of Len and ShardLens.
	shards := min(4*runtime.GOMAXPROCS(0), 256)
	a := &Analyzer{
		opts:     opts,
		full:     memo.NewShardedTable[cached](shards),
		eq:       memo.NewShardedTable[system.GCDResult](shards),
		refiner:  depvec.NewRefiner(),
		budClass: opts.Budget.Class(),
	}
	cfg, err := dtest.ConfigByName(opts.Cascade)
	if err != nil {
		a.cfgErr = err
		return a
	}
	a.cfg = cfg
	a.pipe = a.newPipeline()
	return a
}

// newPipeline builds a pipeline over the analyzer's stage configuration,
// honoring the timing option and the per-problem budget.
func (a *Analyzer) newPipeline() *dtest.Pipeline {
	p := a.cfg.NewPipeline()
	p.SetTimed(a.opts.TimeCascade)
	p.SetBudget(a.opts.Budget)
	return p
}

// workerView returns a private analyzer view over the shared memo tables
// for one worker goroutine: options and the stage configuration are shared
// read-only; the pipeline (with its scratch), the key encoder, the builder,
// preprocessor and refiner scratch, and the counters are per-worker.
func (a *Analyzer) workerView() *Analyzer {
	wa := &Analyzer{opts: a.opts, full: a.full, eq: a.eq,
		refiner: depvec.NewRefiner(), cfg: a.cfg, cfgErr: a.cfgErr, budClass: a.budClass,
		inflight: a.flights, shared: true}
	if wa.cfg != nil {
		wa.pipe = wa.newPipeline()
	}
	return wa
}

// syncStageStats folds the pipeline's cumulative per-stage metrics — and its
// Fourier–Motzkin redundancy counters — into the counters as deltas since
// the last sync.
func (a *Analyzer) syncStageStats() {
	for k, prev := range a.prevStage {
		m := a.pipe.StageMetrics(dtest.Kind(k))
		a.Stats.StageConsulted[k] += m.Consulted - prev.Consulted
		a.Stats.StageDecided[k] += m.Decided - prev.Decided
		a.Stats.StageTimeNs[k] += int64(m.Time - prev.Time)
		a.prevStage[k] = m
	}
	fm := a.pipe.FMMetrics()
	a.Stats.FMDeduped += fm.Deduped - a.prevFM.Deduped
	a.Stats.FMTightened += fm.Tightened - a.prevFM.Tightened
	a.prevFM = fm
}

// ResetStats clears the counters but keeps the memo tables (matching the
// paper's idea of a table persisted across compilations).
func (a *Analyzer) ResetStats() { a.Stats = stats.Counters{} }

// MemoLen returns the total entry count over the analyzer's two memo
// tables (full and eq) — the size a long-lived analyzer's eviction policy
// measures against.
func (a *Analyzer) MemoLen() int {
	return a.full.Len() + a.eq.Len()
}

// EvictMemo drops every entry of the two shared memo tables, starting a
// fresh memoization epoch while keeping the analyzer itself (pipelines,
// encoders, worker views, traffic counters) warm. A long-lived analyzer
// calls this when MemoLen exceeds its memory bound; correctness is
// unaffected because evicted problems are simply re-solved, and
// count-budget verdicts are deterministic, so a re-solve reproduces the
// evicted entry byte for byte.
//
// The tables are reset in place, so worker views (which hold the concrete
// table objects) stay valid. Must not be called concurrently with an
// analysis run; the in-flight layer is empty between runs and is left
// alone.
func (a *Analyzer) EvictMemo() {
	a.full.Reset()
	a.eq.Reset()
}

// PipelineWorkers maps the public Options.Workers knob to a corpus-driver
// worker count: 0 means one worker, negative means "all cores" (the
// driver's 0), and a positive value passes through. The facade, the
// depserve service layer and the workload suite runner share this mapping
// so they cannot drift.
func PipelineWorkers(w int) int {
	switch {
	case w == 0:
		return 1
	case w < 0:
		return 0
	}
	return w
}

// Options returns the analyzer's configuration (a copy).
func (a *Analyzer) Options() Options { return a.opts }

// AnalyzeUnit analyzes every candidate pair of a lowered unit, in order on
// the calling goroutine (AnalyzeAll at one worker).
func (a *Analyzer) AnalyzeUnit(u *ir.Unit) ([]Result, error) {
	return a.AnalyzeAll(refs.Pairs(u), 1)
}

// AnalyzePair analyzes a single pair, classifying constants first.
func (a *Analyzer) AnalyzePair(p ir.Pair) (Result, error) {
	return a.AnalyzeCandidate(refs.Candidate{Pair: p, Class: refs.Classify(p.A.Ref, p.B.Ref)})
}

// AnalyzeCandidate analyzes one pre-classified candidate.
func (a *Analyzer) AnalyzeCandidate(c refs.Candidate) (Result, error) {
	var r Result
	err := a.analyzeCandidate(&c, &r, nil)
	return r, err
}

// provenance records where a result's verdict came from in scheduling-
// independent terms, so the concurrent driver can rewrite DecidedBy to
// exactly what a serial pass would have reported (see AnalyzeAll).
type provenance struct {
	// key is a stable instance of the canonical full-problem key (nil for
	// constant pairs, GCD-decided pairs, or when memoization is off): the
	// interned key handed back by the cache layer that answered, or the
	// owned clone made for the insert. The post-pass resolves it against
	// the final table and replays the serial first-occurrence rule on key
	// *identity*, so no per-pair key strings are materialized.
	key memo.Key
	// fresh is the DecidedBy a fresh (uncached) analysis of this canonical
	// problem reports; for a cache hit it is read from the cached entry.
	fresh DecidedBy
	// cacheable marks results that entered (or were served from) the memo
	// table. Clock-tripped and cancelled verdicts are not cached, so the
	// post-pass must not treat their keys as seen — a later occurrence of
	// the same problem re-analyzes fresh in a serial pass too.
	cacheable bool
}

// analyzeCandidate analyzes one pre-classified candidate into out, which
// must be the zero Result, optionally recording provenance for the
// concurrent driver. The candidate and the result stay where the caller
// keeps them: nothing on the way copies either whole.
func (a *Analyzer) analyzeCandidate(c *refs.Candidate, out *Result, prov *provenance) error {
	if a.cfgErr != nil {
		return a.cfgErr
	}
	a.Stats.Pairs++
	p := &c.Pair
	switch c.Class {
	case refs.ConstEqual:
		a.Stats.Constant++
		a.Stats.Dependent++
		out.Pair = *p
		out.Outcome, out.Exact, out.DecidedBy = dtest.Dependent, true, ByConstant
		if a.opts.DirectionVectors {
			// A constant-subscript conflict recurs in every iteration pair:
			// the dependence holds under every direction (the empty vector
			// when the pair shares no loops).
			all := make(depvec.Vector, p.Common)
			for i := range all {
				all[i] = depvec.Any
			}
			out.Vectors = []depvec.Vector{all}
			a.Stats.Vectors++
		}
		return nil
	case refs.ConstDiffer:
		a.Stats.Constant++
		a.Stats.Independent++
		out.Pair = *p
		out.Outcome, out.Exact, out.DecidedBy = dtest.Independent, true, ByConstant
		return nil
	}

	prob, err := a.pb.Build(p)
	if err != nil {
		if !errors.Is(err, linalg.ErrOverflow) {
			return err
		}
		// A subscript constant or coefficient past int64: the same sound
		// inexact verdict as an overflow in the Extended GCD step. With no
		// problem there is no key, so the verdict is not memoized and every
		// occurrence, at every worker count, reports ByTest.
		a.tallyVerdict(dtest.Unknown)
		out.Pair = *p
		out.Outcome, out.DecidedBy = dtest.Unknown, ByTest
		return nil
	}

	var fullKey memo.Key
	if a.opts.Memoize {
		// The steady-state fast path: scratch-backed problem build and key
		// encode, one lock-free probe of the shared table — zero
		// allocations on a hit (gated by TestMemoHitZeroAllocs and
		// TestAnalyzeAllMemoHotAllocs). The probe returns the table's
		// interned key, which provenance records in place of the encoder's
		// scratch.
		fullKey = a.enc.EncodeFull(prob, a.opts.ImprovedMemo)
		a.Stats.FullLookups++
		if stored, hit, ok := a.full.LookupStored(fullKey); ok && hit.usable(a.budClass) {
			a.serveHit(prob, p, stored, &hit, prov, out)
			return nil
		}
		if a.inflight != nil && !a.peekGCDIndependent(prob) {
			// Every cache layer missed: claim the key so only one worker
			// solves this canonical problem at a time. Losers block until
			// the winner publishes, then adopt its verdict straight off the
			// flight. The winner inserts before it publishes and forgets
			// its flight right after. A winner that could not cache (clock
			// trip, cancellation) publishes ok=false and the waiters
			// re-claim: in a serial pass each occurrence of such a problem
			// solves fresh too.
			for {
				f, leader := a.inflight.Claim(fullKey)
				if leader {
					// Between this worker's table miss and its claim, an
					// earlier leader may have inserted, finished and
					// retired its flight: re-probe before solving again,
					// and on a hit hand the entry to any waiters.
					if stored, hit, ok := a.full.LookupStored(fullKey); ok && hit.usable(a.budClass) {
						a.inflight.Finish(f, stored, hit, true)
						a.inflight.Forget(fullKey)
						a.serveHit(prob, p, stored, &hit, prov, out)
						return nil
					}
					// The flight's own key copy becomes the table's key.
					fin := a.solveAndCache(prob, p, fullKey, f.Key(), prov, out)
					a.inflight.Finish(f, fin.key, fin.val, fin.ok)
					if fin.ok {
						a.inflight.Forget(fin.key)
					}
					return nil
				}
				a.Stats.InflightWaits++
				ik, cv, ok := f.Wait()
				if !ok {
					continue
				}
				if !cv.usable(a.budClass) {
					break
				}
				a.Stats.InflightAdopts++
				a.serveHit(prob, p, ik, &cv, prov, out)
				return nil
			}
		}
	}

	a.solveAndCache(prob, p, fullKey, nil, prov, out)
	return nil
}

// peekGCDIndependent reports whether the eq table already proves this
// problem independent by Extended GCD alone. GCD-independent verdicts are
// never stored in the full table, so every occurrence of such a problem
// misses every candidate-level cache layer and would otherwise claim the
// in-flight dedup lock — paying a map entry, a channel, and a key rendering
// per occurrence to guard a "solve" that is one lock-free eq-table read.
// The peek is counter-silent: analyzeFresh re-encodes and does the counted
// lookup, so the stats are the same as without the peek.
func (a *Analyzer) peekGCDIndependent(prob *system.Problem) bool {
	// The encoder's eq buffer is separate from its full buffer, so the
	// caller's still-pending fullKey stays valid across this encode.
	eqKey := a.enc.EncodeEq(prob, a.opts.ImprovedMemo)
	v, ok := a.eq.Lookup(eqKey)
	return ok && v == system.GCDIndependent
}

// serveHit counts a full-table hit (a probe's, or one adopted off another
// worker's flight), expands the cached entry for the requesting pair into
// out and records provenance; sk is the entry's stable interned key. An
// entry from before this run answers every occurrence of its problem, the
// first included, as ByCache, so only this run's own entries leave a key
// for the post-pass.
func (a *Analyzer) serveHit(prob *system.Problem, p *ir.Pair, sk memo.Key, hit *cached, prov *provenance, out *Result) {
	a.Stats.FullHits++
	if prov != nil && hit.stamp >= a.run {
		prov.key = sk
		prov.fresh = DecidedBy(hit.res.DecidedBy)
		prov.cacheable = true
	}
	a.expand(hit, prob, out)
	out.Pair = *p
	out.DecidedBy = ByCache
	a.tallyVerdict(out.Outcome)
}

// flightResult is what a solve publishes to in-flight waiters: the interned
// key and cached value when the verdict entered the memo table, ok=false
// when it was not cacheable.
type flightResult struct {
	key memo.Key
	val cached
	ok  bool
}

// solveAndCache runs the fresh analysis for a candidate that missed every
// cache layer into res and stores the verdict. owned, when non-nil, is a
// stable copy of fullKey (the in-flight leader's) to store instead of a
// fresh clone.
func (a *Analyzer) solveAndCache(prob *system.Problem, p *ir.Pair, fullKey, owned memo.Key, prov *provenance, res *Result) flightResult {
	res.Pair = *p
	a.analyzeFresh(prob, res)
	if prov != nil {
		prov.fresh = res.DecidedBy
	}
	var fin flightResult
	// GCD-independent verdicts live only in the without-bounds table (the
	// paper's split: the bounds table holds the cases that actually reached
	// the exact tests). Clock-tripped and cancelled verdicts are never
	// cached: whether they trip depends on scheduling, not on the problem,
	// so caching them would leak one run's timing into another's answers.
	if a.opts.Memoize && res.DecidedBy != ByGCD && cacheableTrip(res.Trip) {
		// fullKey aliases the encoder's scratch; the tables retain their
		// keys, so insert an owned copy.
		ck := owned
		if ck == nil {
			ck = fullKey.Clone()
		}
		cv := project(res, a.usedLevels(prob))
		cv.budgetClass = a.budClass
		cv.stamp = a.run
		// Insert hands back the table's key, interned by an earlier insert
		// of the same problem, so provenance records one instance per key.
		ck = a.full.Insert(ck, cv)
		if !a.shared {
			a.Stats.UniqueFull = a.full.Len()
		}
		if prov != nil {
			prov.key = ck
			prov.cacheable = true
		}
		fin = flightResult{key: ck, val: cv, ok: true}
	} else if prov != nil && a.opts.Memoize && res.DecidedBy != ByGCD {
		// Non-cacheable verdict: the post-pass still needs a stable key to
		// resolve this occurrence against cacheable ones of the same
		// problem, so clone it here (rare: only clock/cancel trips).
		prov.key = fullKey.Clone()
	}
	a.tallyVerdict(res.Outcome)
	return fin
}

// cacheableTrip reports whether a verdict with this trip reason may enter
// the memo table: untripped and count-tripped verdicts are deterministic;
// deadline and cancellation trips are not.
func cacheableTrip(t dtest.TripReason) bool {
	return t != dtest.TripDeadline && t != dtest.TripCancelled
}

// analyzeFresh runs GCD preprocessing and the tests on a cache miss,
// writing the verdict into out, whose vectors and distances must be empty.
func (a *Analyzer) analyzeFresh(prob *system.Problem, out *Result) {
	// GCD (without-bounds) memoization: the Extended GCD test ignores
	// bounds, so its verdict is reusable across bound variations.
	var eqKey memo.Key
	gcdKnown := false
	var gcdRes system.GCDResult
	if a.opts.Memoize {
		// The encoder's eq buffer is separate from its full buffer, so the
		// caller's still-pending fullKey stays valid across this encode.
		eqKey = a.enc.EncodeEq(prob, a.opts.ImprovedMemo)
		a.Stats.EqLookups++
		if v, ok := a.eq.Lookup(eqKey); ok {
			a.Stats.EqHits++
			gcdKnown, gcdRes = true, v
		}
	}
	if gcdKnown && gcdRes == system.GCDIndependent {
		a.Stats.GCDIndependent++
		out.Outcome, out.Exact, out.DecidedBy = dtest.Independent, true, ByGCD
		return
	}

	res, ts, err := a.pp.Preprocess(prob)
	if err != nil {
		// Overflow in exact arithmetic: assume dependence, inexactly.
		out.Outcome, out.DecidedBy = dtest.Unknown, ByTest
		return
	}
	if a.opts.Memoize && !gcdKnown {
		a.eq.Insert(eqKey.Clone(), res)
		if !a.shared {
			a.Stats.UniqueEq = a.eq.Len()
		}
	}
	if res == system.GCDIndependent {
		a.Stats.GCDIndependent++
		out.Outcome, out.Exact, out.DecidedBy = dtest.Independent, true, ByGCD
		return
	}

	if !a.opts.DirectionVectors {
		r := a.pipe.Run(ts)
		a.Stats.Tests[int(r.Kind)]++
		if r.Trip != dtest.TripNone {
			a.Stats.BudgetTrips[int(r.Trip)]++
		}
		a.syncStageStats()
		out.Outcome, out.Exact, out.DecidedBy, out.Kind, out.Trip = r.Outcome, r.Exact, ByTest, r.Kind, r.Trip
		return
	}

	// Direction-vector analysis: the first observed test is the base
	// (*,…,*) cascade run, which is what Table 1 counts. The refinement
	// subproblems are not memoized on their own: the full table already
	// caches the whole canonical problem with its vectors, and the in-flight
	// layer keeps two workers from refining it at once, so a walk runs once
	// per canonical problem per memo epoch.
	var baseKind dtest.Kind
	first := true
	sum := depvec.ComputeObserved(ts, depvec.Options{
		PruneUnused:   a.opts.PruneUnused,
		PruneDistance: a.opts.PruneDistance,
		Pipeline:      a.pipe,
		Refiner:       a.refiner,
	}, func(r dtest.Result) {
		if first {
			baseKind = r.Kind
			a.Stats.Tests[int(r.Kind)]++
			first = false
		}
		a.Stats.DirTests[int(r.Kind)]++
		if r.Outcome == dtest.Independent {
			a.Stats.TestIndependent[int(r.Kind)]++
		}
		if r.Trip != dtest.TripNone {
			a.Stats.BudgetTrips[int(r.Trip)]++
		}
	})
	a.Stats.TrailPushes += sum.TrailPushes
	a.Stats.TrailPops += sum.TrailPops
	if sum.TrailMaxDepth > a.Stats.TrailMaxDepth {
		a.Stats.TrailMaxDepth = sum.TrailMaxDepth
	}
	out.Exact, out.Kind, out.DecidedBy = sum.Exact, baseKind, ByTest
	out.Vectors, out.Distances = sum.Vectors, sum.Distances
	if sum.Dependent {
		out.Outcome = dtest.Dependent
		if !sum.Exact {
			// An inexact "dependent" is Unknown when a test's structural
			// limits gave up, Maybe when a budget cut the refinement short.
			// Both attribute the trip; only budgetary trips promise that a
			// bigger budget could still decide the pair.
			out.Outcome = dtest.Unknown
			if sum.Trip != dtest.TripNone {
				if sum.Trip.Budgetary() {
					out.Outcome = dtest.Maybe
				}
				out.Trip = sum.Trip
			}
		}
	} else {
		out.Outcome = dtest.Independent
		if sum.ImplicitBB {
			out.DecidedBy = ByDirections
			a.Stats.ImplicitBB++
		}
	}
	a.Stats.Vectors += len(sum.Vectors)
	a.syncStageStats()
}

// tallyVerdict updates the verdict counters.
func (a *Analyzer) tallyVerdict(o dtest.Outcome) {
	switch o {
	case dtest.Independent:
		a.Stats.Independent++
	case dtest.Dependent:
		a.Stats.Dependent++
	case dtest.Maybe:
		a.Stats.Maybe++
	default:
		a.Stats.Unknown++
	}
}
