// Package exactdep is an exact data dependence analyzer for loop nests,
// reproducing Maydan, Hennessy & Lam, "Efficient and Exact Data Dependence
// Analysis" (PLDI 1991).
//
// Dependence testing decides whether two array references in a loop nest can
// touch the same memory location in different iterations — the core question
// behind loop parallelization. The problem is equivalent to integer
// programming, but this analyzer decides practically arising cases exactly
// and cheaply with the paper's recipe:
//
//   - a cascade of special-case exact tests — Extended GCD preprocessing,
//     the Single Variable Per Constraint test, the Acyclic test, the Loop
//     Residue test, and a Fourier–Motzkin backup with integer heuristics;
//   - memoization of canonicalized problems, so repeated subscript patterns
//     are tested once;
//   - hierarchical direction/distance vector computation with unused-
//     variable and distance pruning;
//   - symbolic unknowns (loop-invariant scalars read from input) folded into
//     the system with no loss of exactness.
//
// # Quick start
//
//	report, err := exactdep.AnalyzeSource(`
//	for i = 1 to 100
//	  a[i+1] = a[i] + 3
//	end
//	`, exactdep.Options{DirectionVectors: true, PruneUnused: true, PruneDistance: true})
//	if err != nil { ... }
//	for _, r := range report.Results {
//	    fmt.Println(r.Pair, r.Outcome, r.Vectors)
//	}
//
// The input language is a small Fortran-flavoured loop language; see Parse.
// Programs can also be assembled directly from the IR types (Loop, Ref,
// Nest) and analyzed pair by pair with Analyzer.AnalyzePair.
package exactdep

import (
	"context"

	"exactdep/internal/core"
	"exactdep/internal/ddg"
	"exactdep/internal/depvec"
	"exactdep/internal/dtest"
	"exactdep/internal/ir"
	"exactdep/internal/lang"
	"exactdep/internal/opt"
	"exactdep/internal/parallel"
	"exactdep/internal/refs"
	"exactdep/internal/stats"
	"exactdep/internal/transform"
)

// Core IR types, re-exported for building problems programmatically.
type (
	// Expr is an affine integer expression over loop indices and symbols.
	Expr = ir.Expr
	// Loop is one normalized loop level with affine bounds.
	Loop = ir.Loop
	// Ref is a single array reference.
	Ref = ir.Ref
	// RefKind distinguishes reads from writes.
	RefKind = ir.RefKind
	// Site is a reference together with its enclosing loop stack.
	Site = ir.Site
	// Pair is a candidate dependence pair.
	Pair = ir.Pair
	// Nest is a tower-shaped loop nest helper for building pairs.
	Nest = ir.Nest
	// Unit is a lowered program: all reference sites plus symbols.
	Unit = ir.Unit
	// Program is a parsed source unit (see Parse).
	Program = lang.Program
	// For is a parsed loop statement (the transformation entry points
	// FuseLoops and DistributeLoop operate on these).
	For = lang.For
	// Stmt is any parsed statement.
	Stmt = lang.Stmt
)

// Analysis types.
type (
	// Options configures the analyzer (memoization, direction vectors,
	// pruning).
	Options = core.Options
	// Result is the verdict for one pair.
	Result = core.Result
	// Analyzer runs the full pipeline and accumulates statistics.
	Analyzer = core.Analyzer
	// MemoStats is the memo-hierarchy introspection snapshot
	// (Analyzer.MemoStats, depanalyze -memostats).
	MemoStats = core.MemoStats
	// Counters is the statistics block in the shape of the paper's tables.
	Counters = stats.Counters
	// Outcome is a test verdict (Independent / Dependent / Unknown / Maybe).
	Outcome = dtest.Outcome
	// Budget bounds the work any single pair may spend in the expensive end
	// of the cascade (Options.Budget); the zero value is unlimited.
	Budget = dtest.Budget
	// TripReason names the budget limit that degraded a Maybe verdict
	// (Result.Trip).
	TripReason = dtest.TripReason
	// TestKind identifies the cascade test that decided.
	TestKind = dtest.Kind
	// DirectionVector is a dependence direction vector, outermost loop
	// first.
	DirectionVector = depvec.Vector
	// Direction is one component of a direction vector.
	Direction = depvec.Direction
	// Distance is a known-constant dependence distance at one level.
	Distance = depvec.Distance
	// Candidate is an enumerated pair with its constant classification.
	Candidate = refs.Candidate
)

// Verdicts. Unknown is a structural limitation of the tests; Maybe is a
// verdict degraded by a resource budget, deadline, or cancellation
// (conservatively "assume dependent", with Result.Trip naming the limit).
const (
	Independent = dtest.Independent
	Dependent   = dtest.Dependent
	Unknown     = dtest.Unknown
	Maybe       = dtest.Maybe
)

// Budget trip reasons (Result.Trip). The first five are budgetary — a
// caller-chosen Budget limit, the clock, or cancellation, where a re-run
// with a larger budget may finish (TripReason.Budgetary reports this).
// TripFMConstraintCap is structural: the Fourier–Motzkin engine's own cap
// on the constraint blow-up of a single elimination round, tripped only by
// adversarial inputs regardless of budget.
const (
	TripNone            = dtest.TripNone
	TripFMEliminations  = dtest.TripFMEliminations
	TripBranchNodes     = dtest.TripBranchNodes
	TripConstraints     = dtest.TripConstraints
	TripDeadline        = dtest.TripDeadline
	TripCancelled       = dtest.TripCancelled
	TripFMConstraintCap = dtest.TripFMConstraintCap
)

// Reference kinds.
const (
	Read  = ir.Read
	Write = ir.Write
)

// Cascade test kinds.
const (
	TestSVPC           = dtest.KindSVPC
	TestAcyclic        = dtest.KindAcyclic
	TestLoopResidue    = dtest.KindLoopResidue
	TestFourierMotzkin = dtest.KindFourierMotzkin
)

// Direction components.
const (
	DirAny     = depvec.Any
	DirLess    = depvec.Less
	DirEqual   = depvec.Equal
	DirGreater = depvec.Greater
)

// How a verdict was reached.
const (
	ByConstant   = core.ByConstant
	ByGCD        = core.ByGCD
	ByTest       = core.ByTest
	ByCache      = core.ByCache
	ByDirections = core.ByDirections
)

// Expression constructors, re-exported from the IR.
var (
	// NewConst returns the constant expression c.
	NewConst = ir.NewConst
	// NewVar returns the expression 1·name.
	NewVar = ir.NewVar
	// NewTerm returns the expression coeff·name.
	NewTerm = ir.NewTerm
)

// Parse parses a program in the analyzer's loop language:
//
//	program name          # optional
//	read(n)               # loop-invariant symbolic unknown
//	x = 100               # scalar assignments (folded by the prepass)
//	for i = 1 to n        # or: do i = 1, n
//	  a[i][2*i+1] = a[i-1][2*i] + 3
//	end
func Parse(src string) (*Program, error) { return lang.Parse(src) }

// Lower runs the optimizer prepass (constant propagation, forward and
// induction-variable substitution, symbolic unknowns) and extracts every
// array reference site.
func Lower(p *Program) *Unit { return opt.Lower(p) }

// Pairs enumerates the candidate dependence pairs of a lowered unit,
// including each write paired with itself (its across-iteration output
// dependence).
func Pairs(u *Unit) []Candidate { return refs.Pairs(u) }

// PairsNoSelf enumerates distinct-reference pairs only (the paper's
// counting unit in the evaluation).
func PairsNoSelf(u *Unit) []Candidate {
	return refs.PairsOpts(u, refs.Options{NoSelfPairs: true})
}

// AnnotateSourceUnit is AnnotateSource plus private(...) clauses for the
// parallelizable loops' body scalars.
func AnnotateSourceUnit(prog *Program, rep *ParallelReport, u *Unit) string {
	return parallel.AnnotateSourceUnit(prog, rep, u)
}

// NewAnalyzer returns an analyzer with the given options.
func NewAnalyzer(opts Options) *Analyzer { return core.New(opts) }

// Report is the result of analyzing one source unit.
type Report struct {
	Unit    *Unit
	Results []Result
	// Stats is a snapshot of the analyzer counters after the run.
	Stats Counters
}

// Degraded returns the results whose verdict is not definitive: Maybe
// verdicts cut short by a budget, deadline, or cancellation (Result.Trip
// names the limit) and structurally inexact Unknowns. These are the pairs a
// client must treat as dependent without proof — the ones worth re-running
// under a larger budget.
func (r *Report) Degraded() []Result {
	var out []Result
	for _, res := range r.Results {
		if !res.Exact {
			out = append(out, res)
		}
	}
	return out
}

// AnalyzeSource parses, lowers, and analyzes a whole program.
func AnalyzeSource(src string, opts Options) (*Report, error) {
	return AnalyzeSourceContext(context.Background(), src, opts)
}

// AnalyzeSourceContext is AnalyzeSource honoring a context: parse and lower,
// then analyze as AnalyzeUnitContext does.
func AnalyzeSourceContext(ctx context.Context, src string, opts Options) (*Report, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return AnalyzeUnitContext(ctx, opt.Lower(prog), opts)
}

// AnalyzeUnit analyzes an already-lowered unit with a fresh analyzer.
func AnalyzeUnit(u *Unit, opts Options) (*Report, error) {
	return AnalyzeUnitContext(context.Background(), u, opts)
}

// AnalyzeUnitContext analyzes an already-lowered unit with a fresh analyzer,
// honoring the context and every Options knob: Options.Workers sizes the
// concurrent driver (0 one worker on the calling goroutine, negative
// GOMAXPROCS), Options.Budget bounds
// per-pair work, and the context's deadline/cancellation degrade remaining
// pairs to sound Maybe verdicts instead of aborting (see
// Analyzer.AnalyzeAllContext). The report always covers every candidate
// pair; inspect Report.Degraded or Stats.CancelledPairs for the cut-short
// ones. Invalid options (unknown cascade, negative budget) are rejected up
// front with the shared Options.Validate error.
func AnalyzeUnitContext(ctx context.Context, u *Unit, opts Options) (*Report, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	a := core.New(opts)
	res, err := a.AnalyzeAllContext(ctx, refs.Pairs(u), core.PipelineWorkers(opts.Workers))
	if err != nil {
		return nil, err
	}
	return &Report{Unit: u, Results: res, Stats: a.Stats}, nil
}

// Loop-parallelism reporting (the application the paper's introduction
// motivates): a loop parallelizes iff no dependence is carried by it.
type (
	// ParallelReport classifies every loop of a unit as parallel or serial.
	ParallelReport = parallel.Report
	// LoopInfo is one loop's verdict with its carried dependences.
	LoopInfo = parallel.LoopInfo
)

// Parallelize analyzes a unit with direction vectors and reports which
// loops can run their iterations concurrently. Invalid options are
// rejected with the shared Options.Validate error.
func Parallelize(u *Unit, opts Options) (*ParallelReport, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return parallel.Analyze(u, opts)
}

// ParallelizeResults derives the report from precomputed pair results.
func ParallelizeResults(u *Unit, results []Result) *ParallelReport {
	return parallel.FromResults(u, results)
}

// AnnotateSource re-renders a program with every parallelizable loop marked
// `parfor` — a source-to-source parallelizer's output.
func AnnotateSource(prog *Program, rep *ParallelReport) string {
	return parallel.AnnotateSource(prog, rep)
}

// MergeVectors minimizes a direction-vector set, collapsing complete
// {<,=,>} triples into '*' components.
var MergeVectors = depvec.Merge

// Loop distribution (fission) by dependence-graph π-blocks, and fusion.
var (
	// DistributeLoop splits one flat loop into a sequence of loops, one per
	// π-block, in dependence order.
	DistributeLoop = transform.DistributeLoop
	// DistributeProgram applies DistributeLoop to every top-level flat loop.
	DistributeProgram = transform.DistributeProgram
	// FuseLoops merges two identical-header flat loops when no
	// fusion-preventing dependence exists.
	FuseLoops = transform.FuseLoops
)

// Statement-level dependence graph (flow/anti/output edges, π-blocks).
type (
	// DepGraph is the statement-level data dependence graph.
	DepGraph = ddg.Graph
	// DepEdge is one dependence edge with its oriented direction vector.
	DepEdge = ddg.Edge
	// DepEdgeKind classifies edges as flow, anti, or output.
	DepEdgeKind = ddg.EdgeKind
)

// Dependence edge kinds.
const (
	FlowDep   = ddg.Flow
	AntiDep   = ddg.Anti
	OutputDep = ddg.Output
)

// BuildDepGraph constructs the dependence graph from analysis results.
func BuildDepGraph(u *Unit, results []Result) *DepGraph {
	return ddg.Build(u, results)
}

// DistanceVec is a constant dependence distance per loop level, the input
// to skewing-based transformations.
type DistanceVec = transform.DistanceVector

// FullDistanceVector assembles a complete distance vector from a result's
// per-level constant distances. ok is false unless every common level's
// distance is known (requires Options.PruneDistance). It reads the pair's
// common depth, so a result served through a corpus store's file index
// needs UnitResult.LoadPairs first; without its pair, ok is false.
func FullDistanceVector(r Result) (DistanceVec, bool) {
	n := r.Pair.Common
	if len(r.Distances) != n || n == 0 {
		return nil, false
	}
	out := make(DistanceVec, n)
	seen := 0
	for _, d := range r.Distances {
		if d.Level < 0 || d.Level >= n {
			return nil, false
		}
		out[d.Level] = d.Value
		seen++
	}
	return out, seen == n
}

// Loop skewing and distance-vector transformations.
var (
	// Skew applies d[target] += factor·d[source] to every distance vector.
	Skew = transform.Skew
	// PermuteDistances applies a loop permutation to distance vectors.
	PermuteDistances = transform.PermuteDistances
	// AllLexPositive checks the legality condition for unimodular
	// transformations on distances.
	AllLexPositive = transform.AllLexPositive
	// ParallelLevels reports which levels carry no dependence.
	ParallelLevels = transform.ParallelLevels
	// WavefrontSkew finds a skew factor making a 2-deep nest's inner loop
	// parallel after skew + interchange.
	WavefrontSkew = transform.WavefrontSkew
)

// Loop-transformation legality from direction vectors.
var (
	// NormalizeVector orients a vector lexicographically non-negative.
	NormalizeVector = transform.Normalize
	// InterchangeLegal reports whether a loop permutation preserves all
	// dependences.
	InterchangeLegal = transform.InterchangeLegal
	// ReversalLegal reports whether reversing one loop level is safe.
	ReversalLegal = transform.ReversalLegal
	// ParallelizableLevel reports whether a level carries no dependence.
	ParallelizableLevel = transform.ParallelizableLevel
	// InterchangeToParallelize searches for a permutation exposing an
	// outermost parallel loop.
	InterchangeToParallelize = transform.InterchangeToParallelize
)
