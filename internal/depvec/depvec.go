// Package depvec computes dependence direction and distance vectors
// (Maydan, Hennessy & Lam §6) on top of the exact test cascade. It follows
// the hierarchical scheme of Burke and Cytron — test (*,…,*), then refine
// each '*' into '<', '=', '>' while dependence persists — with the paper's
// two pruning optimizations: unused loop variables keep '*' without any
// testing, and constant GCD-derived distances fix their direction outright.
//
// The refinement also yields the paper's implicit branch-and-bound: a pair
// whose base test is (possibly inexactly) dependent but whose every full
// direction vector is refuted is in fact independent — the four PERFECT
// cases with real dependence distance strictly between 0 and 1.
package depvec

import (
	"exactdep/internal/dtest"
	"exactdep/internal/system"
)

// Direction is one component of a direction vector.
type Direction byte

const (
	// Any is the unrefined '*' direction.
	Any Direction = '*'
	// Less is '<': the first reference's iteration precedes the second's.
	Less Direction = '<'
	// Equal is '=': both references touch the location in the same iteration.
	Equal Direction = '='
	// Greater is '>': the first reference's iteration follows the second's.
	Greater Direction = '>'
)

// Vector is a direction vector over the common loops, outermost first.
type Vector []Direction

// AppendText appends the vector in the paper's "(<, =, *)" notation to dst.
func (v Vector) AppendText(dst []byte) []byte {
	dst = append(dst, '(')
	for i, d := range v {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, byte(d))
	}
	return append(dst, ')')
}

// String renders the vector in the paper's "(<, =, *)" notation.
func (v Vector) String() string { return string(v.AppendText(nil)) }

// Clone returns a copy of the vector.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

// Merge minimizes a vector set by repeatedly collapsing triples that differ
// only in one component covering all of '<', '=', '>' into a single '*'
// vector (e.g. (<,<),(<,=),(<,>) → (<,*)). The result denotes the same set
// of directions in fewer vectors — the compact form compilers report.
func Merge(vs []Vector) []Vector {
	set := map[string]bool{}
	var order []string
	for _, v := range vs {
		k := string(bytesOf(v))
		if !set[k] {
			set[k] = true
			order = append(order, k)
		}
	}
	changed := true
	for changed {
		changed = false
		for _, k := range order {
			if !set[k] {
				continue
			}
			for pos := 0; pos < len(k); pos++ {
				if k[pos] == byte(Any) {
					continue
				}
				k1 := replaceAt(k, pos, byte(Less))
				k2 := replaceAt(k, pos, byte(Equal))
				k3 := replaceAt(k, pos, byte(Greater))
				if set[k1] && set[k2] && set[k3] {
					delete(set, k1)
					delete(set, k2)
					delete(set, k3)
					merged := replaceAt(k, pos, byte(Any))
					if !set[merged] {
						set[merged] = true
						order = append(order, merged)
					}
					changed = true
				}
			}
		}
	}
	var out []Vector
	for _, k := range order {
		if set[k] {
			v := make(Vector, len(k))
			for i := 0; i < len(k); i++ {
				v[i] = Direction(k[i])
			}
			out = append(out, v)
		}
	}
	return out
}

func bytesOf(v Vector) []byte {
	out := make([]byte, len(v))
	for i, d := range v {
		out[i] = byte(d)
	}
	return out
}

func replaceAt(s string, pos int, b byte) string {
	bs := []byte(s)
	bs[pos] = b
	return string(bs)
}

// Distance is a known-constant dependence distance at one loop level.
type Distance struct {
	Level int
	Value int64
}

// Options selects the pruning optimizations.
type Options struct {
	// PruneUnused keeps '*' for loop indices that appear in no subscript
	// and no transitive bound, without testing them (§6).
	PruneUnused bool
	// PruneDistance fixes the direction of any level whose GCD-derived
	// distance is constant (§6).
	PruneDistance bool
	// Pipeline, when non-nil, runs every cascade invocation through this
	// engine (reusing its scratch and feeding its per-stage cost metrics)
	// instead of a throwaway dtest.Solve. The analyzer passes its worker's
	// pipeline here so direction tests are cost-accounted like base tests.
	Pipeline *dtest.Pipeline
	// Refiner, when non-nil, supplies the reusable refinement workspace
	// (direction-row arena and per-level buffers) so a warm analysis
	// allocates nothing per refinement node. nil uses a throwaway.
	Refiner *Refiner
}

// Refiner is the reusable workspace of the clone-free refinement walk: the
// arena that backs pushed direction rows, the per-level direction and
// vector buffers, and the buffers the walk collects its output in (the
// surviving vectors, flat, and the constant distances). One Refiner serves
// many ComputeObserved calls (the analyzer keeps one per worker); it is not
// safe for concurrent use.
type Refiner struct {
	arena system.Scratch
	fixed []Direction
	cur   Vector
	// vecs holds the surviving vectors back to back, nvec of them, each
	// the walk's number of levels long.
	vecs  []Direction
	nvec  int
	dists []Distance
}

// NewRefiner returns an empty Refiner; buffers grow on first use.
func NewRefiner() *Refiner { return &Refiner{} }

// reset sizes the buffers for an analysis over the given number of levels:
// fixed zeroed, cur all Any, no vectors or distances collected.
func (rf *Refiner) reset(levels int) {
	if cap(rf.fixed) < levels {
		rf.fixed = make([]Direction, levels)
		rf.cur = make(Vector, levels)
	}
	rf.fixed = rf.fixed[:levels]
	rf.cur = rf.cur[:levels]
	for i := 0; i < levels; i++ {
		rf.fixed[i] = 0
		rf.cur[i] = Any
	}
	rf.vecs, rf.nvec, rf.dists = rf.vecs[:0], 0, rf.dists[:0]
}

// emit records the current vector as a surviving one.
func (rf *Refiner) emit() {
	rf.vecs = append(rf.vecs, rf.cur...)
	rf.nvec++
}

// vectors copies the surviving vectors out of the workspace: one slab and
// one slice of vectors carved from it, nil when none survived.
func (rf *Refiner) vectors() []Vector {
	if rf.nvec == 0 {
		return nil
	}
	n := len(rf.cur)
	slab := append([]Direction(nil), rf.vecs...)
	out := make([]Vector, rf.nvec)
	for k := range out {
		out[k] = Vector(slab[k*n : (k+1)*n : (k+1)*n])
	}
	return out
}

// distances copies the constant distances out of the workspace, nil when
// there are none.
func (rf *Refiner) distances() []Distance {
	if len(rf.dists) == 0 {
		return nil
	}
	return append([]Distance(nil), rf.dists...)
}

// Summary is the direction-vector analysis result for one pair.
type Summary struct {
	// Dependent is the final verdict after refinement (which may override
	// an inexact base "dependent" — the implicit branch-and-bound).
	Dependent bool
	// Vectors lists every direction vector under which the references
	// depend. Pruned levels show '*' (unused) or their fixed direction.
	Vectors []Vector
	// Distances lists the levels with known constant distance.
	Distances []Distance
	// TestsRun counts cascade invocations, the quantity of Tables 4 and 5.
	TestsRun int
	// Exact is false if any cascade invocation returned an inexact verdict
	// (Unknown, or Maybe under a resource budget).
	Exact bool
	// Trip is the first budget limit that degraded a cascade invocation
	// (dtest.TripNone when none did). It is cleared when the implicit
	// branch-and-bound later proves exact independence: a budget trip only
	// forces descent, and a subtree with no surviving vector was refuted by
	// exact tests alone.
	Trip dtest.TripReason
	// ImplicitBB marks pairs proven independent only by refuting every
	// direction vector.
	ImplicitBB bool
	// TrailPushes and TrailPops count direction constraints pushed onto and
	// popped off the scratch system's trail; they match when the walk
	// completes. TrailMaxDepth is the deepest simultaneous stack of pushed
	// directions (≤ the number of refinable levels).
	TrailPushes, TrailPops, TrailMaxDepth int
}

// note folds one cascade verdict into the exactness/trip summary. The first
// trip is recorded, but a budgetary trip (a Budget limit, the clock, or
// cancellation — "re-run with more and the analysis may finish") takes
// precedence over a structural one (a cap of the test itself): the pair's
// verdict must be Maybe if *any* subproblem was budget-limited.
func (s *Summary) note(r dtest.Result) {
	if r.Exact {
		return
	}
	s.Exact = false
	if r.Trip == dtest.TripNone {
		return
	}
	if s.Trip == dtest.TripNone || (!s.Trip.Budgetary() && r.Trip.Budgetary()) {
		s.Trip = r.Trip
	}
}

// ComputeObserved runs the hierarchical direction vector analysis. onTest,
// when non-nil, observes every cascade invocation (for the experiment
// counters).
//
// The refinement walks ts itself: each tree node pushes its direction
// constraint onto the system's trail (system.TSystem.PushDirection), tests,
// recurses, and pops — one scratch system DFS-style instead of a deep clone
// per node, which on a d-level nest eliminates O(3^d) copies. ts is mutated
// during the call and restored before it returns. The walk collects its
// output in the Refiner, so a Summary costs at most one []Direction, one
// []Vector and one []Distance however many vectors survive.
// ComputeReference retains the clone-based walk as a differential oracle.
func ComputeObserved(ts *system.TSystem, opts Options, onTest func(dtest.Result)) Summary {
	rf := opts.Refiner
	if rf == nil {
		rf = NewRefiner()
	}
	sum := refine(ts, opts, rf, onTest)
	sum.Vectors = rf.vectors()
	sum.Distances = rf.distances()
	return sum
}

// refine is ComputeObserved's walk; it leaves the surviving vectors and the
// distances in rf.
func refine(ts *system.TSystem, opts Options, rf *Refiner, onTest func(dtest.Result)) Summary {
	levels := 0
	if ts.Prob != nil {
		levels = ts.Prob.Common
	}
	sum := Summary{Exact: true}
	rf.reset(levels)
	fixed, cur := rf.fixed, rf.cur

	// Fix pruned levels up front (fixed[lvl] = 0 means refinable).
	for lvl := 0; lvl < levels; lvl++ {
		if opts.PruneUnused && !ts.LevelUsed(lvl) {
			fixed[lvl] = Any
			continue
		}
		if opts.PruneDistance {
			if d, ok := ts.Distance(lvl); ok {
				rf.dists = append(rf.dists, Distance{Level: lvl, Value: d})
				switch {
				case d > 0:
					fixed[lvl] = Less
				case d < 0:
					fixed[lvl] = Greater
				default:
					fixed[lvl] = Equal
				}
			}
		}
	}

	// run tests the system under the currently pushed directions.
	run := func(s *system.TSystem) dtest.Result {
		var r dtest.Result
		if opts.Pipeline != nil {
			r = opts.Pipeline.Run(s)
		} else {
			r, _ = dtest.Solve(s)
		}
		sum.TestsRun++
		sum.note(r)
		if onTest != nil {
			onTest(r)
		}
		return r
	}

	// Base test: the (*,…,*) vector.
	base := run(ts)
	if base.Outcome == dtest.Independent {
		return sum
	}

	var walk func(lvl, depth int)
	walk = func(lvl, depth int) {
		// advance over fixed levels without testing
		for lvl < levels && fixed[lvl] != 0 {
			cur[lvl] = fixed[lvl]
			lvl++
		}
		if lvl >= levels {
			rf.emit()
			return
		}
		for _, dir := range []Direction{Less, Equal, Greater} {
			tm := ts.Mark()
			am := rf.arena.Mark()
			if err := ts.PushDirection(lvl, byte(dir), &rf.arena); err != nil {
				// Overflow building the direction rows; the system is
				// unchanged, but release any rows carved before the error.
				// dir is not refuted: refine the deeper levels without its
				// constraint rather than drop it.
				rf.arena.Release(am)
				sum.Exact = false
				cur[lvl] = dir
				walk(lvl+1, depth)
				cur[lvl] = Any
				continue
			}
			sum.TrailPushes++
			if depth+1 > sum.TrailMaxDepth {
				sum.TrailMaxDepth = depth + 1
			}
			if r := run(ts); r.Outcome != dtest.Independent {
				cur[lvl] = dir
				walk(lvl+1, depth+1)
				cur[lvl] = Any
			}
			ts.PopTo(tm)
			rf.arena.Release(am)
			sum.TrailPops++
		}
	}
	// With no common loops the walk emits the one empty vector: the
	// dependence is loop-independent.
	walk(0, 0)

	if rf.nvec == 0 {
		// Every direction vector was refuted: the pair is independent even
		// though the base (*,…,*) test said otherwise (§6's implicit
		// branch-and-bound; possible because direction constraints cut the
		// fractional region the base test could not exclude).
		sum.ImplicitBB = true
		sum.Dependent = false
		sum.Exact = true
		sum.Trip = dtest.TripNone
		return sum
	}
	sum.Dependent = true
	return sum
}
