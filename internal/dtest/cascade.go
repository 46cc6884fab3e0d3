package dtest

import (
	"math/big"

	"exactdep/internal/system"
)

// Trace records which tests the cascade consulted for one problem, in order.
// Only the last entry decided; earlier entries were applicability probes
// (the paper's "we only need to check the applicability of multiple tests —
// we never have to apply more than one").
type Trace struct {
	Consulted []Kind
	Decided   Kind
}

// Solve runs the exact-test cascade of paper §3 on a preprocessed t-space
// system, cheapest test first. The returned Result carries the verdict, the
// deciding test, and (for exact verdicts) a witness where available. The
// Trace reports the applicability path.
//
// Solve is a convenience wrapper over a throwaway default Pipeline; callers
// solving many problems should hold a Pipeline and use Run/RunTraced, which
// reuse one Scratch across problems and keep per-stage cost metrics.
func Solve(ts *system.TSystem) (Result, Trace) {
	return DefaultConfig().NewPipeline().RunTraced(ts)
}

// SolveState is Solve for callers that already built a state (testing and
// benchmarking individual stages), without trace collection.
func SolveState(s *state) Result {
	p := DefaultConfig().NewPipeline()
	r, _ := p.run(s, false)
	return r
}

// NewState exposes state construction to sibling packages' tests and to the
// benchmark harness through exported helpers in this package.
func NewState(ts *system.TSystem) *state { return newState(ts) }

// VerifyWitness checks a witness assignment against every constraint of ts,
// returning false on the first violated constraint, and for a witness that
// does not assign every variable. Each row is evaluated exactly, in
// math/big: a valid witness may have partial sums past int64 (t1 = -2^62 in
// 7t1 + t2 ≤ 0), and a wrapped sum could pass an invalid one. Used by
// property tests: any exact Dependent verdict must come with either no
// witness or a valid one.
func VerifyWitness(ts *system.TSystem, w []int64) bool {
	if ts.Infeasible || len(w) != ts.NumT {
		return false
	}
	var sum, term, x big.Int
	for _, c := range ts.Cons {
		sum.SetInt64(0)
		for i, a := range c.Coef {
			sum.Add(&sum, term.Mul(term.SetInt64(a), x.SetInt64(w[i])))
		}
		if sum.Cmp(x.SetInt64(c.C)) > 0 {
			return false
		}
	}
	return true
}
