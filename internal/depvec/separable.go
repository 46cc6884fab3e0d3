package depvec

import (
	"exactdep/internal/dtest"
	"exactdep/internal/system"
)

// The dimension-by-dimension optimization Burke and Cytron suggest and the
// paper cites at the end of §6: when the loop levels are not interrelated —
// no subscript equation and no bound couples two levels — each component of
// the direction vector can be computed independently (3·L tests) instead of
// hierarchically (up to 3^L). The full vector set is then the cross product
// of the per-level direction sets.

// Separable reports whether the problem decomposes by loop level: every
// variable is a common loop index (no symbols, no non-common loops), every
// equation touches at most one level, and every bound is constant.
func Separable(ts *system.TSystem) bool {
	p := ts.Prob
	if p == nil {
		return false
	}
	for _, v := range p.Vars {
		if v.Kind == system.Symbol || v.Level < 0 || v.Level >= p.Common {
			return false
		}
	}
	for d := 0; d < p.Eq.Cols; d++ {
		lvl := -1
		for i, v := range p.Vars {
			if p.Eq.At(i, d) == 0 {
				continue
			}
			if lvl == -1 {
				lvl = v.Level
			} else if lvl != v.Level {
				return false // coupled subscript dimension
			}
		}
	}
	for i := range p.Vars {
		if p.Lower[i].Coef != nil || p.Upper[i].Coef != nil {
			return false // triangular or symbolic bound couples levels
		}
	}
	return true
}

// computeSeparable runs the dimension-wise method. It must only be called
// on separable systems whose base (*,…,*) test was dependent; fixed is the
// pruning array from ComputeObserved (nonzero entries are not re-tested).
// Each single-level test pushes its direction onto ts's trail and pops it.
// The per-level direction sets live in rf.sets, and the cross product is
// emitted into rf like the hierarchical walk's vectors.
func computeSeparable(ts *system.TSystem, fixed []Direction, sum *Summary,
	rf *Refiner, run func(*system.TSystem) dtest.Result) {
	levels := ts.Prob.Common
	for len(rf.sets) < levels {
		rf.sets = append(rf.sets, nil)
	}
	perLevel := rf.sets[:levels]
	for lvl := 0; lvl < levels; lvl++ {
		perLevel[lvl] = perLevel[lvl][:0]
		if fixed[lvl] != 0 {
			perLevel[lvl] = append(perLevel[lvl], fixed[lvl])
			continue
		}
		for _, dir := range []Direction{Less, Equal, Greater} {
			tm := ts.Mark()
			am := rf.arena.Mark()
			if err := ts.PushDirection(lvl, byte(dir), &rf.arena); err != nil {
				// Overflow: dir is not refuted, so it stays in the set.
				rf.arena.Release(am)
				sum.Exact = false
				perLevel[lvl] = append(perLevel[lvl], dir)
				continue
			}
			sum.TrailPushes++
			if sum.TrailMaxDepth < 1 {
				sum.TrailMaxDepth = 1
			}
			if r := run(ts); r.Outcome != dtest.Independent {
				perLevel[lvl] = append(perLevel[lvl], dir)
			}
			ts.PopTo(tm)
			rf.arena.Release(am)
			sum.TrailPops++
		}
		if len(perLevel[lvl]) == 0 {
			// The base test said dependent, so a separable system has at
			// least one feasible direction per level; reaching this means
			// the base verdict was inexact and the level refutes it.
			sum.ImplicitBB = true
			sum.Dependent = false
			sum.Exact = true
			sum.Trip = dtest.TripNone
			return
		}
	}
	// cross product
	cur := rf.cur
	var build func(lvl int)
	build = func(lvl int) {
		if lvl == levels {
			rf.emit()
			return
		}
		for _, d := range perLevel[lvl] {
			cur[lvl] = d
			build(lvl + 1)
		}
	}
	build(0)
	sum.Dependent = true
}
