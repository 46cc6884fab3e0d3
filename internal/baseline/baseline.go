// Package baseline implements the inexact dependence tests the paper
// compares against in §7: the simple per-dimension GCD test (Banerjee's
// algorithm 5.4.1) and the Banerjee bounds test over rectangular regions,
// extended to direction vectors following Wolfe (algorithm 2.5.2 in
// "Optimizing Supercompilers for Supercomputers"). Both tests can only prove
// independence; when they fail they assume dependence, which is what makes
// them inexact. The paper reports that on the PERFECT Club they miss 16% of
// the independent pairs and emit 22% extra direction vectors.
package baseline

import (
	"exactdep/internal/depvec"
	"exactdep/internal/linalg"
	"exactdep/internal/system"
)

// SimpleGCD runs the per-dimension GCD test: dimension d is feasible only if
// gcd of its coefficients divides the constant. It reports false when some
// dimension proves the pair independent, true otherwise ("assume
// dependent", also for a gcd past int64).
func SimpleGCD(p *system.Problem) bool {
	col := make([]int64, len(p.Vars))
	for d := 0; d < p.Eq.Cols; d++ {
		for k := range p.Vars {
			col[k] = p.Eq.At(k, d)
		}
		g, err := linalg.GCDAll(col)
		if err != nil {
			continue
		}
		if g == 0 {
			if p.RHS[d] != 0 {
				return false
			}
			continue
		}
		if p.RHS[d]%g != 0 {
			return false
		}
	}
	return true
}

// interval is a possibly-unbounded (or empty) real interval.
type interval struct {
	lo, hi     int64
	noLo, noHi bool
	empty      bool
}

func (iv interval) add(o interval) interval {
	out := interval{noLo: iv.noLo || o.noLo, noHi: iv.noHi || o.noHi, empty: iv.empty || o.empty}
	if !out.noLo {
		out.lo = iv.lo + o.lo
	}
	if !out.noHi {
		out.hi = iv.hi + o.hi
	}
	return out
}

// scale multiplies the interval by a (flipping ends for negative a).
func (iv interval) scale(a int64) interval {
	if a == 0 {
		return interval{}
	}
	if a > 0 {
		return interval{lo: a * iv.lo, hi: a * iv.hi, noLo: iv.noLo, noHi: iv.noHi}
	}
	return interval{lo: a * iv.hi, hi: a * iv.lo, noLo: iv.noHi, noHi: iv.noLo}
}

// contains reports whether v lies in the interval.
func (iv interval) contains(v int64) bool {
	if iv.empty {
		return false
	}
	if !iv.noLo && v < iv.lo {
		return false
	}
	if !iv.noHi && v > iv.hi {
		return false
	}
	return true
}

// constBounds extracts the constant rectangular bounds of variable k, or an
// unbounded interval when a bound is missing or non-constant (triangular or
// symbolic bounds degrade conservatively — the rectangular test cannot use
// them).
func constBounds(p *system.Problem, k int) interval {
	iv := interval{noLo: true, noHi: true}
	if p.Lower[k].Has && p.Lower[k].Coef == nil {
		iv.noLo, iv.lo = false, p.Lower[k].Const
	}
	if p.Upper[k].Has && p.Upper[k].Coef == nil {
		iv.noHi, iv.hi = false, p.Upper[k].Const
	}
	return iv
}

// Banerjee runs the bounds test without direction constraints: for each
// dimension, the range of Σ coeff·x over the rectangular region must contain
// the constant. It reports false when some dimension proves independence.
func Banerjee(p *system.Problem) bool {
	return BanerjeeDir(p, allAny(p.Common))
}

func allAny(n int) []depvec.Direction {
	out := make([]depvec.Direction, n)
	for i := range out {
		out[i] = depvec.Any
	}
	return out
}

// BanerjeeDir runs the bounds test under a direction vector over the common
// loops (Wolfe's extension). Pairs (i_k, i'_k) at a common level contribute
// jointly: the extreme values of a·i - b·i' over the constrained square are
// attained at the vertices of the region cut by the direction constraint.
func BanerjeeDir(p *system.Problem, dirs []depvec.Direction) bool {
	for d := 0; d < p.Eq.Cols; d++ {
		rng := interval{} // starts at [0,0]
		handled := make([]bool, len(p.Vars))
		// common-level pairs under their direction
		for lvl := 0; lvl < p.Common; lvl++ {
			ai, bi := p.CommonPair(lvl)
			if ai < 0 || bi < 0 {
				continue
			}
			handled[ai], handled[bi] = true, true
			a := p.Eq.At(ai, d)
			b := -p.Eq.At(bi, d) // term is a·i - b·i'
			if a == 0 && b == 0 {
				continue
			}
			dir := depvec.Any
			if lvl < len(dirs) {
				dir = dirs[lvl]
			}
			box := constBounds(p, ai) // assume both instances share bounds
			rng = rng.add(pairRange(a, b, box, dir))
		}
		// remaining variables contribute independently
		for k := range p.Vars {
			if handled[k] {
				continue
			}
			a := p.Eq.At(k, d)
			if a == 0 {
				continue
			}
			rng = rng.add(constBounds(p, k).scale(a))
		}
		if !rng.contains(p.RHS[d]) {
			return false
		}
	}
	return true
}

// pairRange computes the real range of a·i - b·i' for i, i' in box under the
// direction constraint, by evaluating the vertices of the (convex) feasible
// polygon. Unbounded boxes yield unbounded ranges.
func pairRange(a, b int64, box interval, dir depvec.Direction) interval {
	if box.noLo || box.noHi {
		// With an open square the term range is unbounded on any side where
		// a or b is active; be fully conservative.
		if a == 0 && b == 0 {
			return interval{}
		}
		return interval{noLo: true, noHi: true}
	}
	L, U := box.lo, box.hi
	f := func(i, ip int64) int64 { return a*i - b*ip }
	var vals []int64
	switch dir {
	case depvec.Less: // i ≤ i' - 1
		if L+1 > U {
			// the direction admits no iteration pair at all
			return interval{empty: true}
		}
		vals = []int64{f(L, L+1), f(L, U), f(U-1, U)}
	case depvec.Greater:
		if L+1 > U {
			return interval{empty: true}
		}
		vals = []int64{f(L+1, L), f(U, L), f(U, U-1)}
	case depvec.Equal:
		vals = []int64{f(L, L), f(U, U)}
	default: // '*'
		vals = []int64{f(L, L), f(L, U), f(U, L), f(U, U)}
	}
	out := interval{lo: vals[0], hi: vals[0]}
	for _, v := range vals[1:] {
		if v < out.lo {
			out.lo = v
		}
		if v > out.hi {
			out.hi = v
		}
	}
	return out
}

// Vectors computes the direction vectors the inexact pipeline reports:
// hierarchical refinement where each candidate vector survives if both the
// per-dimension GCD test and the direction-constrained Banerjee test fail to
// refute it. With pruneUnused, loop levels not appearing in the equations
// keep '*' (the paper's §7 methodology eliminates unused variables so the
// baseline is not unfairly penalized).
func Vectors(p *system.Problem, pruneUnused bool) []depvec.Vector {
	if !SimpleGCD(p) {
		return nil
	}
	levels := p.Common
	used := make([]bool, levels)
	for lvl := 0; lvl < levels; lvl++ {
		ai, bi := p.CommonPair(lvl)
		for d := 0; d < p.Eq.Cols; d++ {
			if (ai >= 0 && p.Eq.At(ai, d) != 0) || (bi >= 0 && p.Eq.At(bi, d) != 0) {
				used[lvl] = true
			}
		}
		if !pruneUnused {
			used[lvl] = true
		}
	}
	cur := allAny(levels)
	var out []depvec.Vector
	var refine func(lvl int)
	refine = func(lvl int) {
		for lvl < levels && !used[lvl] {
			lvl++
		}
		if lvl >= levels {
			out = append(out, append(depvec.Vector(nil), cur...))
			return
		}
		for _, dir := range []depvec.Direction{depvec.Less, depvec.Equal, depvec.Greater} {
			cur[lvl] = dir
			if BanerjeeDir(p, cur) {
				refine(lvl + 1)
			}
			cur[lvl] = depvec.Any
		}
	}
	if !BanerjeeDir(p, cur) {
		return nil
	}
	if levels == 0 {
		return []depvec.Vector{{}}
	}
	refine(0)
	return out
}
