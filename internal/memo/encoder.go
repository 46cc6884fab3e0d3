package memo

import "exactdep/internal/system"

// Encoder canonicalizes dependence problems into Keys using reusable
// scratch buffers, so the steady-state memo path — encode, look up, hit —
// allocates nothing per candidate. The one-shot package functions EncodeEq
// and EncodeFull build the same keys through a throwaway Encoder; the
// analyzer gives each worker a persistent one instead, exactly as the
// cascade gives each worker a dtest.Scratch.
//
// The flat index tables replace the maps and the per-call sort of the
// original encoding: variable positions index a []int keyed by the
// problem's variable order, and loop-level ranks are assigned by scanning
// levels in increasing order (levels are small dense ints), which yields
// the same rank assignment a sort of the seen levels would.
//
// Keys returned by EncodeEq and EncodeFull alias two *separate* buffers:
// a full key stays valid across a later EncodeEq on the same encoder (the
// analyzer encodes the full key, misses, then encodes the eq key for GCD
// memoization before inserting under the still-live full key). Both are
// invalidated by the next call of the *same* method; Clone a key before
// storing it in a table. An Encoder is not safe for concurrent use — give
// each worker its own.
type Encoder struct {
	full   Key     // EncodeFull's reusable key buffer
	eq     Key     // EncodeEq's reusable key buffer
	vars   []int   // kept variable indices, canonical order
	used   []bool  // per-variable liveness for the improved scheme
	pos    []int   // original variable index → kept position, -1 if dropped
	rank   []int   // loop level → rank among kept levels, -1 if absent
	coeffs []int64 // positional bound-coefficient row
}

// EncodeEq encodes only the subscript equation system (the without-bounds
// key used for GCD memoization). With improved=true, variables that occur
// in no equation are dropped first. The returned Key aliases the encoder's
// eq buffer.
func (e *Encoder) EncodeEq(p *system.Problem, improved bool) Key {
	vars := e.keptVars(p, improved, false)
	key := append(e.eq[:0], int64(len(vars)), int64(p.Eq.Cols))
	for _, i := range vars {
		for d := 0; d < p.Eq.Cols; d++ {
			key = append(key, p.Eq.At(i, d))
		}
	}
	key = append(key, p.RHS...)
	e.eq = key
	return key
}

// EncodeFull encodes the subscript equations and the loop bounds (the
// with-bounds key for full test results). With improved=true, unused
// variables — indices that appear in no equation and, transitively, in no
// used variable's bound — are eliminated along with their bounds, exactly
// the paper's collapse of
//
//	for i…for j… a[i+10]=a[i]   and   for i…for j… a[j+10]=a[j]
//
// to the same single-loop problem. The returned Key aliases the encoder's
// full buffer.
func (e *Encoder) EncodeFull(p *system.Problem, improved bool) Key {
	vars := e.keptVars(p, improved, true)

	// pos: original index → kept position (-1 = dropped), the flat stand-in
	// for the original map.
	e.pos = resizeInts(e.pos, len(p.Vars))
	for i := range e.pos {
		e.pos[i] = -1
	}
	for n, i := range vars {
		e.pos[i] = n
	}

	// Once unused variables are dropped, position alone no longer says
	// whether a kept variable is the A-side or B-side instance of which
	// loop, and two mirrored problems must not share cached direction
	// vectors. Encode each variable's kind and the *rank* of its loop level
	// among kept levels — absolute levels must stay out of the key so that
	// the same pattern under extra unused loops still collapses. Ranks are
	// assigned by scanning levels in increasing order (no sort needed:
	// levels are small dense ints).
	maxLvl := -1
	for _, i := range vars {
		if l := p.Vars[i].Level; l > maxLvl {
			maxLvl = l
		}
	}
	const seen = -2
	e.rank = resizeInts(e.rank, maxLvl+1)
	for i := range e.rank {
		e.rank[i] = -1
	}
	for _, i := range vars {
		if l := p.Vars[i].Level; l >= 0 {
			e.rank[l] = seen
		}
	}
	r := 0
	for l := 0; l <= maxLvl; l++ {
		if e.rank[l] == seen {
			e.rank[l] = r
			r++
		}
	}

	key := append(e.full[:0], int64(len(vars)), int64(p.Eq.Cols))
	for _, i := range vars {
		rank := int64(-1)
		if l := p.Vars[i].Level; l >= 0 {
			rank = int64(e.rank[l])
		}
		key = append(key, int64(p.Vars[i].Kind), rank)
		for d := 0; d < p.Eq.Cols; d++ {
			key = append(key, p.Eq.At(i, d))
		}
	}
	key = append(key, p.RHS...)
	for _, i := range vars {
		key = e.appendBound(key, p, p.Lower[i], len(vars))
		key = e.appendBound(key, p, p.Upper[i], len(vars))
	}
	e.full = key
	return key
}

// appendBound encodes one optional affine bound positionally: a presence
// flag, the constant, then the coefficient of each kept variable. The
// coefficient row is assembled by position, so iterating the expression's
// term map in arbitrary order still yields a deterministic key.
func (e *Encoder) appendBound(key Key, p *system.Problem, b system.Bound, nkept int) Key {
	if !b.Has {
		return append(key, 0)
	}
	key = append(key, 1, b.Expr.Const)
	e.coeffs = resizeInt64s(e.coeffs, nkept)
	for i := range e.coeffs {
		e.coeffs[i] = 0
	}
	for v, c := range b.Expr.Terms {
		if i := p.VarIndex(v); i >= 0 && e.pos[i] >= 0 {
			e.coeffs[e.pos[i]] = c
		}
	}
	return append(key, e.coeffs...)
}

// keptVars computes the variable indices retained by the encoding, in
// canonical order, into the encoder's vars buffer. Simple scheme: all
// variables. Improved scheme: the closure of variables used by some
// equation, where withBounds additionally pulls in variables appearing in a
// used variable's bounds.
func (e *Encoder) keptVars(p *system.Problem, improved, withBounds bool) []int {
	n := len(p.Vars)
	e.vars = e.vars[:0]
	if !improved {
		for i := 0; i < n; i++ {
			e.vars = append(e.vars, i)
		}
		return e.vars
	}
	e.used = resizeBools(e.used, n)
	for i := 0; i < n; i++ {
		e.used[i] = false
		for d := 0; d < p.Eq.Cols; d++ {
			if p.Eq.At(i, d) != 0 {
				e.used[i] = true
				break
			}
		}
	}
	if withBounds {
		for changed := true; changed; {
			changed = false
			for i := 0; i < n; i++ {
				if !e.used[i] {
					continue
				}
				for _, b := range [2]system.Bound{p.Lower[i], p.Upper[i]} {
					if !b.Has {
						continue
					}
					for v := range b.Expr.Terms {
						j := p.VarIndex(v)
						if j >= 0 && !e.used[j] {
							e.used[j] = true
							changed = true
						}
					}
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if e.used[i] {
			e.vars = append(e.vars, i)
		}
	}
	return e.vars
}

// EncodeEq encodes the without-bounds key through a throwaway Encoder.
// Serial convenience; hot paths hold a per-worker Encoder instead.
func EncodeEq(p *system.Problem, improved bool) Key {
	var e Encoder
	return e.EncodeEq(p, improved)
}

// EncodeFull encodes the with-bounds key through a throwaway Encoder.
// Serial convenience; hot paths hold a per-worker Encoder instead.
func EncodeFull(p *system.Problem, improved bool) Key {
	var e Encoder
	return e.EncodeFull(p, improved)
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeInt64s(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
