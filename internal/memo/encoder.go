package memo

import "exactdep/internal/system"

// Encoder canonicalizes dependence problems into Keys using reusable
// scratch buffers, so the steady-state memo path — encode, look up, hit —
// allocates nothing per candidate. The analyzer gives each worker a
// persistent one, exactly as the cascade gives each worker a
// dtest.Scratch.
//
// The encoder reads only the problem's integer rows (system.Problem keeps
// every bound as a coefficient row over the variable positions): flat
// index tables map a variable position to its kept position, and loop-level
// ranks are assigned by scanning levels in increasing order (levels are
// small dense ints), which yields the same rank assignment a sort of the
// seen levels would.
//
// Keys returned by EncodeEq and EncodeFull alias two *separate* buffers:
// a full key stays valid across a later EncodeEq on the same encoder (the
// analyzer encodes the full key, misses, then encodes the eq key for GCD
// memoization before inserting under the still-live full key). Both are
// invalidated by the next call of the *same* method; Clone a key before
// storing it in a table. An Encoder is not safe for concurrent use — give
// each worker its own.
type Encoder struct {
	full Key    // EncodeFull's reusable key buffer
	eq   Key    // EncodeEq's reusable key buffer
	vars []int  // kept variable indices, canonical order
	used []bool // per-variable liveness for the improved scheme
	pos  []int  // original variable index → kept position, -1 if dropped
	rank []int  // loop level → rank among kept levels, -1 if absent
}

// EncodeEq encodes only the subscript equation system (the without-bounds
// key used for GCD memoization). With improved=true, variables that occur
// in no equation are dropped first. The returned Key aliases the encoder's
// eq buffer.
func (e *Encoder) EncodeEq(p *system.Problem, improved bool) Key {
	vars := e.keptVars(p, improved, false)
	key := append(e.eq[:0], int64(len(vars)), int64(p.Eq.Cols))
	for _, i := range vars {
		key = append(key, p.Eq.Row(i)...)
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
		key = append(key, p.Eq.Row(i)...)
	}
	key = append(key, p.RHS...)
	for _, i := range vars {
		key = e.appendBound(key, &p.Lower[i])
		key = e.appendBound(key, &p.Upper[i])
	}
	e.full = key
	return key
}

// appendBound encodes one optional affine bound sparsely: a presence flag,
// then the constant, the count of nonzero coefficients at kept variables
// and a (kept position, coefficient) pair for each, in position order.
// Given the kept-variable count at the head of the key this is a bijection
// with the dense row of one coefficient per kept variable, so exactly the
// problems that shared a dense key share a sparse one.
func (e *Encoder) appendBound(key Key, b *system.Bound) Key {
	if !b.Has {
		return append(key, 0)
	}
	key = append(key, 1, b.Const, 0)
	at := len(key) - 1
	for k, c := range b.Coef {
		if c != 0 && e.pos[k] >= 0 {
			key = append(key, int64(e.pos[k]), c)
		}
	}
	key[at] = int64(len(key)-at-1) / 2
	return key
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
		for _, c := range p.Eq.Row(i) {
			if c != 0 {
				e.used[i] = true
				break
			}
		}
	}
	if withBounds {
		for changed := true; changed; {
			changed = false
			for i := 0; i < n; i++ {
				if e.used[i] {
					changed = e.use(p.Lower[i].Coef) || changed
					changed = e.use(p.Upper[i].Coef) || changed
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

// use marks every variable with a nonzero coefficient in row as used and
// reports whether that marked one the closure had not reached.
func (e *Encoder) use(row []int64) bool {
	grew := false
	for j, c := range row {
		if c != 0 && !e.used[j] {
			e.used[j] = true
			grew = true
		}
	}
	return grew
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
