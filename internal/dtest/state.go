package dtest

import (
	"exactdep/internal/linalg"
	"exactdep/internal/system"
)

// optInt is an optional bound value (absent = unbounded in that direction).
type optInt struct {
	has bool
	v   int64
}

func (o *optInt) tightenMax(v int64) { // lower bound: keep the largest
	if !o.has || v > o.v {
		o.has, o.v = true, v
	}
}

func (o *optInt) tightenMin(v int64) { // upper bound: keep the smallest
	if !o.has || v < o.v {
		o.has, o.v = true, v
	}
}

// state is the shared working form of a t-space system: per-variable bounds
// accumulated from single-variable constraints, plus the remaining
// multi-variable constraints. overflow marks a bound that int64 could not
// hold and that was therefore not recorded: the state is then a relaxation
// of the system, so a refutation of it still proves independence, but no
// solution of it proves dependence.
type state struct {
	n          int
	lb, ub     []optInt
	multi      []system.Constraint
	infeasible bool
	overflow   bool
}

// newState classifies the constraints of ts into a fresh state.
func newState(ts *system.TSystem) *state {
	s := &state{}
	newStateInto(s, ts)
	return s
}

// newStateInto classifies the constraints of ts into s, reusing s's buffers.
func newStateInto(s *state, ts *system.TSystem) {
	s.reset(ts.NumT)
	s.infeasible = ts.Infeasible
	for _, c := range ts.Cons {
		s.add(c)
	}
}

// reset reinitializes s for a system of n variables, keeping buffer capacity.
func (s *state) reset(n int) {
	s.n = n
	s.infeasible, s.overflow = false, false
	if cap(s.lb) < n {
		s.lb = make([]optInt, n)
	} else {
		s.lb = s.lb[:n]
		for i := range s.lb {
			s.lb[i] = optInt{}
		}
	}
	if cap(s.ub) < n {
		s.ub = make([]optInt, n)
	} else {
		s.ub = s.ub[:n]
		for i := range s.ub {
			s.ub[i] = optInt{}
		}
	}
	s.multi = s.multi[:0]
}

// add classifies one normalized constraint into the state.
func (s *state) add(c system.Constraint) {
	switch c.NumVarsUsed() {
	case 0:
		if c.C < 0 {
			s.infeasible = true
		}
	case 1:
		for i, a := range c.Coef {
			if a == 0 {
				continue
			}
			s.bound(i, a, c.C)
			break
		}
	default:
		s.multi = append(s.multi, c)
	}
}

// bound records a·t_i ≤ c as a lower or upper bound on t_i. The bound
// -t_i ≤ MinInt64, t_i ≥ 2^63, does not fit in int64 and sets overflow.
func (s *state) bound(i int, a, c int64) {
	floor, ceil, err := linalg.FloorCeilDiv(c, a)
	switch {
	case err != nil:
		s.overflow = true
	case a > 0:
		s.ub[i].tightenMin(floor)
	default:
		s.lb[i].tightenMax(ceil)
	}
}

// varBound returns ⌊q⌋ and ⌈q⌉ for q = (C - Σ_{j≠v} a_j·w_j) / a_v, the
// bound constraint c puts on t_v when every other variable takes its value
// in w: an upper bound when a_v > 0, a lower one when a_v < 0. It is
// ErrOverflow when the sum or the quotient leaves int64.
func varBound(c system.Constraint, v int, w []int64) (floor, ceil int64, err error) {
	num := c.C
	for j, a := range c.Coef {
		if j == v || a == 0 {
			continue
		}
		p, err := linalg.MulChecked(a, w[j])
		if err != nil {
			return 0, 0, err
		}
		if num, err = linalg.SubChecked(num, p); err != nil {
			return 0, 0, err
		}
	}
	return linalg.FloorCeilDiv(num, c.Coef[v])
}

// firstConflict returns the first variable with lb > ub, or -1.
func (s *state) firstConflict() int {
	for i := 0; i < s.n; i++ {
		if s.lb[i].has && s.ub[i].has && s.lb[i].v > s.ub[i].v {
			return i
		}
	}
	return -1
}

// boundsWitness picks a value inside [lb,ub] for every variable, assuming
// the bounds are consistent. Unbounded variables get 0 clamped into range.
// The witness is written into buf when it has capacity (every element is
// overwritten), else into a fresh slice; the filled slice is returned.
func (s *state) boundsWitness(buf []int64) []int64 {
	w := buf
	if cap(w) < s.n {
		w = make([]int64, s.n)
	} else {
		w = w[:s.n]
	}
	for i := 0; i < s.n; i++ {
		w[i] = 0
		switch {
		case s.lb[i].has && s.ub[i].has:
			w[i] = midpoint(s.lb[i].v, s.ub[i].v)
		case s.lb[i].has:
			if s.lb[i].v > 0 {
				w[i] = s.lb[i].v
			}
		case s.ub[i].has:
			if s.ub[i].v < 0 {
				w[i] = s.ub[i].v
			}
		}
	}
	return w
}

// allConstraintsInto reassembles the state into a flat constraint list
// (single-variable bounds first, then multis), for the Fourier–Motzkin
// backup which wants the whole system. The list and the bound rows live in
// the scratch and stay valid until its next prepare.
func (s *state) allConstraintsInto(sc *Scratch) []system.Constraint {
	out := sc.cons[:0]
	for i := 0; i < s.n; i++ {
		if s.lb[i].has { // t_i ≥ lb  →  -t_i ≤ -lb
			coef := sc.sys.ZeroRow(s.n)
			coef[i] = -1
			out = append(out, system.Constraint{Coef: coef, C: -s.lb[i].v})
		}
		if s.ub[i].has {
			coef := sc.sys.ZeroRow(s.n)
			coef[i] = 1
			out = append(out, system.Constraint{Coef: coef, C: s.ub[i].v})
		}
	}
	out = append(out, s.multi...)
	sc.cons = out
	return out
}
