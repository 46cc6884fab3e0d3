package corpus

import (
	"exactdep/internal/ir"
	"exactdep/internal/memo"
	"exactdep/internal/refs"
)

// Fingerprinter folds a unit's candidate systems into a memo.Fingerprint.
// It walks the IR directly — the same data system.Build and
// memo.Encoder.EncodeFull consume (subscript equations, loop bounds,
// variable kinds and levels, symbols), without materializing the Problem —
// so fingerprinting an unchanged corpus is orders of magnitude cheaper than
// even the memo-hot analysis pass it replaces.
//
// The digest is structural: any edit that could change a verdict, a
// direction vector, or the pair list (subscripts, bounds, nesting, symbol
// sets, reference kinds, pair order) changes the fingerprint. It is
// deliberately conservative the other way too — renaming an array or an
// index invalidates the unit even though the verdicts cannot change —
// because a cheap false re-solve is harmless while a stale hit is not.
//
// A Fingerprinter is scratch state (a hasher chain); not safe for
// concurrent use. The zero value is ready.
type Fingerprinter struct {
	h memo.FPHasher
}

// Unit digests every candidate of u in order.
func (f *Fingerprinter) Unit(u Unit) memo.Fingerprint {
	f.h.Reset()
	f.h.AddInt(int64(len(u.Cands)))
	for i := range u.Cands {
		f.candidate(&u.Cands[i])
	}
	return f.h.Sum()
}

func (f *Fingerprinter) candidate(c *refs.Candidate) {
	f.h.AddInt(int64(c.Class)<<32 | int64(c.Pair.Common))
	a, b := &c.Pair.A, &c.Pair.B
	f.ref(&a.Ref)
	f.loops(a.Loops)
	f.ref(&b.Ref)
	// Both sites' loop stacks come from Nest.LoopsFor — prefixes of one
	// backing array — so when B's stack is exactly A's, one marker stands
	// in for re-walking it. (-1 cannot alias a real stack: loops always
	// opens with a non-negative length.)
	if len(a.Loops) == len(b.Loops) && (len(a.Loops) == 0 || &a.Loops[0] == &b.Loops[0]) {
		f.h.AddInt(-1)
	} else {
		f.loops(b.Loops)
	}
	f.h.AddInt(int64(len(c.Pair.Symbols)))
	for _, s := range c.Pair.Symbols {
		f.h.AddString(s)
	}
}

func (f *Fingerprinter) ref(r *ir.Ref) {
	f.h.AddString(r.Array)
	f.h.AddInt(int64(r.Kind)<<40 | int64(r.Depth)<<20 | int64(len(r.Subscripts)))
	for i := range r.Subscripts {
		f.expr(&r.Subscripts[i])
	}
}

func (f *Fingerprinter) loops(ls []ir.Loop) {
	f.h.AddInt(int64(len(ls)))
	for i := range ls {
		l := &ls[i]
		f.h.AddString(l.Index)
		f.h.AddInt(b2i(l.NoLower)<<1 | b2i(l.NoUpper))
		f.expr(&l.Lower)
		f.expr(&l.Upper)
	}
}

// expr folds an affine expression: the constant, then the terms
// commutatively, sealed by the negated term count. Folding commutatively
// keeps every fingerprint the term maps of earlier versions produced, so
// stores saved by them stay valid. Constant expressions — the bulk of
// bounds and subscripts — cost one chain step; the seal only appears when
// terms were folded, and it is negative, so a sealed stream cannot alias a
// run of constant expressions.
func (f *Fingerprinter) expr(e *ir.Expr) {
	f.h.AddInt(e.Const)
	if len(e.Terms) > 0 {
		for _, t := range e.Terms {
			f.h.AddTerm(t.Var, t.Coeff)
		}
		f.h.AddInt(-int64(len(e.Terms)))
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
