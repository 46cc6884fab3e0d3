package core

import (
	"exactdep/internal/depvec"
	"exactdep/internal/dtest"
)

// dirMemo adapts the analyzer's direction-keyed refinement table to
// depvec.Memo, which is how the up-to-3^d subproblems of Burke–Cytron
// refinement reach the memo hierarchy the flat cascade already uses (the
// paper's §5 claim covers these tests too). The key is the encoder's
// still-live full-problem key plus the canonical direction segment
// (memo.Encoder.EncodeDirections), so subproblems hit across pairs sharing
// a canonical problem and across re-analyses of a warm analyzer; concurrent
// workers sharing the table dedup key-equal refinement work mid-flight.
//
// Storage policy mirrors the candidate-level cache: clock-tripped and
// cancelled verdicts are never stored (scheduling-dependent), the witness
// is stripped (it aliases the producing pipeline's scratch), and — because
// an analyzer's budget class is fixed for its lifetime and the table lives
// in the analyzer — count-tripped Maybe entries never mix across classes.
// Subproblems whose pushed directions sit on a level the improved key
// dropped are not canonically representable; EncodeDirections reports that
// and both methods decline, so such tests simply run uncached.
type dirMemo struct {
	a *Analyzer
}

var _ depvec.Memo = dirMemo{}

func (m dirMemo) Lookup(dirs []byte) (dtest.Result, bool) {
	a := m.a
	key, ok := a.enc.EncodeDirections(dirs)
	if !ok {
		return dtest.Result{}, false
	}
	a.Stats.DirLookups++
	if a.l1dir != nil {
		if r, ok := a.l1dir.Lookup(key); ok {
			a.Stats.DirHits++
			return r, true
		}
	}
	if stored, r, ok := a.dir.LookupStored(key); ok {
		a.Stats.DirHits++
		if a.l1dir != nil {
			a.l1dir.Store(stored, r)
		}
		return r, true
	}
	return dtest.Result{}, false
}

func (m dirMemo) Store(dirs []byte, r dtest.Result) {
	a := m.a
	if !cacheableTrip(r.Trip) {
		return
	}
	key, ok := a.enc.EncodeDirections(dirs)
	if !ok {
		return
	}
	r.Witness = nil
	ck := key.Clone()
	a.dir.Insert(ck, r)
	if !a.shared {
		a.Stats.UniqueDir = a.dir.Len()
	}
	if a.l1dir != nil {
		a.l1dir.Store(ck, r)
	}
}
