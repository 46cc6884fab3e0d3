package dtest

import (
	"exactdep/internal/system"
)

// Scratch owns every buffer the cascade needs for one problem: the
// classified state, the Acyclic test's working clone and elimination
// journal, the witness and trace buffers, the Loop Residue graph, and the
// Fourier–Motzkin flat constraint list, with a shared coefficient-row arena
// underneath. Reusing one Scratch across problems makes the steady-state
// cascade path (an SVPC or Acyclic decision) allocation-free, which is what
// lets the cheap tests actually run at the cost the paper prices them at
// (§7). A Scratch is not safe for concurrent use — each Pipeline owns one,
// and the concurrent driver gives every worker its own Pipeline. The memo
// layer follows the same pattern: each worker owns a memo.Encoder (key
// scratch), sharing only the lock-free memo tables.
type Scratch struct {
	sys system.Scratch // coefficient-row arena (cloned/substituted/expanded rows)

	st state // primary classified state of the current problem
	ac state // the Acyclic test's working clone

	witness   []int64             // witness under construction (aliased by Result.Witness)
	consulted []Kind              // trace buffer (aliased by Trace.Consulted)
	journal   []elimEntry         // Acyclic elimination journal
	dropped   []system.Constraint // backing store for the journal's dropped-constraint runs
	cons      []system.Constraint // Fourier–Motzkin flat constraint list
	graph     ResidueGraph        // Loop Residue graph with a reusable edge buffer
	dist      []int64             // Bellman–Ford distance buffer
	fm        fmScratch           // Fourier–Motzkin round/bound/witness workspace

	// bud meters the expensive end of the cascade (Fourier–Motzkin and its
	// branch-and-bound) for this problem; reset per prepare. The cheap tests
	// never consult it.
	bud budgetState
}

// newScratch returns an empty Scratch; buffers grow on demand and reach a
// steady state after a few problems.
func newScratch() *Scratch { return &Scratch{} }

// prepare resets the scratch for a new problem and classifies ts into the
// primary state. Buffers handed out for the previous problem (witness,
// trace, arena rows) are invalidated.
func (sc *Scratch) prepare(ts *system.TSystem) *state {
	sc.sys.Reset()
	sc.bud.reset()
	newStateInto(&sc.st, ts)
	return &sc.st
}

// cloneStateInto deep-copies src into dst, drawing coefficient rows from the
// arena so the copy allocates nothing once the buffers reach steady state.
func (sc *Scratch) cloneStateInto(dst, src *state) {
	dst.n = src.n
	dst.infeasible = src.infeasible
	dst.lb = append(dst.lb[:0], src.lb...)
	dst.ub = append(dst.ub[:0], src.ub...)
	dst.multi = dst.multi[:0]
	for _, c := range src.multi {
		coef := sc.sys.Row(len(c.Coef))
		copy(coef, c.Coef)
		dst.multi = append(dst.multi, system.Constraint{Coef: coef, C: c.C})
	}
}
