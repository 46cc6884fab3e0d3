// Package opt lowers parsed programs into the affine IR, applying the
// optimizer prepass the paper relies on (§2, §8): constant propagation,
// forward substitution of scalar definitions, and induction-variable
// substitution. Loop-invariant unknowns introduced by read statements become
// symbolic variables; everything else that fails to normalize to an affine
// form degrades soundly (bounds become unbounded, non-affine references are
// skipped with a warning — the caller must assume dependence for them).
package opt

import (
	"fmt"
	"slices"
	"sort"

	"exactdep/internal/ir"
	"exactdep/internal/lang"
	"exactdep/internal/linalg"
)

// value is the abstract value of a scalar: either a known affine expression
// over active loop indices and symbols, or unknown.
type value struct {
	known bool
	expr  ir.Expr
}

type lowerer struct {
	env      map[string]value
	symbols  map[string]bool
	symOrder []string
	loops    []ir.Loop
	active   map[string]bool    // loop indices currently in scope
	vars     map[string]ir.Expr // name → shared 1·name (see variable)
	sites    []ir.Site
	warnings []string
	stmtID   int
	loopID   int
	carried  map[int][]string // loop ID → loop-carried scalars
	private  map[int][]string // loop ID → privatizable scalars
}

// Lower converts a parsed program into a Unit of reference sites.
func Lower(prog *lang.Program) *ir.Unit {
	lw := &lowerer{
		env:     make(map[string]value),
		symbols: make(map[string]bool),
		active:  make(map[string]bool),
		vars:    make(map[string]ir.Expr),
	}
	lw.stmts(prog.Stmts)
	return &ir.Unit{
		Name:          prog.Name,
		Sites:         lw.sites,
		Symbols:       lw.symOrder,
		Warnings:      lw.warnings,
		ScalarCarried: lw.carried,
		ScalarPrivate: lw.private,
	}
}

// variable returns the expression 1·name. Every use of a name in the unit
// shares one expression: ir.Expr values are immutable (their operations
// build new term maps), so subscripts, bounds and scalar values may alias
// it freely.
func (lw *lowerer) variable(name string) ir.Expr {
	e, ok := lw.vars[name]
	if !ok {
		e = ir.NewVar(name)
		lw.vars[name] = e
	}
	return e
}

func (lw *lowerer) warnf(format string, args ...any) {
	lw.warnings = append(lw.warnings, fmt.Sprintf(format, args...))
}

func (lw *lowerer) stmts(ss []lang.Stmt) {
	for _, s := range ss {
		lw.lowerStmt(s)
	}
}

func (lw *lowerer) lowerStmt(s lang.Stmt) {
	switch s := s.(type) {
	case *lang.Read:
		if !lw.symbols[s.Var] {
			lw.symbols[s.Var] = true
			lw.symOrder = append(lw.symOrder, s.Var)
		}
		lw.env[s.Var] = value{known: true, expr: lw.variable(s.Var)}
	case *lang.Assign:
		lw.assign(s)
	case *lang.For:
		lw.forLoop(s)
	}
}

func (lw *lowerer) assign(s *lang.Assign) {
	lw.stmtID++
	// The write site is emitted before the RHS reads, matching the paper's
	// convention of listing the pair as a[f(i)] = a[f'(i')] with the LHS
	// first; direction vectors then read naturally (a[i+1] = a[i] has
	// direction '<').
	if s.LHSArray != nil {
		lw.addSite(s.LHSArray, ir.Write)
		for _, sub := range s.LHSArray.Subs {
			lw.collectReads(sub) // reads nested in the write's subscripts
		}
		lw.collectReads(s.RHS)
		return
	}
	// RHS array reads are reference sites regardless of affinity of the
	// overall expression.
	lw.collectReads(s.RHS)
	rhs, rhsOK := lw.eval(s.RHS)
	// scalar assignment
	if s.LHSVar != "" {
		if lw.active[s.LHSVar] {
			lw.warnf("%s: assignment to active loop index %q ignored", s.Pos, s.LHSVar)
			return
		}
		if rhsOK {
			lw.env[s.LHSVar] = value{known: true, expr: rhs}
		} else {
			lw.env[s.LHSVar] = value{}
		}
	}
}

// addSite evaluates the subscripts of an array reference and records it.
func (lw *lowerer) addSite(idx *lang.Index, kind ir.RefKind) {
	subs := make([]ir.Expr, len(idx.Subs))
	for i, se := range idx.Subs {
		e, ok := lw.eval(se)
		if !ok {
			lw.warnf("%s: non-affine subscript %d of %q; reference skipped (assume dependence)",
				idx.Pos, i+1, idx.Array)
			return
		}
		subs[i] = e
	}
	// Each site gets its own copy of the loop stack, never a slice of a
	// shared one: corpus.Fingerprinter folds B's stack as a one-word marker
	// when it shares A's backing array, so sharing stacks between sites
	// would change every unit fingerprint (and miss every store entry saved
	// before) while leaving the canonical bytes the same.
	loops := make([]ir.Loop, len(lw.loops))
	copy(loops, lw.loops)
	lw.sites = append(lw.sites, ir.Site{
		Loops: loops,
		Ref: ir.Ref{
			Array:      idx.Array,
			Subscripts: subs,
			Kind:       kind,
			Depth:      len(loops),
			Stmt:       lw.stmtID,
		},
	})
}

// collectReads records every array read inside an expression.
func (lw *lowerer) collectReads(e lang.Expr) {
	switch e := e.(type) {
	case *lang.Index:
		lw.addSite(e, ir.Read)
		for _, s := range e.Subs {
			lw.collectReads(s)
		}
	case *lang.BinOp:
		lw.collectReads(e.L)
		lw.collectReads(e.R)
	case *lang.Neg:
		lw.collectReads(e.X)
	}
}

// eval normalizes an AST expression to an affine ir.Expr, substituting
// known scalar values (constant propagation + forward substitution).
func (lw *lowerer) eval(e lang.Expr) (ir.Expr, bool) {
	switch e := e.(type) {
	case *lang.Num:
		return ir.NewConst(e.Value), true
	case *lang.Ident:
		if lw.active[e.Name] {
			return lw.variable(e.Name), true
		}
		if v, ok := lw.env[e.Name]; ok {
			if v.known {
				return v.expr, true
			}
			return ir.Expr{}, false
		}
		// An undefined scalar read is implicitly symbolic: real compilers
		// see these as unanalyzed procedure parameters (paper §8 treats any
		// loop-invariant unknown this way).
		lw.symbols[e.Name] = true
		lw.symOrder = appendUnique(lw.symOrder, e.Name)
		v := lw.variable(e.Name)
		lw.env[e.Name] = value{known: true, expr: v}
		return v, true
	case *lang.Neg:
		x, ok := lw.eval(e.X)
		if !ok {
			return ir.Expr{}, false
		}
		return x.Neg(), true
	case *lang.BinOp:
		l, lok := lw.eval(e.L)
		r, rok := lw.eval(e.R)
		if !lok || !rok {
			return ir.Expr{}, false
		}
		switch e.Op {
		case '+':
			return l.Add(r), true
		case '-':
			return l.Sub(r), true
		case '*':
			return l.Mul(r)
		}
		return ir.Expr{}, false
	case *lang.Index:
		return ir.Expr{}, false // array element values are never affine
	default:
		return ir.Expr{}, false
	}
}

func appendUnique(ss []string, s string) []string {
	for _, x := range ss {
		if x == s {
			return ss
		}
	}
	return append(ss, s)
}

// induction describes one recognized induction variable of a loop body:
// a scalar with a single top-level self-increment by a constant.
type induction struct {
	name  string
	step  int64
	entry ir.Expr
	stmt  *lang.Assign
}

// forLoop processes one loop with induction recognition. Non-unit constant
// steps are normalized away (paper §2: "we normalize the step size to 1")
// by introducing a fresh iteration counter i' with i = lo + step·i'.
func (lw *lowerer) forLoop(s *lang.For) {
	step := int64(1)
	if s.Step != nil {
		c, ok := constOf(s.Step, lw)
		if !ok || c == 0 {
			lw.warnf("%s: non-constant or zero step of loop %q; loop body analyzed with unknown index",
				s.Pos, s.Index)
			lw.forLoopOpaque(s)
			return
		}
		step = c
	}
	lo, loOK := lw.eval(s.Lo)
	hi, hiOK := lw.eval(s.Hi)
	lw.loopID++

	var loop ir.Loop
	var indexVal value // the source index's value; read only by stepped loops
	if step == 1 {
		loop = ir.Loop{Index: s.Index, NoLower: !loOK, NoUpper: !hiOK, ID: lw.loopID}
		if loOK {
			loop.Lower = lo
		} else {
			lw.warnf("%s: non-affine lower bound of loop %q; treated as unbounded", s.Pos, s.Index)
		}
		if hiOK {
			loop.Upper = hi
		} else {
			lw.warnf("%s: non-affine upper bound of loop %q; treated as unbounded", s.Pos, s.Index)
		}
	} else {
		// normalized counter: i' = 0 .. ⌊(hi-lo)/step⌋, i = lo + step·i'
		norm := fmt.Sprintf("%s#%d", s.Index, lw.loopID)
		loop = ir.Loop{Index: norm, Lower: ir.NewConst(0), ID: lw.loopID}
		trip, ok := tripBound(lo, loOK, hi, hiOK, step)
		if ok {
			loop.Upper = trip
		} else {
			loop.NoUpper = true
			lw.warnf("%s: trip count of loop %q (step %d) is not affine; upper bound dropped",
				s.Pos, s.Index, step)
		}
		if loOK {
			indexVal = value{known: true, expr: lo.Add(ir.NewTerm(norm, step))}
		} else {
			lw.warnf("%s: non-affine lower bound of stepped loop %q; index unknown", s.Pos, s.Index)
		}
	}

	// Pre-scan for induction variables (paper §8's iz = iz + 2 example);
	// they need a known iteration offset. Both the scan and the carried /
	// private classification work off one count of the body's scalar
	// assignments.
	assigned := assignCounts(s.Body, nil)
	var inds []induction
	if len(assigned) > 0 && (step != 1 || loOK) {
		inds = lw.findInductions(s, assigned)
	}
	lw.recordCarriedScalars(loop.ID, s.Body, assigned, inds)

	// Enter loop scope. The normalized counter (if any) is the active
	// variable; the source index name resolves through env to its value.
	savedActive := lw.active[s.Index]
	savedVal, hadVal := lw.env[s.Index]
	lw.active[loop.Index] = true
	if loop.Index != s.Index {
		lw.env[s.Index] = indexVal
	} else {
		delete(lw.env, s.Index)
	}
	lw.loops = append(lw.loops, loop)

	// Any scalar assigned in the body holds a loop-varying value at the top
	// of an arbitrary iteration: havoc it, unless it is a recognized
	// induction variable, whose closed form we know exactly. (Without the
	// havoc, self-referential accumulators like x = x + i would incorrectly
	// keep their first-iteration value.)
	for name := range assigned {
		if !isInduction(inds, name) && !lw.active[name] {
			lw.env[name] = value{}
		}
	}
	// Before the increment executes, an induction variable's value is
	// entry + step·(completed iterations). The completed iterations are the
	// normalized counter itself, or i - lo for a unit-step loop (inductions
	// are only recognized when lo is known).
	if len(inds) > 0 {
		iterOffset := lw.variable(loop.Index)
		if step == 1 {
			iterOffset = iterOffset.Sub(lo)
		}
		for _, ind := range inds {
			lw.env[ind.name] = value{known: true, expr: ind.entry.Add(iterOffset.Scale(ind.step))}
		}
	}

	for _, st := range s.Body {
		lw.stmt1InLoop(st, inds)
	}

	// Exit loop scope: body-assigned scalars are unknown afterwards
	// (conservative; exact trip-count exit values are not needed by the
	// dependence tests).
	lw.loops = lw.loops[:len(lw.loops)-1]
	delete(lw.active, loop.Index)
	lw.active[s.Index] = savedActive
	if hadVal {
		lw.env[s.Index] = savedVal
	} else {
		delete(lw.env, s.Index)
	}
	for name := range assigned {
		if !lw.active[name] {
			lw.env[name] = value{}
		}
	}
	// Values referencing the (now dead) loop variables are stale too.
	for name, v := range lw.env {
		if v.known && (v.expr.Uses(s.Index) && !lw.active[s.Index] || v.expr.Uses(loop.Index)) {
			lw.env[name] = value{}
		}
	}
}

// tripBound computes ⌊(hi-lo)/step⌋ (or ⌊(lo-hi)/|step|⌋ for negative
// steps) as an affine expression when possible: either the difference is
// constant, or every coefficient divides evenly.
func tripBound(lo ir.Expr, loOK bool, hi ir.Expr, hiOK bool, step int64) (ir.Expr, bool) {
	if !loOK || !hiOK {
		return ir.Expr{}, false
	}
	diff := hi.Sub(lo)
	mag := step
	if mag < 0 {
		mag = -mag
		diff = lo.Sub(hi)
	}
	if diff.IsConst() {
		return ir.NewConst(linalg.FloorDiv(diff.Const, mag)), true
	}
	// exact division of every term
	out := ir.Expr{}
	if diff.Const%mag != 0 {
		// ⌊(e+c)/m⌋ with variable e is not affine unless everything divides
		return ir.Expr{}, false
	}
	out.Const = diff.Const / mag
	for _, v := range diff.Vars() {
		c := diff.Coeff(v)
		if c%mag != 0 {
			return ir.Expr{}, false
		}
		out = out.Add(ir.NewTerm(v, c/mag))
	}
	return out, true
}

// forLoopOpaque handles loops whose step cannot be analyzed: the body is
// still walked (to surface reference sites behind warnings and to keep
// nested structure), but the index is unknown, so references using it are
// skipped conservatively.
func (lw *lowerer) forLoopOpaque(s *lang.For) {
	lw.loopID++
	loop := ir.Loop{Index: s.Index, NoLower: true, NoUpper: true, ID: lw.loopID}
	assigned := assignCounts(s.Body, nil)
	lw.recordCarriedScalars(loop.ID, s.Body, assigned, nil)
	savedActive := lw.active[s.Index]
	savedVal, hadVal := lw.env[s.Index]
	lw.active[s.Index] = false
	lw.env[s.Index] = value{} // unknown
	lw.loops = append(lw.loops, loop)
	for name := range assigned {
		if !lw.active[name] {
			lw.env[name] = value{}
		}
	}
	for _, st := range s.Body {
		lw.lowerStmt(st)
	}
	lw.loops = lw.loops[:len(lw.loops)-1]
	lw.active[s.Index] = savedActive
	if hadVal {
		lw.env[s.Index] = savedVal
	} else {
		delete(lw.env, s.Index)
	}
	for name := range assigned {
		if !lw.active[name] {
			lw.env[name] = value{}
		}
	}
}

// stmt1InLoop processes a body statement, flipping induction phases at their
// increment statements.
func (lw *lowerer) stmt1InLoop(st lang.Stmt, inds []induction) {
	if a, ok := st.(*lang.Assign); ok {
		for _, ind := range inds {
			if a == ind.stmt {
				// after the increment, value advances by one step
				v := lw.env[ind.name]
				lw.env[ind.name] = value{known: true, expr: v.expr.AddConst(ind.step)}
				lw.stmtID++
				lw.collectReads(a.RHS)
				return
			}
		}
	}
	lw.lowerStmt(st)
}

// findInductions recognizes scalars with exactly one assignment in the loop
// body (counts is assignCounts of the body), of the form v = v ± const at
// the top level, whose entry value is a known affine expression.
func (lw *lowerer) findInductions(s *lang.For, counts map[string]int) []induction {
	var out []induction
	for _, st := range s.Body {
		a, ok := st.(*lang.Assign)
		if !ok || a.LHSVar == "" {
			continue
		}
		v := a.LHSVar
		if counts[v] != 1 {
			continue
		}
		step, ok := selfIncrement(a, v, lw)
		if !ok {
			continue
		}
		entry, known := lw.env[v]
		if !known || !entry.known {
			continue
		}
		out = append(out, induction{name: v, step: step, entry: entry.expr, stmt: a})
	}
	return out
}

// isInduction reports whether name is one of the recognized inductions.
func isInduction(inds []induction, name string) bool {
	for _, ind := range inds {
		if ind.name == name {
			return true
		}
	}
	return false
}

// assignCounts counts assignments (and reads) per scalar across the
// statement list, including nested loops, into counts; its keys are the
// scalars the list assigns. counts may be nil: it is allocated at the
// first scalar assignment, so a body assigning none costs no map.
func assignCounts(ss []lang.Stmt, counts map[string]int) map[string]int {
	for _, s := range ss {
		name := ""
		switch s := s.(type) {
		case *lang.Assign:
			name = s.LHSVar
		case *lang.For:
			counts = assignCounts(s.Body, counts)
		case *lang.Read:
			name = s.Var
		}
		if name != "" {
			if counts == nil {
				counts = make(map[string]int)
			}
			counts[name]++
		}
	}
	return counts
}

// selfIncrement matches v = v + c / v = v - c / v = c + v with constant c.
func selfIncrement(a *lang.Assign, v string, lw *lowerer) (int64, bool) {
	b, ok := a.RHS.(*lang.BinOp)
	if !ok || (b.Op != '+' && b.Op != '-') {
		return 0, false
	}
	if id, ok := b.L.(*lang.Ident); ok && id.Name == v {
		if c, ok := constOf(b.R, lw); ok {
			if b.Op == '-' {
				return -c, true
			}
			return c, true
		}
	}
	if b.Op == '+' {
		if id, ok := b.R.(*lang.Ident); ok && id.Name == v {
			if c, ok := constOf(b.L, lw); ok {
				return c, true
			}
		}
	}
	return 0, false
}

// constOf evaluates an expression to a constant if possible (without
// introducing new symbols).
func constOf(e lang.Expr, lw *lowerer) (int64, bool) {
	switch e := e.(type) {
	case *lang.Num:
		return e.Value, true
	case *lang.Neg:
		c, ok := constOf(e.X, lw)
		return -c, ok
	case *lang.Ident:
		if v, ok := lw.env[e.Name]; ok && v.known && v.expr.IsConst() {
			return v.expr.Const, true
		}
		return 0, false
	case *lang.BinOp:
		l, lok := constOf(e.L, lw)
		r, rok := constOf(e.R, lw)
		if !lok || !rok {
			return 0, false
		}
		switch e.Op {
		case '+':
			return l + r, true
		case '-':
			return l - r, true
		case '*':
			return l * r, true
		}
	}
	return 0, false
}

// recordCarriedScalars finds scalars whose value flows across iterations of
// the loop body: read at some program point with no prior assignment in the
// body. Recognized induction variables are excluded (their uses were
// substituted by closed forms, so no cross-iteration flow remains). These
// scalars serialize the loop regardless of array dependences (classic
// reductions like s = s + a[i]). assigned is assignCounts of the body.
func (lw *lowerer) recordCarriedScalars(loopID int, body []lang.Stmt, assigned map[string]int, inds []induction) {
	// Carried and private scalars are both subsets of the assigned ones.
	if len(assigned) == 0 {
		return
	}
	carried := carriedScalars(body, assigned, inds)
	if len(carried) > 0 {
		if lw.carried == nil {
			lw.carried = make(map[int][]string)
		}
		lw.carried[loopID] = carried
	}
	var private []string
	for name := range assigned {
		if !slices.Contains(carried, name) {
			private = append(private, name)
		}
	}
	if len(private) > 0 {
		sort.Strings(private)
		if lw.private == nil {
			lw.private = make(map[int][]string)
		}
		lw.private[loopID] = private
	}
}

// carriedScalars walks the body in program order tracking which scalars have
// been assigned; a read of a body-assigned, not-yet-written scalar is a
// loop-carried use. Recognized inductions are never carried.
func carriedScalars(body []lang.Stmt, assigned map[string]int, inds []induction) []string {
	written := map[string]bool{}
	carriedSet := map[string]bool{}
	var walkExpr func(e lang.Expr)
	walkExpr = func(e lang.Expr) {
		switch e := e.(type) {
		case *lang.Ident:
			if assigned[e.Name] > 0 && !written[e.Name] && !isInduction(inds, e.Name) {
				carriedSet[e.Name] = true
			}
		case *lang.BinOp:
			walkExpr(e.L)
			walkExpr(e.R)
		case *lang.Neg:
			walkExpr(e.X)
		case *lang.Index:
			for _, sub := range e.Subs {
				walkExpr(sub)
			}
		}
	}
	var walkStmt func(st lang.Stmt)
	walkStmt = func(st lang.Stmt) {
		switch st := st.(type) {
		case *lang.Assign:
			if st.LHSArray != nil {
				for _, sub := range st.LHSArray.Subs {
					walkExpr(sub)
				}
			}
			walkExpr(st.RHS)
			if st.LHSVar != "" {
				written[st.LHSVar] = true
			}
		case *lang.For:
			walkExpr(st.Lo)
			walkExpr(st.Hi)
			if st.Step != nil {
				walkExpr(st.Step)
			}
			for _, inner := range st.Body {
				walkStmt(inner)
			}
		case *lang.Read:
			written[st.Var] = true
		}
	}
	for _, st := range body {
		walkStmt(st)
	}
	out := make([]string, 0, len(carriedSet))
	for name := range carriedSet {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
