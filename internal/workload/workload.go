// Package workload synthesizes the evaluation suite. The paper evaluates on
// the 13 PERFECT Club Fortran programs, which are not freely
// redistributable; this package substitutes generators that emit loop-
// language source whose population of dependence problems matches, per
// program, the category mix the paper reports in Tables 1 and 3: constant-
// subscript pairs, GCD-independent pairs, and pairs decided by SVPC /
// Acyclic / Loop Residue / Fourier–Motzkin, with the reported unique-pattern
// counts so the memoization behaviour (Table 2) and the direction-vector
// costs (Tables 4, 5, 7) emerge from the same mechanisms as in the paper.
//
// Every generated case is one assignment over a distinct array, so each
// contributes exactly one candidate pair when self-pairs are excluded.
// Pattern→test-category mappings are locked in by tests in this package
// against the real pipeline.
//
// The suite runner (Run/RunInto/RunSuite, configured by RunnerOptions)
// drives generated programs through the corpus driver and the analyzer;
// RunnerOptions.Workers sizes both (core.Analyzer.AnalyzeAll) without
// changing results.
package workload

import (
	"fmt"
	"strings"
)

// CatSpec sizes one test category for a program: Total cases, of which
// Unique distinct patterns (each repeated Total/Unique times), of which
// IndepUnique patterns are independent (the rest dependent).
type CatSpec struct {
	Total, Unique, IndepUnique int
}

// SymSpec sizes the extra symbolic patterns of Table 7: unique patterns
// whose base test lands in SVPC / Acyclic / Fourier–Motzkin respectively.
type SymSpec struct {
	SVPC, Acyclic, FM int
}

// Spec describes one synthetic program of the suite.
type Spec struct {
	Name  string
	Lines int // the paper's source-line count, used for reporting
	// Paper-calibrated category sizes (Tables 1 and 3).
	Constant int
	GCD      CatSpec
	SVPC     CatSpec
	Acyclic  CatSpec
	Residue  CatSpec
	FM       CatSpec
	// Sym adds Table 7's symbolic-only cases.
	Sym SymSpec
	// Depth is the number of *used* enclosing dimensions wrapped around
	// each pattern (constant-distance subscripts, pruned by the distance
	// vectors of Table 5). Free is the number of *unused* enclosing loops
	// (3-way direction branching in Table 4, pruned as '*' in Table 5).
	// Together they drive the direction-vector costs exactly as nesting
	// does in the real programs.
	Depth int
	Free  int
}

// Programs returns the 13 program specs, calibrated to the paper's Tables 1
// and 3 (totals and unique counts per test) with hand-assigned unique splits
// for the categories the paper does not break down (constants, GCD,
// independents).
func Programs() []Spec {
	return []Spec{
		{Name: "AP", Lines: 6104, Constant: 229, GCD: CatSpec{91, 4, 4},
			SVPC: CatSpec{613, 27, 1}, Depth: 1, Free: 1,
			Sym: SymSpec{SVPC: 6, Acyclic: 8}},
		{Name: "CS", Lines: 18520, Constant: 50,
			SVPC: CatSpec{127, 14, 1}, Acyclic: CatSpec{15, 6, 1}, Free: 1,
			Sym: SymSpec{SVPC: 4, Acyclic: 6, FM: 2}},
		{Name: "LG", Lines: 2327, Constant: 6961,
			SVPC: CatSpec{73, 23, 1}, Depth: 2, Free: 2,
			Sym: SymSpec{SVPC: 4}},
		{Name: "LW", Lines: 1237, Constant: 54,
			SVPC: CatSpec{34, 15, 0}, Acyclic: CatSpec{43, 2, 0}, Free: 1},
		{Name: "MT", Lines: 3785, Constant: 49,
			SVPC: CatSpec{326, 14, 0}, Free: 1, Sym: SymSpec{SVPC: 5}},
		{Name: "NA", Lines: 3976, Constant: 45,
			SVPC: CatSpec{679, 48, 1}, Acyclic: CatSpec{202, 11, 0},
			Residue: CatSpec{1, 1, 0}, FM: CatSpec{2, 1, 0}, Free: 1,
			Sym: SymSpec{SVPC: 7, Acyclic: 20, FM: 5}},
		{Name: "OC", Lines: 2739, Constant: 2, GCD: CatSpec{7, 2, 2},
			SVPC: CatSpec{36, 5, 0}, Free: 1, Sym: SymSpec{Acyclic: 1}},
		{Name: "SD", Lines: 7607, Constant: 949,
			SVPC: CatSpec{526, 36, 1}, Acyclic: CatSpec{17, 6, 0},
			Residue: CatSpec{5, 3, 0}, FM: CatSpec{12, 4, 1}, Free: 1},
		{Name: "SM", Lines: 2759, Constant: 1004, GCD: CatSpec{98, 4, 4},
			SVPC: CatSpec{264, 8, 0}, Depth: 1, Free: 1},
		{Name: "SR", Lines: 3970, Constant: 1679,
			SVPC: CatSpec{1290, 14, 0}, Free: 1,
			Sym: SymSpec{SVPC: 7, Acyclic: 1, FM: 1}},
		{Name: "TF", Lines: 2020, Constant: 801, GCD: CatSpec{6, 2, 2},
			SVPC: CatSpec{826, 20, 0}, Free: 1, Sym: SymSpec{SVPC: 20}},
		{Name: "TI", Lines: 484,
			SVPC: CatSpec{4, 3, 0}, Acyclic: CatSpec{42, 8, 1}, Depth: 1, Free: 1},
		{Name: "WS", Lines: 3884, Constant: 36, GCD: CatSpec{182, 8, 8},
			SVPC: CatSpec{378, 35, 1}, Acyclic: CatSpec{4, 1, 0},
			FM: CatSpec{160, 27, 1}, Free: 1, Sym: SymSpec{Acyclic: 4, FM: 2}},
	}
}

// ProgramByName returns the spec with the given name.
func ProgramByName(name string) (Spec, bool) {
	for _, s := range Programs() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// salt derives a small per-program integer from the name, so two programs'
// v-th patterns differ structurally (as distinct real programs would) and
// cross-program memoization still finds mostly fresh cases.
func salt(name string) int {
	h := 0
	for _, c := range name {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return h % 37
}

// gen accumulates generated source.
type gen struct {
	b     strings.Builder
	array int // distinct array name counter
	free  int // unused wrapper loops for the next pattern (outermost)
	used  int // used wrapper dimensions (constant-distance subscripts)
	salt  int // per-program parameter salt (keeps programs' patterns distinct)
}

func (g *gen) arr() string {
	g.array++
	return fmt.Sprintf("a%d", g.array)
}

// wrap emits the pattern body inside the program's outer loops: g.free
// *unused* loops first (their indices never appear in a subscript — they
// cost three-way direction branching until pruned as '*'), then up to
// wantUsed *used* dimensions whose subscript prefixes ("[u1]…" on the A
// side, "[u1-1]…" on the B side) give constant dependence distances the way
// real array kernels do (pruned by distance vectors).
func (g *gen) wrap(wantUsed int, body func(indent, subA, subB string)) {
	used := g.used
	if wantUsed < used {
		used = wantUsed
	}
	total := g.free + used
	indent := ""
	subA, subB := "", ""
	for d := 0; d < g.free; d++ {
		fmt.Fprintf(&g.b, "%sfor w%d = 1 to 10\n", indent, d+1)
		indent += "  "
	}
	for d := 0; d < used; d++ {
		fmt.Fprintf(&g.b, "%sfor u%d = 1 to 10\n", indent, d+1)
		indent += "  "
		subA += fmt.Sprintf("[u%d]", d+1)
		subB += fmt.Sprintf("[u%d-1]", d+1)
	}
	body(indent, subA, subB)
	for d := total - 1; d >= 0; d-- {
		g.b.WriteString(strings.Repeat("  ", d) + "end\n")
	}
}

// Source generates the program's loop-language source. With symbolic=true
// the Table 7 extra symbolic cases are appended.
func Source(s Spec, symbolic bool) string {
	g := &gen{free: s.Free, used: s.Depth, salt: salt(s.Name)}
	fmt.Fprintf(&g.b, "program %s\n", s.Name)
	if symbolic && (s.Sym != SymSpec{}) {
		g.b.WriteString("read(n)\n")
	}

	// Constant cases: a[c1] = a[c2], cycling over a small variety with
	// every fifth pair equal (trivially dependent).
	for i := 0; i < s.Constant; i++ {
		a := g.arr()
		c1 := 3 + i%5
		c2 := c1 + 1
		if i%5 == 4 {
			c2 = c1
		}
		fmt.Fprintf(&g.b, "%s[%d] = %s[%d]\n", a, c1, a, c2)
	}

	emit := func(spec CatSpec, pattern func(g *gen, v int, indep bool)) {
		if spec.Unique == 0 {
			return
		}
		reps := spec.Total / spec.Unique
		extra := spec.Total - reps*spec.Unique
		for v := 0; v < spec.Unique; v++ {
			n := reps
			if v < extra {
				n++
			}
			for r := 0; r < n; r++ {
				// Every fourth repetition appears under one extra unused
				// loop, the way the same subscript pattern recurs across
				// differently nested loops in real code. The improved memo
				// scheme collapses the variants; the simple scheme sees
				// distinct keys (the Table 2 gap).
				g.free = s.Free
				if r%4 == 3 {
					g.free = s.Free + 1
				}
				pattern(g, v, v < spec.IndepUnique)
			}
		}
		g.free = s.Free
	}

	emit(s.GCD, gcdPattern)
	emit(s.SVPC, svpcPattern)
	emit(s.Acyclic, acyclicPattern)
	emit(s.Residue, residuePattern)
	emit(s.FM, fmPattern)

	if symbolic {
		emit(CatSpec{Total: 2 * s.Sym.SVPC, Unique: s.Sym.SVPC}, symSVPCPattern)
		emit(CatSpec{Total: 2 * s.Sym.Acyclic, Unique: s.Sym.Acyclic}, symAcyclicPattern)
		emit(CatSpec{Total: 2 * s.Sym.FM, Unique: s.Sym.FM}, symFMPattern)
	}
	return g.b.String()
}

// gcdPattern: rejected by Extended GCD. Most variants are parity cases
// (a[g·i] = a[g·i+off] with g ∤ off), which the simple per-dimension GCD
// baseline also catches; variant v == 1 is instead a coupled-subscript
// inconsistency (a[i][i] = a[i-c][i]) that only the Extended GCD sees —
// these are the pairs the §7 baseline misses (the paper's 16%).
func gcdPattern(g *gen, v int, _ bool) {
	a := g.arr()
	n := 100 + 2*v + g.salt
	if v == 1 {
		c := 1 + (v+g.salt)%3
		g.wrap(0, func(ind, _, _ string) {
			fmt.Fprintf(&g.b, "%sfor i = 1 to %d\n%s  %s[i][i] = %s[i-%d][i]\n%send\n",
				ind, n, ind, a, a, c, ind)
		})
		return
	}
	coeff := 2 + (v+g.salt)%3
	off := 1 + (v+g.salt)%coeff
	if off%coeff == 0 {
		off++
	}
	g.wrap(0, func(ind, _, _ string) {
		fmt.Fprintf(&g.b, "%sfor i = 1 to %d\n%s  %s[%d*i] = %s[%d*i+%d]\n%send\n",
			ind, n, ind, a, coeff, a, coeff, off, ind)
	})
}

// svpcPattern: single loop, constant-distance (dependent) or out-of-range
// offset (independent); every fourth variant uses the paper's coupled 2-D
// form, which SVPC still decides after GCD preprocessing.
func svpcPattern(g *gen, v int, indep bool) {
	a := g.arr()
	n := 100 + 2*v + g.salt
	if v%4 == 3 {
		// coupled subscripts: a[i][j] = a[j+c][i+d]
		c, d := 1+(v+g.salt)%3, 2+(v+g.salt)%3
		if indep {
			c, d = n+10, n+9 // unreachable offsets → independent
		}
		g.wrap(g.used, func(ind, pA, pB string) {
			fmt.Fprintf(&g.b, "%sfor i = 1 to %d\n%s  for j = 1 to %d\n%s    %s%s[i][j] = %s%s[j+%d][i+%d]\n%s  end\n%send\n",
				ind, n, ind, n, ind, a, pA, a, pB, c, d, ind, ind)
		})
		return
	}
	k := 1 + (v+g.salt)%9
	if indep {
		k = n + 10 + v
	}
	if v%5 == 2 && !indep && v > 0 {
		// mirrored orientation (anti-dependence flavour): the exact mirror
		// of variant v-1, a distinct canonical problem to the memo tables
		// (the paper's §5 symmetric matching would merge the two), as in
		// real programs where a kernel both reads ahead and writes behind
		// the same stencil.
		mn := 100 + 2*(v-1) + g.salt
		mk := 1 + (v-1+g.salt)%9
		g.wrap(g.used, func(ind, pA, pB string) {
			fmt.Fprintf(&g.b, "%sfor i = 1 to %d\n%s  %s%s[i] = %s%s[i+%d]\n%send\n",
				ind, mn, ind, a, pA, a, pB, mk, ind)
		})
		return
	}
	g.wrap(g.used, func(ind, pA, pB string) {
		fmt.Fprintf(&g.b, "%sfor i = 1 to %d\n%s  %s%s[i+%d] = %s%s[i]\n%send\n",
			ind, n, ind, a, pA, k, a, pB, ind)
	})
}

// acyclicPattern: triangular inner bound (for j = i to n) makes the
// t-space constraints multi-variable but acyclic.
func acyclicPattern(g *gen, v int, indep bool) {
	a := g.arr()
	n := 100 + 2*v + g.salt
	k := 1 + (v+g.salt)%7
	if indep {
		k = n + 60 + v
	}
	g.wrap(g.used, func(ind, pA, pB string) {
		fmt.Fprintf(&g.b, "%sfor i = 1 to %d\n%s  for j = i to %d\n%s    %s%s[j+%d] = %s%s[j]\n%s  end\n%send\n",
			ind, n, ind, n, ind, a, pA, k, a, pB, ind, ind)
	})
}

// residuePattern: a banded inner loop (for j = i to i+K) bounds j from both
// sides by i, producing a difference-constraint cycle — Loop Residue
// territory.
func residuePattern(g *gen, v int, _ bool) {
	a := g.arr()
	n := 100 + 2*v + g.salt
	band := 3 + (v+g.salt)%5
	k := 1 + (v+g.salt)%3
	g.wrap(g.used, func(ind, pA, pB string) {
		fmt.Fprintf(&g.b, "%sfor i = 1 to %d\n%s  for j = i to i+%d\n%s    %s%s[j+%d] = %s%s[j]\n%s  end\n%send\n",
			ind, n, ind, band, ind, a, pA, k, a, pB, ind, ind)
	})
}

// fmPattern: a scaled band (for j = 2i to 2i+K) produces two-variable
// constraints with unequal coefficients; only Fourier–Motzkin applies.
func fmPattern(g *gen, v int, indep bool) {
	a := g.arr()
	n := 100 + 2*v + g.salt
	band := 3 + (v+g.salt)%4
	k := 1 + (v+g.salt)%5
	if indep {
		// out-of-range offset across the whole scaled band
		k = 2*n + band + 10 + v
	}
	g.wrap(g.used, func(ind, pA, pB string) {
		fmt.Fprintf(&g.b, "%sfor i = 1 to %d\n%s  for j = 2*i to 2*i+%d\n%s    %s%s[j+%d] = %s%s[j]\n%s  end\n%send\n",
			ind, n, ind, band, ind, a, pA, k, a, pB, ind, ind)
	})
}

// symSVPCPattern: the symbol cancels in the subscript difference, so SVPC
// still decides; the case is only expressible with symbolic support.
func symSVPCPattern(g *gen, v int, _ bool) {
	a := g.arr()
	n := 100 + 2*v + g.salt
	k := 1 + (v+g.salt)%5
	g.wrap(0, func(ind, _, _ string) {
		fmt.Fprintf(&g.b, "%sfor i = 1 to %d\n%s  %s[i+n+%d] = %s[i+n]\n%send\n",
			ind, n, ind, a, k, a, ind)
	})
}

// symAcyclicPattern: a symbolic triangular nest — both the i ≤ n bound and
// the j ≥ i bound are multi-variable constraints, pushing the case to the
// Acyclic test and leaving non-constant distances for the direction
// refinement to enumerate (the Table 7 shift from SVPC toward Acyclic the
// paper observes).
func symAcyclicPattern(g *gen, v int, _ bool) {
	a := g.arr()
	k := 1 + (v+g.salt)%5
	g.wrap(0, func(ind, _, _ string) {
		fmt.Fprintf(&g.b, "%sfor i = 1 to n\n%s  for j = i to n\n%s    %s[j+%d] = %s[j]\n%s  end\n%send\n",
			ind, ind, ind, a, k, a, ind, ind)
	})
}

// symFMPattern: the paper's §8 example shape a[i+n] = a[i+2n+1]: the symbol
// survives into the equations with different coefficients, requiring the
// backup test.
func symFMPattern(g *gen, v int, _ bool) {
	a := g.arr()
	n := 100 + 2*v + g.salt
	g.wrap(0, func(ind, _, _ string) {
		fmt.Fprintf(&g.b, "%sfor i = 1 to %d\n%s  %s[i+n] = %s[i+2*n+%d]\n%send\n",
			ind, n, ind, a, a, 1+v%3, ind)
	})
}
