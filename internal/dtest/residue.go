package dtest

import (
	"fmt"
	"strings"

	"exactdep/internal/linalg"
)

// ResidueGraph is the constraint graph of the Loop Residue test (paper §3.4,
// Figure 1): one node per variable plus the special node n0 representing the
// constant 0, and an edge u→v with weight w for every constraint
// t_u ≤ t_v + w. A cycle's weight bounds 0 ≤ w, so any negative cycle
// refutes the system.
type ResidueGraph struct {
	N     int // variable nodes 0..N-1; node N is n0
	Edges []ResidueEdge
}

// ResidueEdge is a single difference constraint t_From ≤ t_To + Weight.
type ResidueEdge struct {
	From, To int
	Weight   int64
}

// node names n0 as "t0"-style labels for rendering.
func (g *ResidueGraph) nodeName(i int) string {
	if i == g.N {
		return "n0"
	}
	return fmt.Sprintf("t%d", i+1)
}

// String renders the graph edge list deterministically (used to reproduce
// the paper's Figure 1).
func (g *ResidueGraph) String() string {
	var b strings.Builder
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "%s -> %s [%d]\n", g.nodeName(e.From), g.nodeName(e.To), e.Weight)
	}
	return b.String()
}

// Dot renders the graph in Graphviz dot syntax.
func (g *ResidueGraph) Dot() string {
	var b strings.Builder
	b.WriteString("digraph residue {\n")
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "  %s -> %s [label=\"%d\"];\n", g.nodeName(e.From), g.nodeName(e.To), e.Weight)
	}
	b.WriteString("}\n")
	return b.String()
}

// BuildResidueGraph converts the state into a residue graph. It reports
// ok=false when some multi-variable constraint is not expressible as
// a·(t_i - t_j) ≤ c — the class Shostak's extensions handle only inexactly,
// which the paper therefore routes to Fourier–Motzkin instead.
func BuildResidueGraph(s *state) (*ResidueGraph, bool) {
	g := &ResidueGraph{}
	if !buildResidueGraphInto(g, s) {
		return nil, false
	}
	return g, true
}

// buildResidueGraphInto is BuildResidueGraph reusing g's edge buffer.
func buildResidueGraphInto(g *ResidueGraph, s *state) bool {
	g.N = s.n
	g.Edges = g.Edges[:0]
	for _, c := range s.multi {
		// exactly two variables with coefficients +a and -a
		pi, ni := -1, -1
		var a int64
		ok := true
		for j, v := range c.Coef {
			switch {
			case v == 0:
			case v > 0 && pi == -1:
				pi, a = j, v
			case v < 0 && ni == -1:
				ni = j
				if a != 0 && -v != a {
					ok = false
				}
				if a == 0 {
					a = -v
				}
			default:
				ok = false
			}
		}
		if !ok || pi == -1 || ni == -1 || c.Coef[pi] != -c.Coef[ni] {
			return false
		}
		// a(t_pi - t_ni) ≤ c  →  t_pi - t_ni ≤ ⌊c/a⌋  (integer tightening,
		// the exact extension the paper describes for a·t_i ≤ a·t_j + c)
		g.Edges = append(g.Edges, ResidueEdge{From: pi, To: ni, Weight: linalg.FloorDiv(c.C, a)})
	}
	for i := 0; i < s.n; i++ {
		if s.ub[i].has { // t_i ≤ 0 + ub
			g.Edges = append(g.Edges, ResidueEdge{From: i, To: s.n, Weight: s.ub[i].v})
		}
		if s.lb[i].has { // 0 ≤ t_i - lb  →  n0 ≤ t_i + (-lb)
			g.Edges = append(g.Edges, ResidueEdge{From: s.n, To: i, Weight: -s.lb[i].v})
		}
	}
	return true
}

// LoopResidue runs the Loop Residue test (paper §3.4) on a system whose
// multi-variable constraints are all same-coefficient differences. The
// system is independent iff the residue graph has a negative-weight cycle;
// otherwise Bellman–Ford potentials give an integral witness (difference
// constraint systems are integrally feasible whenever real-feasible, which
// keeps the test exact). The bool reports applicability.
//
// This convenience wrapper allocates a private scratch; the pipeline calls
// residueApply on its own.
func LoopResidue(s *state) (Result, bool) {
	return residueApply(s, newScratch())
}

// residueApply is LoopResidue working out of sc: the graph, the distance
// vector, and the witness all reuse scratch buffers. The witness aliases sc
// and stays valid until its next prepare.
func residueApply(s *state, sc *Scratch) (Result, bool) {
	if s.infeasible || s.firstConflict() >= 0 {
		return independent(KindLoopResidue), true
	}
	g := &sc.graph
	if s.overflow || !buildResidueGraphInto(g, s) {
		return Result{}, false
	}
	dist, neg, err := bellmanFordInto(g, sc.dist)
	sc.dist = dist
	if err != nil {
		return Result{}, false // a path weight left int64: not applicable
	}
	if neg {
		return independent(KindLoopResidue), true
	}
	// Potentials: t_u ≤ t_v + w holds for t_x = -dist[x]; shift so that the
	// n0 node maps to exactly 0.
	w := sc.witness
	if cap(w) < s.n {
		w = make([]int64, s.n)
	} else {
		w = w[:s.n]
	}
	sc.witness = w
	shift := dist[g.N]
	for i := 0; i < s.n; i++ {
		if w[i], err = linalg.SubChecked(shift, dist[i]); err != nil {
			return Result{}, false
		}
	}
	return dependent(KindLoopResidue, w), true
}

// bellmanFordInto runs negative-cycle detection over the whole graph using
// an implicit super-source (all distances start at 0), reusing buf for the
// distance vector when it has capacity. It is ErrOverflow when a path
// weight leaves int64.
func bellmanFordInto(g *ResidueGraph, buf []int64) (dist []int64, negCycle bool, err error) {
	n := g.N + 1
	dist = buf
	if cap(dist) < n {
		dist = make([]int64, n)
	} else {
		dist = dist[:n]
		for i := range dist {
			dist[i] = 0
		}
	}
	for iter := 0; iter < n; iter++ {
		changed := false
		for _, e := range g.Edges {
			// edge From→To weight w encodes t_From ≤ t_To + w; in the
			// potential formulation relax dist[To] against dist[From] + w
			// reversed: we want dist such that dist[To] ≤ dist[From] + w.
			d, err := linalg.AddChecked(dist[e.From], e.Weight)
			if err != nil {
				return dist, false, err
			}
			if d < dist[e.To] {
				dist[e.To] = d
				changed = true
			}
		}
		if !changed {
			return dist, false, nil
		}
	}
	return dist, true, nil
}
