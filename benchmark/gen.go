package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"exactdep/internal/workload"
)

// Seeded inputs. The seed picks program shapes, names and edit targets;
// the program under test only ever sees the generated loop-language text.

// program is one generated DSL file or request body.
type program struct {
	Name  string
	Src   string
	Nests int
}

// newRand derives an independent stream per (seed, purpose) pair, so
// adding draws for one purpose never shifts another's inputs.
func newRand(seed int64, purpose string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range purpose {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed*1000003 ^ h))
}

// programName draws a fresh program name (a DSL identifier; it also salts
// the generated patterns, so distinct names give distinct programs).
func programName(r *rand.Rand, prefix string, used map[string]bool) string {
	const alphabet = "ABCDEFGHJKLMNPQRSTUVWXYZ23456789"
	for {
		b := []byte(prefix)
		for i := 0; i < 5; i++ {
			b = append(b, alphabet[r.Intn(len(alphabet))])
		}
		if n := string(b); !used[n] {
			used[n] = true
			return n
		}
	}
}

// shapeRanges are the LargeCorpus-shaped programs' seeded parameters and
// their ranges (inclusive), in the order largeSpecs assigns them.
var shapeRanges = [...][2]int{
	{2, 4},   // GCD unique patterns (all independent)
	{10, 16}, // SVPC unique patterns
	{1, 2},   // SVPC independent patterns
	{4, 7},   // Acyclic unique patterns
	{0, 1},   // Acyclic independent patterns
	{2, 3},   // Loop Residue unique patterns
	{3, 5},   // Fourier–Motzkin unique patterns
	{0, 2},   // Depth: used enclosing dimensions
	{1, 2},   // Free: unused enclosing loops
}

// largeSpecs draws n LargeCorpus-shaped programs: 128 single-assignment
// nests each, with the category totals of workload.LargeCorpus. The shapes
// form a balanced design: every parameter cycles through its range across
// the n programs and the seed shuffles each parameter's values among them
// independently, so every seed's set holds the same multiset of values per
// parameter, and its total work barely depends on the seed, while which
// program gets which shape, and every name, does.
func largeSpecs(r *rand.Rand, n int, prefix string, used map[string]bool) []workload.Spec {
	var vals [len(shapeRanges)][]int
	for k, rg := range shapeRanges {
		vals[k] = make([]int, n)
		for i := range vals[k] {
			vals[k][i] = rg[0] + i%(rg[1]-rg[0]+1)
		}
		r.Shuffle(n, func(i, j int) { vals[k][i], vals[k][j] = vals[k][j], vals[k][i] })
	}
	specs := make([]workload.Spec, n)
	for i := range specs {
		v := func(k int) int { return vals[k][i] }
		specs[i] = workload.Spec{
			Name:     programName(r, prefix, used),
			Lines:    1200,
			Constant: 16,
			GCD:      workload.CatSpec{Total: 16, Unique: v(0), IndepUnique: v(0)},
			SVPC:     workload.CatSpec{Total: 48, Unique: v(1), IndepUnique: v(2)},
			Acyclic:  workload.CatSpec{Total: 24, Unique: v(3), IndepUnique: v(4)},
			Residue:  workload.CatSpec{Total: 8, Unique: v(5)},
			FM:       workload.CatSpec{Total: 16, Unique: v(6), IndepUnique: 1},
			Depth:    v(7),
			Free:     v(8),
		}
	}
	return specs
}

// nestsPerProgram is the nest count of every largeSpecs program.
const nestsPerProgram = 128

// largePrograms draws n LargeCorpus-shaped programs.
func largePrograms(seed int64, purpose, prefix string, n int, used map[string]bool) []program {
	specs := largeSpecs(newRand(seed, purpose), n, prefix, used)
	out := make([]program, n)
	for i, s := range specs {
		out[i] = program{Name: s.Name, Src: workload.Source(s, false), Nests: nestsPerProgram}
	}
	return out
}

// fmHardShapes is the FM-hard share of corpus-cold: chains of
// bound-coupled loops that only Fourier–Motzkin decides. The shapes are
// fixed, since a single deep chain costs as much as several programs;
// the seed picks the names.
var fmHardShapes = []workload.FMHardSpec{{Depth: 3, Cases: 6}, {Depth: 3, Cases: 6}, {Depth: 4, Cases: 6}, {Depth: 4, Cases: 6}}

func fmHardPrograms(seed int64, used map[string]bool) []program {
	r := newRand(seed, "fmhard")
	out := make([]program, len(fmHardShapes))
	for i, s := range fmHardShapes {
		s.Name = programName(r, "F", used)
		out[i] = program{Name: s.Name, Src: workload.FMHardSource(s), Nests: s.Cases}
	}
	return out
}

// editLine matches a pattern nest's own loop, the line an edit rewrites.
var editLine = regexp.MustCompile(`^(\s*for i = 1 to )(\d+)$`)

// editTargets lists the line numbers an edit may rewrite.
func editTargets(src string) []int {
	var out []int
	for i, l := range strings.Split(src, "\n") {
		if editLine.MatchString(l) {
			out = append(out, i)
		}
	}
	return out
}

// applyEdit is a programmer's edit: the loop on line target runs delta
// iterations further. Any delta > 0 changes the unit's fingerprint, and
// distinct (target, delta) pairs give distinct sources.
func applyEdit(src string, target, delta int) string {
	lines := strings.Split(src, "\n")
	m := editLine.FindStringSubmatch(lines[target])
	if m == nil {
		panic(fmt.Sprintf("edit target line %d is not a pattern loop", target))
	}
	n, _ := strconv.Atoi(m[2])
	lines[target] = m[1] + strconv.Itoa(n+delta)
	return strings.Join(lines, "\n")
}

// editVariant is the v-th edit of a program (v >= 0): a seeded target line
// and a bound raised by v+1, so every variant of one program differs.
func editVariant(seed int64, p program, v int) program {
	targets := editTargets(p.Src)
	r := newRand(seed, fmt.Sprintf("edit/%s/%d", p.Name, v))
	return program{Name: p.Name, Src: applyEdit(p.Src, targets[r.Intn(len(targets))], v+1), Nests: p.Nests}
}
