package ir

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewConstAndVar(t *testing.T) {
	c := NewConst(7)
	if !c.IsConst() || c.Const != 7 {
		t.Fatalf("NewConst(7) = %v", c)
	}
	v := NewVar("i")
	if v.Coeff("i") != 1 || v.Const != 0 {
		t.Fatalf("NewVar(i) = %v", v)
	}
	if NewTerm("i", 0).NumTerms() != 0 {
		t.Fatal("NewTerm with zero coeff should be constant 0")
	}
}

func TestAddSub(t *testing.T) {
	e := NewVar("i").Add(NewTerm("j", 2)).AddConst(3) // i + 2j + 3
	f := NewVar("i").Sub(NewVar("j"))                 // i - j
	sum := e.Add(f)
	if sum.Coeff("i") != 2 || sum.Coeff("j") != 1 || sum.Const != 3 {
		t.Fatalf("sum = %v", sum)
	}
	diff := e.Sub(f)
	if diff.Coeff("i") != 0 || diff.Coeff("j") != 3 || diff.Const != 3 {
		t.Fatalf("diff = %v", diff)
	}
	if diff.Uses("i") {
		t.Fatal("cancelled coefficient must be removed from Terms")
	}
}

func TestScaleAndNeg(t *testing.T) {
	e := NewVar("i").AddConst(5)
	if got := e.Scale(3); got.Coeff("i") != 3 || got.Const != 15 {
		t.Fatalf("Scale = %v", got)
	}
	if got := e.Scale(0); !got.IsZero() {
		t.Fatalf("Scale(0) = %v", got)
	}
	if got := e.Neg(); got.Coeff("i") != -1 || got.Const != -5 {
		t.Fatalf("Neg = %v", got)
	}
}

func TestMul(t *testing.T) {
	e := NewVar("i").AddConst(1)
	if got, ok := e.Mul(NewConst(4)); !ok || got.Coeff("i") != 4 || got.Const != 4 {
		t.Fatalf("Mul const = %v ok=%v", got, ok)
	}
	if got, ok := NewConst(-2).Mul(e); !ok || got.Coeff("i") != -2 || got.Const != -2 {
		t.Fatalf("const Mul = %v ok=%v", got, ok)
	}
	if _, ok := e.Mul(NewVar("j")); ok {
		t.Fatal("nonlinear product must report ok=false")
	}
}

func TestSubst(t *testing.T) {
	// i + 2j + 3 with j := i - 1  →  3i + 1
	e := NewVar("i").Add(NewTerm("j", 2)).AddConst(3)
	got := e.Subst("j", NewVar("i").AddConst(-1))
	if got.Coeff("i") != 3 || got.Coeff("j") != 0 || got.Const != 1 {
		t.Fatalf("Subst = %v", got)
	}
	// substituting an absent variable is a no-op copy
	same := e.Subst("k", NewConst(100))
	if !same.Equal(e) {
		t.Fatalf("Subst absent var changed expr: %v", same)
	}
}

func TestEval(t *testing.T) {
	e := NewTerm("i", 2).Add(NewTerm("j", -1)).AddConst(10)
	v, ok := e.Eval(map[string]int64{"i": 3, "j": 4})
	if !ok || v != 12 {
		t.Fatalf("Eval = %d ok=%v", v, ok)
	}
	if _, ok := e.Eval(map[string]int64{"i": 3}); ok {
		t.Fatal("Eval with missing var must fail")
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{NewConst(0), "0"},
		{NewConst(-4), "-4"},
		{NewVar("i"), "i"},
		{NewTerm("i", -1), "-i"},
		{NewTerm("i", 2).Add(NewTerm("j", -3)).AddConst(7), "2*i - 3*j + 7"},
		{NewTerm("j", 1).Add(NewTerm("i", 1)), "i + j"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.e, got, c.want)
		}
	}
}

// TestExprTextExtremes renders constants and coefficients at the int64
// extremes and at -1, as the first term and after another one. A negative
// value is written as a sign and a magnitude, so math.MinInt64 must not
// come out with a second minus sign.
func TestExprTextExtremes(t *testing.T) {
	const minS, maxS = "9223372036854775808", "9223372036854775807"
	cases := []struct {
		e    Expr
		want string
	}{
		{NewConst(math.MinInt64), "-" + minS},
		{NewConst(math.MaxInt64), maxS},
		{NewConst(-1), "-1"},
		{NewVar("i").AddConst(math.MinInt64), "i - " + minS},
		{NewVar("i").AddConst(math.MaxInt64), "i + " + maxS},
		{NewVar("i").AddConst(-1), "i - 1"},
		{NewTerm("i", math.MinInt64), "-" + minS + "*i"},
		{NewTerm("i", math.MaxInt64), maxS + "*i"},
		{NewTerm("i", -1), "-i"},
		{NewVar("i").Add(NewTerm("j", math.MinInt64)), "i - " + minS + "*j"},
		{NewVar("i").Add(NewTerm("j", math.MaxInt64)), "i + " + maxS + "*j"},
		{NewVar("i").Add(NewTerm("j", -1)), "i - j"},
		{NewTerm("i", math.MinInt64).Add(NewTerm("j", math.MinInt64)).AddConst(math.MinInt64),
			"-" + minS + "*i - " + minS + "*j - " + minS},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
		if got := string(c.e.AppendText([]byte("x="))); got != "x="+c.want {
			t.Errorf("AppendText after a prefix = %q, want %q", got, "x="+c.want)
		}
	}
}

func TestEqual(t *testing.T) {
	a := NewVar("i").AddConst(1)
	b := NewConst(1).Add(NewVar("i"))
	if !a.Equal(b) {
		t.Fatal("structurally equal exprs must compare equal")
	}
	if a.Equal(NewVar("i")) || a.Equal(NewVar("j").AddConst(1)) {
		t.Fatal("different exprs compared equal")
	}
}

func TestCloneIsolation(t *testing.T) {
	a := NewVar("i")
	b := a.Clone()
	_ = b.Add(NewVar("j")) // must not touch a or b
	c := b.Add(NewVar("k"))
	if a.Uses("j") || a.Uses("k") || b.Uses("k") {
		t.Fatal("Add mutated its receiver")
	}
	if !c.Uses("k") {
		t.Fatal("Add lost the added term")
	}
}

// Property: Add is commutative and Sub(x,x) is zero, over random small exprs.
func TestExprProperties(t *testing.T) {
	mk := func(ci, cj, k int8) Expr {
		return NewTerm("i", int64(ci)).Add(NewTerm("j", int64(cj))).AddConst(int64(k))
	}
	commutes := func(ai, aj, ak, bi, bj, bk int8) bool {
		a, b := mk(ai, aj, ak), mk(bi, bj, bk)
		return a.Add(b).Equal(b.Add(a))
	}
	if err := quick.Check(commutes, nil); err != nil {
		t.Error(err)
	}
	selfZero := func(ai, aj, ak int8) bool {
		a := mk(ai, aj, ak)
		return a.Sub(a).IsZero()
	}
	if err := quick.Check(selfZero, nil); err != nil {
		t.Error(err)
	}
	evalLinear := func(ai, aj, ak int8, x, y int16) bool {
		a := mk(ai, aj, ak)
		env := map[string]int64{"i": int64(x), "j": int64(y)}
		v, ok := a.Eval(env)
		want := int64(ai)*int64(x) + int64(aj)*int64(y) + int64(ak)
		return ok && v == want
	}
	if err := quick.Check(evalLinear, nil); err != nil {
		t.Error(err)
	}
}

func TestLoopString(t *testing.T) {
	l := Loop{Index: "i", Lower: NewConst(1), Upper: NewVar("n")}
	if got := l.String(); got != "for i = 1 to n" {
		t.Fatalf("Loop.String = %q", got)
	}
	l.NoUpper = true
	if got := l.String(); got != "for i = 1 to ?" {
		t.Fatalf("unbounded Loop.String = %q", got)
	}
}

func TestRefString(t *testing.T) {
	r := Ref{Array: "a", Subscripts: []Expr{NewVar("i").AddConst(1), NewVar("j")}, Kind: Write}
	if got := r.String(); got != "a[i + 1][j] (write)" {
		t.Fatalf("Ref.String = %q", got)
	}
}

func TestNestCommonDepth(t *testing.T) {
	n := &Nest{Loops: []Loop{{Index: "i"}, {Index: "j"}}}
	a := Ref{Depth: 2}
	b := Ref{Depth: 1}
	if d := n.CommonDepth(a, b); d != 1 {
		t.Fatalf("CommonDepth = %d", d)
	}
	if got := len(n.LoopsFor(a)); got != 2 {
		t.Fatalf("LoopsFor deep ref = %d loops", got)
	}
	deep := Ref{Depth: 5}
	if got := len(n.LoopsFor(deep)); got != 2 {
		t.Fatalf("LoopsFor clamps to nest depth, got %d", got)
	}
}

// model is the map-backed representation Expr used before its terms became
// a sorted slice, with the operations as they were written for it: the
// reference the differential test holds every operation to.
type model struct {
	c int64
	t map[string]int64
}

func (m model) set(v string, c int64) {
	if c == 0 {
		delete(m.t, v)
		return
	}
	m.t[v] = c
}

func (m model) clone() model {
	out := model{c: m.c, t: make(map[string]int64, len(m.t))}
	for v, c := range m.t {
		out.t[v] = c
	}
	return out
}

func (m model) add(f model, k int64) model {
	out := m.clone()
	out.c += k * f.c
	for v, c := range f.t {
		out.set(v, out.t[v]+k*c)
	}
	return out
}

func (m model) scale(k int64) model {
	out := model{c: m.c * k, t: map[string]int64{}}
	for v, c := range m.t {
		out.set(v, c*k)
	}
	return out
}

func (m model) subst(v string, repl model) model {
	c := m.t[v]
	out := m.clone()
	if c == 0 {
		return out
	}
	out.set(v, 0)
	return out.add(repl.scale(c), 1)
}

func (m model) vars() []string {
	vs := make([]string, 0, len(m.t))
	for v := range m.t {
		vs = append(vs, v)
	}
	sort.Strings(vs)
	if len(vs) == 0 {
		return nil
	}
	return vs
}

func (m model) String() string {
	var b []byte
	first := true
	for _, v := range m.vars() {
		b = appendTerm(b, m.t[v], v, first)
		first = false
	}
	if m.c != 0 || first {
		b = appendTerm(b, m.c, "", first)
	}
	return string(b)
}

// exprVars is the variable pool of the random expressions: names that
// share prefixes, and a primed name, so that sorted order is exercised.
var exprVars = []string{"a", "i", "i'", "i0", "ii", "j", "n"}

// randCoeff draws a coefficient, now and then one whose products or sums
// wrap around int64, as the old map arithmetic did.
func randCoeff(r *rand.Rand) int64 {
	switch r.Intn(12) {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	case 2:
		return 1 << 62
	}
	return int64(r.Intn(9) - 4)
}

// randExpr draws a model and builds its Expr straight from the sorted
// terms, not through the operations under test. The Terms slice gets spare
// capacity holding sentinels, so an append into an operand shows up.
func randExpr(r *rand.Rand) (Expr, model) {
	m := model{c: randCoeff(r), t: map[string]int64{}}
	for _, v := range exprVars {
		if r.Intn(3) == 0 {
			m.set(v, randCoeff(r))
		}
	}
	var e Expr
	e.Const = m.c
	if vs := m.vars(); len(vs) > 0 {
		e.Terms = make([]Term, len(vs), len(vs)+2)
		for i, v := range vs {
			e.Terms[i] = Term{Var: v, Coeff: m.t[v]}
		}
		e.Terms = append(e.Terms, Term{Var: "#", Coeff: 77}, Term{Var: "#", Coeff: 78})[:len(vs)]
	}
	return e, m
}

// snapshot copies e's backing array up to its capacity.
func snapshot(e Expr) []Term { return append([]Term(nil), e.Terms[:cap(e.Terms)]...) }

// matches reports whether e holds exactly m's terms and keeps Expr's
// invariants: sorted, unique names, no zero coefficients, nil when empty.
func matches(e Expr, m model) bool {
	if e.Const != m.c || len(e.Terms) != len(m.t) || (len(e.Terms) == 0 && e.Terms != nil) {
		return false
	}
	for i, t := range e.Terms {
		if t.Coeff == 0 || m.t[t.Var] != t.Coeff || (i > 0 && e.Terms[i-1].Var >= t.Var) {
			return false
		}
	}
	return true
}

// TestExprMatchesMapModel is a differential test of every Expr operation
// against the map-backed model, over random expressions. Each result must
// equal the model's and keep the invariants, and no operation may write
// into an operand's backing array, within its length or past it.
func TestExprMatchesMapModel(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e, me := randExpr(r)
		f, mf := randExpr(r)
		k := randCoeff(r)
		v := exprVars[r.Intn(len(exprVars))]
		se, sf := snapshot(e), snapshot(f)
		fail := func(op string, got any, want any) bool {
			t.Errorf("seed %d: %s of e=%v f=%v (k=%d v=%s): got %v, want %v", seed, op, me, mf, k, v, got, want)
			return false
		}
		type result struct {
			op   string
			got  Expr
			want model
		}
		results := []result{
			{"Add", e.Add(f), me.add(mf, 1)},
			{"Sub", e.Sub(f), me.add(mf, -1)},
			{"Neg", e.Neg(), model{t: map[string]int64{}}.add(me, -1)},
			{"Scale", e.Scale(k), me.scale(k)},
			{"AddConst", e.AddConst(k), me.add(model{c: k}, 1)},
			{"Subst", e.Subst(v, f), me.subst(v, mf)},
			{"Clone", e.Clone(), me},
		}
		if prod, ok := e.Mul(f); ok != (len(me.t) == 0 || len(mf.t) == 0) {
			return fail("Mul ok", ok, !ok)
		} else if ok {
			want := mf.scale(me.c)
			if len(me.t) > 0 {
				want = me.scale(mf.c)
			}
			results = append(results, result{"Mul", prod, want})
		}
		for _, res := range results {
			if !matches(res.got, res.want) {
				return fail(res.op, res.got, res.want)
			}
			if res.got.String() != res.want.String() {
				return fail(res.op+" String", res.got.String(), res.want.String())
			}
		}
		if len(e.Clone().Terms) > 0 && &e.Clone().Terms[0] == &e.Terms[0] {
			return fail("Clone", "shared backing array", "a copy")
		}
		env := map[string]int64{}
		for _, x := range exprVars {
			if r.Intn(6) > 0 {
				env[x] = int64(r.Intn(21) - 10)
			}
		}
		got, gotOK := e.Eval(env)
		want, wantOK := me.c, true
		for x, c := range me.t {
			val, ok := env[x]
			wantOK = wantOK && ok
			want += c * val
		}
		if gotOK != wantOK || (gotOK && got != want) {
			return fail("Eval", got, want)
		}
		modelEqual := me.c == mf.c && len(me.t) == len(mf.t)
		for x, c := range me.t {
			modelEqual = modelEqual && mf.t[x] == c
		}
		if e.Equal(f) != modelEqual || !e.Equal(e.Clone()) {
			return fail("Equal", e.Equal(f), modelEqual)
		}
		if !slices.Equal(e.Vars(), me.vars()) {
			return fail("Vars", e.Vars(), me.vars())
		}
		if e.Coeff(v) != me.t[v] || e.Uses(v) != (me.t[v] != 0) || e.NumTerms() != len(me.t) ||
			e.IsConst() != (len(me.t) == 0) || e.IsZero() != (len(me.t) == 0 && me.c == 0) {
			return fail("Coeff/Uses/NumTerms/IsConst/IsZero", e, me)
		}
		if !slices.Equal(se, snapshot(e)) || !slices.Equal(sf, snapshot(f)) {
			return fail("operand backing arrays", [][]Term{snapshot(e), snapshot(f)}, [][]Term{se, sf})
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
