package lang

import (
	"strings"
	"testing"
)

func TestLexBasics(t *testing.T) {
	toks, err := LexAll("for i = 1 to 10\n  a[i+1] = a[i] * 3  # comment\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]TokKind, len(toks))
	for i, tok := range toks {
		kinds[i] = tok.Kind
	}
	want := []TokKind{
		TokFor, TokIdent, TokAssign, TokNumber, TokTo, TokNumber, TokNewline,
		TokIdent, TokLBracket, TokIdent, TokPlus, TokNumber, TokRBracket,
		TokAssign, TokIdent, TokLBracket, TokIdent, TokRBracket, TokStar,
		TokNumber, TokNewline, TokEnd, TokNewline, TokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("token count = %d, want %d: %v", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexFoldsBlankLines(t *testing.T) {
	toks, err := LexAll("a = 1\n\n\n  # comment only\n\nb = 2\n")
	if err != nil {
		t.Fatal(err)
	}
	newlines := 0
	for _, tok := range toks {
		if tok.Kind == TokNewline {
			newlines++
		}
	}
	if newlines != 2 {
		t.Fatalf("newlines = %d, want 2 (folded)", newlines)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := LexAll("a = 1 @ 2"); err == nil {
		t.Fatal("unexpected character must error")
	}
	if _, err := LexAll("a = 99999999999999999999999"); err == nil {
		t.Fatal("number overflow must error")
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := LexAll("ab = 3\ncd = 4\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Fatalf("first token pos = %v", toks[0].Pos)
	}
	// "cd" is the 5th token (ab, =, 3, \n, cd)
	if toks[4].Text != "cd" || toks[4].Pos.Line != 2 {
		t.Fatalf("cd pos = %v (%q)", toks[4].Pos, toks[4].Text)
	}
}

func TestParseSimpleLoop(t *testing.T) {
	prog, err := Parse(`
program first
for i = 1 to 10
  a[i] = a[i+10] + 3
end
`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "first" {
		t.Fatalf("name = %q", prog.Name)
	}
	if len(prog.Stmts) != 1 {
		t.Fatalf("stmts = %d", len(prog.Stmts))
	}
	f, ok := prog.Stmts[0].(*For)
	if !ok {
		t.Fatalf("not a for: %T", prog.Stmts[0])
	}
	if f.Index != "i" || len(f.Body) != 1 {
		t.Fatalf("loop = %+v", f)
	}
	a := f.Body[0].(*Assign)
	if a.LHSArray == nil || a.LHSArray.Array != "a" || len(a.LHSArray.Subs) != 1 {
		t.Fatalf("assign lhs = %+v", a)
	}
}

func TestParseNested(t *testing.T) {
	prog, err := Parse(`
for i = 1 to n
  for j = i to 2*i+1
    a[i][j] = b[j][i] - 1
  end
end
`)
	if err != nil {
		t.Fatal(err)
	}
	outer := prog.Stmts[0].(*For)
	inner := outer.Body[0].(*For)
	if inner.Index != "j" {
		t.Fatalf("inner = %+v", inner)
	}
	if inner.Hi.String() != "((2 * i) + 1)" {
		t.Fatalf("inner hi = %s", inner.Hi)
	}
	a := inner.Body[0].(*Assign)
	if len(a.LHSArray.Subs) != 2 {
		t.Fatalf("lhs dims = %d", len(a.LHSArray.Subs))
	}
}

func TestParseScalarAndRead(t *testing.T) {
	prog, err := Parse(`
n = 100
read(m)
iz = iz + 2
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Stmts) != 3 {
		t.Fatalf("stmts = %d", len(prog.Stmts))
	}
	if a := prog.Stmts[0].(*Assign); a.LHSVar != "n" {
		t.Fatalf("scalar assign = %+v", a)
	}
	if r := prog.Stmts[1].(*Read); r.Var != "m" {
		t.Fatalf("read = %+v", r)
	}
}

func TestParseUnaryMinusAndParens(t *testing.T) {
	prog, err := Parse("a[-i + (j - 2) * 3] = 0\n")
	if err != nil {
		t.Fatal(err)
	}
	a := prog.Stmts[0].(*Assign)
	want := "((-i) + ((j - 2) * 3))"
	if got := a.LHSArray.Subs[0].String(); got != want {
		t.Fatalf("sub = %s, want %s", got, want)
	}
}

func TestParseDoKeyword(t *testing.T) {
	prog, err := Parse("do i = 1, 10\n  a[i] = 1\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Stmts[0].(*For)
	if f.Index != "i" {
		t.Fatalf("do-loop: %+v", f)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"for = 1 to 10\nend\n", // missing index
		"for i 1 to 10\nend\n", // missing '='
		"for i = 1 10\nend\n",  // missing 'to'
		"for i = 1 to 10\n",    // unclosed loop
		"read n\n",             // missing parens
		"read(3)\n",            // non-identifier
		"a[i = 3\n",            // missing ']'
		"a[i] 3\n",             // missing '='
		"a[i] = (1 + 2\n",      // missing ')'
		"a[i] = +\n",           // bad expression
		"= 3\n",                // no statement
		"a[i] = 1 extra\n",     // trailing junk
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestParseErrorMentionsPosition(t *testing.T) {
	_, err := Parse("for i = 1 to 10\n  a[i = 3\nend\n")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Fatalf("error lacks line info: %v", err)
	}
}

func TestStringRoundTrip(t *testing.T) {
	src := `program p
read(n)
for i = 1 to n
  a[i][i] = a[i - 1][i] + 7
end
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// A re-parse of the rendering must produce an identical rendering.
	again, err := Parse(prog.String())
	if err != nil {
		t.Fatalf("re-parse failed: %v\nrendered:\n%s", err, prog.String())
	}
	if prog.String() != again.String() {
		t.Fatalf("round trip differs:\n%s\nvs\n%s", prog.String(), again.String())
	}
}

func TestParseRHSArrayReads(t *testing.T) {
	prog, err := Parse("a[i] = b[i] + c[i] * d[2*i+1]\n")
	if err != nil {
		t.Fatal(err)
	}
	a := prog.Stmts[0].(*Assign)
	if a.RHS.String() != "(b[i] + (c[i] * d[((2 * i) + 1)]))" {
		t.Fatalf("rhs = %s", a.RHS)
	}
}

// TestLexerZeroAllocs gates the lexer's steady state: Next allocates
// nothing per token (token text is sliced out of the source, keywords and
// punctuation are switch statements), so the whole lex of a source costs
// zero allocations.
func TestLexerZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	src := strings.Repeat(`program p
read(n)
for i = 1 to n step 2  # comment
  do j = 1, 10
    a[i+1][2*j] = a[i][j] * 3 - (b[j] + c)
  end
endfor
`, 16)
	var l Lexer
	tokens := 0
	allocs := testing.AllocsPerRun(20, func() {
		l = Lexer{src: src, line: 1, col: 1}
		for tokens = 0; ; tokens++ {
			tok, err := l.Next()
			if err != nil {
				t.Fatal(err)
			}
			if tok.Kind == TokEOF {
				break
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("lexing %d tokens allocated %.0f times, want 0", tokens, allocs)
	}
}
