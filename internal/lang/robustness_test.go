package lang_test

import (
	"math/rand"
	"strings"
	"testing"

	"exactdep/internal/lang"
	"exactdep/internal/workload"
)

// The parser and lexer must never panic, whatever bytes arrive: they either
// produce a program or an error. A program they produce must print back to
// source that parses to the same program (the same rendering).

// checkParse asserts both properties for one input.
func checkParse(t testing.TB, src string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic on %q: %v", src, r)
		}
	}()
	p, err := lang.Parse(src)
	if err != nil {
		return
	}
	text := p.String()
	again, err := lang.Parse(text)
	if err != nil {
		t.Fatalf("re-parse of the rendering of %q failed: %v\nrendered:\n%s", src, err, text)
	}
	if got := again.String(); got != text {
		t.Fatalf("rendering of %q is not a fixed point:\n%s\nvs\n%s", src, text, got)
	}
}

// soupTokens are the lexemes the token-soup inputs are drawn from.
var soupTokens = []string{
	"for", "to", "end", "read", "program", "step", "do",
	"i", "j", "a", "n", "42", "0", "-",
	"=", "+", "*", "(", ")", "[", "]", ",", "\n", "#x\n",
}

// tokenSoup returns a random sequence of up to 40 soup tokens.
func tokenSoup(rng *rand.Rand) string {
	var b strings.Builder
	for k := rng.Intn(40); k > 0; k-- {
		b.WriteString(soupTokens[rng.Intn(len(soupTokens))])
		b.WriteByte(' ')
	}
	return b.String()
}

// FuzzParse is the native fuzz target over the parser. Its seed corpus —
// the suite programs with and without their symbolic cases, plus token
// soup — runs under plain go test; explore further with
//
//	go test ./internal/lang -run '^$' -fuzz FuzzParse -fuzztime 30s -fuzzminimizetime 10x
//
// (the suite seeds run to 150 KB, and minimizing an input that large
// under the default time-based limit stalls the fuzzer).
func FuzzParse(f *testing.F) {
	for _, symbolic := range []bool{false, true} {
		for _, s := range workload.Programs() {
			f.Add(workload.Source(s, symbolic))
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 64; i++ {
		f.Add(tokenSoup(rng))
	}
	f.Fuzz(func(t *testing.T, src string) { checkParse(t, src) })
}

func TestParserNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(200)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		checkParse(t, string(b))
	}
}

func TestParserNeverPanicsOnTokenSoup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 3000; iter++ {
		checkParse(t, tokenSoup(rng))
	}
}

func TestDeeplyNestedLoops(t *testing.T) {
	var b strings.Builder
	const depth = 200
	for i := 0; i < depth; i++ {
		b.WriteString("for i")
		b.WriteString(strings.Repeat("x", i%3))
		b.WriteString(" = 1 to 10\n")
	}
	b.WriteString("a[1] = 0\n")
	for i := 0; i < depth; i++ {
		b.WriteString("end\n")
	}
	if _, err := lang.Parse(b.String()); err != nil {
		t.Fatalf("deep nest: %v", err)
	}
}

func TestLongExpression(t *testing.T) {
	var b strings.Builder
	b.WriteString("a[0] = 1")
	for i := 0; i < 5000; i++ {
		b.WriteString(" + 1")
	}
	b.WriteString("\n")
	if _, err := lang.Parse(b.String()); err != nil {
		t.Fatalf("long expr: %v", err)
	}
}

func TestUnicodeGarbageRejected(t *testing.T) {
	if _, err := lang.Parse("для i = 1 to 10\nend\n"); err == nil {
		t.Fatal("non-ASCII identifiers are not part of the language")
	}
}
