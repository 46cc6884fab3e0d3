package workload

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"exactdep/internal/corpus"
	"exactdep/internal/ir"
	"exactdep/internal/lang"
	"exactdep/internal/opt"
	"exactdep/internal/refs"
)

var updateFrontend = flag.Bool("update-frontend", false, "rewrite the golden front-end digests")

// frontendFeatureSources exercise the lowering paths the generated
// programs never reach: stepped and opaque loops, induction variables,
// scalar forward substitution, loop-carried and private scalars, reads,
// and every non-affine warning.
var frontendFeatureSources = []struct{ name, src string }{
	{"steps", `read(n)
for i = 1 to 9 step 2
  a[i] = a[i+2]
end
do j = 10, 1, -3
  b[j] = b[j-3] + 1
end
for k = 2 to 2*n+2 step 2
  c[k] = c[k-2]
end
for k = 1 to n step 3
  d[k] = 0
end
`},
	{"inductions", `iz = 4
for i = 1 to 100
  x[iz] = x[iz - 2]
  iz = iz + 2
  for j = 1 to 10
    y[i][j] = y[i-1][j+1] + iz
  end
end
jj = 0
for i = 5 to 50 step 5
  jj = jj + 3
  z[jj] = z[jj + 1]
end
`},
	{"scalars", `program scal
m = 10
for i = 1 to m
  t = a[i] * 2
  b[i] = t
  s = s + a[i]
  for j = 1 to i
    u = s
    c[i][j] = c[j][i] + u
    s = 0
  end
  i = 3
end
read(q)
for i = 1 to q
  w = w + 1
  a[w] = a[w + 1]
end
`},
	{"degrade", `read(s)
for i = 1 to 10 step s
  a[i] = 0
  b[5] = b[4]
  x = x + 1
  y = 2
  b[y] = b[x]
end
for i = 1 to 10 step 0
  a[i] = 0
end
for i = c[1] to c[2]
  d[i*i] = d[i] + e[i]
end
for i = 1 to 7 step 2
  for j = i to i*i step 3
    f[j] = f[j+1]
  end
end
g[h[1]] = g[2]
`},
}

// TestFrontendGoldenDigest pins the front end's output — lang.Parse →
// opt.Lower → refs.Pairs — over the suite (with and without the symbolic
// cases), LargeCorpus-shaped programs, the FM-hard programs, and the
// feature sources above. Per unit it hashes the corpus.FromSource
// fingerprint (so a store saved by an earlier build still hits), the
// symbols, the warnings, the scalar carried/private sets and the
// no-self-pairs count; per candidate the pair rendering, the class, the
// common depth and both loop stacks with their IDs. Any change to the
// candidates, their order or the loop stacks shows up as a drifted unit.
// Regenerate deliberately with:
//
//	go test ./internal/workload -run FrontendGolden -update-frontend
func TestFrontendGoldenDigest(t *testing.T) {
	type source struct{ name, src string }
	var srcs []source
	for _, symbolic := range []bool{false, true} {
		for _, s := range Programs() {
			srcs = append(srcs, source{fmt.Sprintf("suite/sym=%t/%s", symbolic, s.Name), Source(s, symbolic)})
		}
	}
	for _, s := range LargeCorpus(4096) {
		srcs = append(srcs, source{"large/" + s.Name, Source(s, false)})
	}
	for _, s := range FMHardPrograms() {
		srcs = append(srcs, source{"fmhard/" + s.Name, FMHardSource(s)})
	}
	for _, s := range frontendFeatureSources {
		srcs = append(srcs, source{"feature/" + s.name, s.src})
	}

	var got bytes.Buffer
	for _, s := range srcs {
		d, err := frontendDigest(s.name, s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		fmt.Fprintf(&got, "%s %x\n", s.name, d)
	}

	golden := filepath.Join("testdata", "frontend.golden")
	if *updateFrontend {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden front-end digests rewritten (%d units)", len(srcs))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-frontend): %v", err)
	}
	if bytes.Equal(want, got.Bytes()) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got.String(), "\n")
	for i := 0; i < len(wantLines) && i < len(gotLines); i++ {
		if wantLines[i] != gotLines[i] {
			t.Fatalf("front-end output drifted at line %d:\n  want: %s\n  got:  %s\n"+
				"If the change is intentional, regenerate with -update-frontend.", i+1, wantLines[i], gotLines[i])
		}
	}
	t.Fatalf("front-end digest count differs: want %d lines, got %d", len(wantLines), len(gotLines))
}

// frontendDigest renders one source's front-end output and hashes it.
func frontendDigest(name, src string) ([32]byte, error) {
	cu, err := corpus.FromSource(name, src)
	if err != nil {
		return [32]byte{}, err
	}
	var fpr corpus.Fingerprinter
	fp := cu.Fingerprint(&fpr)

	prog, err := lang.Parse(src)
	if err != nil {
		return [32]byte{}, err
	}
	u := opt.Lower(prog)
	cands := refs.Pairs(u)

	h := sha256.New()
	w := bufio.NewWriter(h)
	fmt.Fprintf(w, "fp %016x%016x\n", fp.Hi, fp.Lo)
	fmt.Fprintf(w, "name %q symbols %q\n", u.Name, u.Symbols)
	for _, warn := range u.Warnings {
		fmt.Fprintf(w, "warn %s\n", warn)
	}
	writeScalarSets(w, "carried", u.ScalarCarried)
	writeScalarSets(w, "private", u.ScalarPrivate)
	fmt.Fprintf(w, "noself %d\n", len(refs.PairsOpts(u, refs.Options{NoSelfPairs: true})))
	for i, c := range cands {
		fmt.Fprintf(w, "cand %d class=%d common=%d %s symbols=%q\n", i, c.Class, c.Pair.Common, c.Pair, c.Pair.Symbols)
		writeLoops(w, "A", c.Pair.A.Loops)
		writeLoops(w, "B", c.Pair.B.Loops)
	}
	if err := w.Flush(); err != nil {
		return [32]byte{}, err
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d, nil
}

func writeScalarSets(w *bufio.Writer, label string, m map[int][]string) {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "%s %d %q\n", label, id, m[id])
	}
}

func writeLoops(w *bufio.Writer, side string, ls []ir.Loop) {
	fmt.Fprintf(w, "  %s", side)
	for _, l := range ls {
		fmt.Fprintf(w, " [%s #%d]", l, l.ID)
	}
	w.WriteByte('\n')
}
