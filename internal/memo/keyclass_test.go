// Key-class golden over the workload's real candidates. External test
// package for the same reason as dist_test.go: workload depends on core,
// which depends on memo.
package memo_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"exactdep/internal/memo"
	"exactdep/internal/refs"
	"exactdep/internal/system"
	"exactdep/internal/workload"
)

var updateKeyClasses = flag.Bool("update-keyclasses", false, "rewrite testdata/keyclasses.golden")

const keyClassesGolden = "testdata/keyclasses.golden"

// keyClassPopulations returns the candidates of the 13-program suite (plain
// and with its §8 symbolic programs), of a LargeCorpus and of the FM-hard
// chains.
func keyClassPopulations(t *testing.T) []struct {
	name  string
	cands []refs.Candidate
} {
	var suite, symbolic []refs.Candidate
	for _, spec := range workload.Programs() {
		cs, err := workload.Candidates(spec, false)
		if err != nil {
			t.Fatal(err)
		}
		suite = append(suite, cs...)
		if cs, err = workload.Candidates(spec, true); err != nil {
			t.Fatal(err)
		}
		symbolic = append(symbolic, cs...)
	}
	large, err := workload.LargeCorpusCandidates(4096)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := workload.FMHardSuiteCandidates()
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name  string
		cands []refs.Candidate
	}{{"suite", suite}, {"suite-symbolic", symbolic}, {"largecorpus-4096", large}, {"fmhard", fm}}
}

// keyClassLine partitions one population by equal keys. Each candidate is
// recorded as the index of the first candidate with an equal key, and the
// partition is summarized by its class count and a digest of that index
// sequence, so the line pins which candidates share a key without pinning
// the key bytes.
func keyClassLine(t *testing.T, name string, cands []refs.Candidate, improved, full bool) string {
	var b system.Builder
	var e memo.Encoder
	first := map[string]int{}
	h := sha256.New()
	var buf [8]byte
	n := 0
	for i := range cands {
		if cands[i].Class != refs.NeedsTest {
			continue
		}
		prob, err := b.Build(&cands[i].Pair)
		if err != nil {
			t.Fatalf("%s candidate %d: %v", name, i, err)
		}
		var k memo.Key
		if full {
			k = e.EncodeFull(prob, improved)
		} else {
			k = e.EncodeEq(prob, improved)
		}
		s := fmt.Sprint([]int64(k))
		f, ok := first[s]
		if !ok {
			f = n
			first[s] = f
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(f))
		h.Write(buf[:])
		n++
	}
	scheme, kind := "simple", "eq"
	if improved {
		scheme = "improved"
	}
	if full {
		kind = "full"
	}
	return fmt.Sprintf("%s %s %s candidates=%d classes=%d digest=%x",
		name, scheme, kind, n, len(first), h.Sum(nil)[:12])
}

// TestKeyClassesGolden pins how the real candidates fall into full-key and
// eq-key classes under both schemes. A change to the key layout must map
// exactly the same problems to one key: the classes and their digests stay.
// Regenerate (only for a deliberate change of which problems share a key)
// with
//
//	go test ./internal/memo -run KeyClassesGolden -update-keyclasses
func TestKeyClassesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes every candidate of three workloads")
	}
	var lines []string
	for _, pop := range keyClassPopulations(t) {
		for _, improved := range []bool{false, true} {
			for _, full := range []bool{true, false} {
				lines = append(lines, keyClassLine(t, pop.name, pop.cands, improved, full))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateKeyClasses {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(keyClassesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(keyClassesGolden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-keyclasses): %v", err)
	}
	if got != string(want) {
		t.Errorf("key classes moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}
