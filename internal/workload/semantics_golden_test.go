package workload

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"exactdep/internal/core"
	"exactdep/internal/corpus"
	"exactdep/internal/persist"
	"exactdep/internal/wire"
)

var updateSemantics = flag.Bool("update-semantics", false, "re-pin the semantics digest under the current persist.SemanticsVersion")

// TestSemanticsGoldenDigest makes persist.SemanticsVersion impossible to
// forget. Stores and memo files carry the version their verdicts were
// produced under, and an older one is dropped as stale; so any change to
// what the analyzer reports must bump it, or files written before the
// change would keep serving the old verdicts. The test hashes the
// canonical bytes (corpus.AppendCanonical) of the suite, plain and
// symbolic, of the 4,096-nest LargeCorpus and of a two-nest program whose
// cross-nest pair shares no loop (its one empty direction vector), under
// the end-to-end benchmark's direction-vector options, plus the front-end
// digests of frontend.golden, and pins the hash next to the version it was
// taken under. A changed hash under an unchanged version fails, and
// -update-semantics refuses to re-pin one until the version is bumped:
//
//	go test ./internal/workload -run SemanticsGolden -update-semantics
func TestSemanticsGoldenDigest(t *testing.T) {
	idx, _ := wire.ClassIndex("")
	opts := core.Options{
		DirectionVectors: true, PruneUnused: true, PruneDistance: true,
		Memoize: true, ImprovedMemo: true, Cascade: "full",
		Budget: wire.BudgetClasses[idx].Budget,
	}
	h := sha256.New()
	for _, src := range []func() (corpus.Mem, error){
		func() (corpus.Mem, error) { return SuiteSource(false) },
		func() (corpus.Mem, error) { return SuiteSource(true) },
		func() (corpus.Mem, error) { return LargeCorpusUnits(4096) },
		func() (corpus.Mem, error) {
			u, err := corpus.FromSource("two-nests", "for i = 1 to 10\n  a[i] = 0\nend\nfor j = 1 to 10\n  b[j] = a[j+1]\nend\n")
			return corpus.Mem{u}, err
		},
	} {
		units, err := src()
		if err != nil {
			t.Fatal(err)
		}
		b, err := corpus.NewDriver(opts, 0).Canonical(context.Background(), units)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	frontend, err := os.ReadFile(filepath.Join("testdata", "frontend.golden"))
	if err != nil {
		t.Fatal(err)
	}
	h.Write(frontend)
	got := fmt.Sprintf("semantics %d %x\n", persist.SemanticsVersion, h.Sum(nil))

	golden := filepath.Join("testdata", "semantics.golden")
	want, err := os.ReadFile(golden)
	if err != nil && !*updateSemantics {
		t.Fatalf("golden file missing (run with -update-semantics): %v", err)
	}
	var pinnedVersion int
	var pinnedDigest string
	if err == nil {
		if _, err := fmt.Sscanf(string(want), "semantics %d %s", &pinnedVersion, &pinnedDigest); err != nil {
			t.Fatalf("malformed %s: %v", golden, err)
		}
	}
	switch {
	case string(want) == got:
	case pinnedVersion == persist.SemanticsVersion:
		t.Fatalf("the analyzer's verdicts or the front end's candidates changed under persist.SemanticsVersion %d:\n  pinned: %s\n  got:    %s"+
			"Stores and memo files written before the change would keep serving the old verdicts. Bump persist.SemanticsVersion "+
			"(internal/persist), then re-pin with -update-semantics.", pinnedVersion, want, got)
	case *updateSemantics:
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("semantics digest re-pinned under version %d", persist.SemanticsVersion)
	default:
		t.Fatalf("persist.SemanticsVersion is %d but the digest was pinned under %d: re-pin with -update-semantics",
			persist.SemanticsVersion, pinnedVersion)
	}
}
