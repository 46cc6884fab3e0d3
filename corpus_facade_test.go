package exactdep_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"exactdep"
)

// TestAnalyzeCorpusStorePath drives the facade's one-call incremental
// workflow: the first AnalyzeCorpusRequest creates the store at
// Options.StorePath, the second serves every unit from it through its file
// index (at the default of one worker, without parsing a file), and an
// edit re-solves only the edited unit.
func TestAnalyzeCorpusStorePath(t *testing.T) {
	root := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(root, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("p.loop", "for i = 1 to 100\n  a[i+1] = a[i] + 3\nend\n")
	write("q.loop", "for i = 1 to 50\n  b[2*i] = b[2*i+1] + 1\nend\n")

	opts := exactdep.Options{
		Memoize: true, ImprovedMemo: true,
		DirectionVectors: true, PruneUnused: true, PruneDistance: true,
		StorePath: filepath.Join(t.TempDir(), "verdicts.store"),
	}
	analyze := func() (*exactdep.CorpusReport, error) {
		return exactdep.AnalyzeCorpusRequest(context.Background(), exactdep.CorpusRequest{Dir: root, Options: opts})
	}

	cold, err := analyze()
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.UnitsSolved != 2 || cold.Stats.UnitsReused != 0 {
		t.Fatalf("cold stats: %+v", cold.Stats)
	}
	if len(cold.Units) != 2 || cold.Units[0].Name != "p.loop" || cold.Units[1].Name != "q.loop" {
		t.Fatalf("cold units: %+v", cold.Units)
	}
	if _, err := os.Stat(opts.StorePath); err != nil {
		t.Fatalf("store file not written: %v", err)
	}

	warm, err := analyze()
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.UnitsReused != 2 || warm.Stats.UnitsSolved != 0 {
		t.Fatalf("warm stats: %+v", warm.Stats)
	}
	if warm.Counters.Pairs != 0 {
		t.Fatalf("warm run analyzed %d pairs, want 0", warm.Counters.Pairs)
	}
	if warm.Stats.UnitsIndexed != 2 {
		t.Fatalf("warm run parsed %d files, want none", 2-warm.Stats.UnitsIndexed)
	}
	if p := warm.Units[0].Results[0].Pair; p.A.Ref.Array != "" {
		t.Fatalf("a unit served through the file index carries a pair: %v", p.A.Ref)
	}
	if err := warm.Units[0].LoadPairs(); err != nil {
		t.Fatal(err)
	}
	if got, want := warm.Units[0].Results[1].Pair.B.Ref.String(), cold.Units[0].Results[1].Pair.B.Ref.String(); got != want {
		t.Fatalf("LoadPairs attached %q, want %q", got, want)
	}
	for ui, u := range warm.Units {
		if !u.Reused || u.Fingerprint.IsZero() {
			t.Fatalf("warm unit %d not reused: %+v", ui, u)
		}
		cu := cold.Units[ui]
		if len(u.Results) != len(cu.Results) {
			t.Fatalf("unit %d result count diverged", ui)
		}
		for ri := range u.Results {
			w, c := u.Results[ri], cu.Results[ri]
			if w.Outcome != c.Outcome || w.Exact != c.Exact || len(w.Vectors) != len(c.Vectors) {
				t.Fatalf("unit %d result %d diverged: %+v vs %+v", ui, ri, w, c)
			}
		}
	}

	write("p.loop", "for i = 1 to 100\n  a[i+2] = a[i] + 3\nend\n")
	dirty, err := analyze()
	if err != nil {
		t.Fatal(err)
	}
	if dirty.Stats.UnitsSolved != 1 || dirty.Stats.UnitsReused != 1 || dirty.Stats.UnitsIndexed != 1 {
		t.Fatalf("dirty stats: %+v", dirty.Stats)
	}
	if dirty.Units[0].Reused || !dirty.Units[1].Reused {
		t.Fatalf("wrong unit re-solved: %+v", dirty.Stats)
	}
}
