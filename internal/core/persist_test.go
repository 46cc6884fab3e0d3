package core

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"exactdep/internal/dtest"
	"exactdep/internal/lang"
	"exactdep/internal/memo"
	"exactdep/internal/opt"
)

const persistSrc = `
for i = 1 to 10
  a[i+1] = a[i]
end
for i = 1 to 10
  b[2*i] = b[2*i+1]
end
for i = 1 to 10
  c[i] = c[i+20]
end
`

func TestSaveLoadMemoRoundTrip(t *testing.T) {
	opts := Options{Memoize: true, ImprovedMemo: true,
		DirectionVectors: true, PruneUnused: true, PruneDistance: true}
	prog, err := lang.Parse(persistSrc)
	if err != nil {
		t.Fatal(err)
	}
	unit := opt.Lower(prog)

	warm := New(opts)
	firstRun, err := warm.AnalyzeUnit(unit)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.TotalTests() == 0 {
		t.Fatal("premise: fresh run must run tests")
	}

	var buf bytes.Buffer
	if err := warm.SaveMemo(&buf); err != nil {
		t.Fatal(err)
	}

	cold := New(opts)
	if err := cold.LoadMemo(&buf); err != nil {
		t.Fatal(err)
	}
	secondRun, err := cold.AnalyzeUnit(unit)
	if err != nil {
		t.Fatal(err)
	}
	// Every problem must now come from the cache (or the persisted GCD
	// table): zero fresh tests.
	if cold.Stats.TotalTests() != 0 {
		t.Fatalf("warm-started analyzer ran %d tests, want 0", cold.Stats.TotalTests())
	}
	if len(firstRun) != len(secondRun) {
		t.Fatalf("result count mismatch: %d vs %d", len(firstRun), len(secondRun))
	}
	for i := range firstRun {
		f, s := firstRun[i], secondRun[i]
		if f.Outcome != s.Outcome || f.Exact != s.Exact {
			t.Fatalf("result %d diverged: %+v vs %+v", i, f, s)
		}
		if len(f.Vectors) != len(s.Vectors) {
			t.Fatalf("result %d vectors diverged: %v vs %v", i, f.Vectors, s.Vectors)
		}
		for vi := range f.Vectors {
			if f.Vectors[vi].String() != s.Vectors[vi].String() {
				t.Fatalf("result %d vector %d: %v vs %v", i, vi, f.Vectors[vi], s.Vectors[vi])
			}
		}
	}
}

// TestSaveLoadDirTable pins the v2 format's reason for existing: the
// direction-keyed refinement table survives a save/load cycle, so a
// warm-started session's §6 refinement walks start from the persisted
// subproblem verdicts instead of re-running them.
func TestSaveLoadDirTable(t *testing.T) {
	opts := Options{Memoize: true, ImprovedMemo: true,
		DirectionVectors: true, PruneUnused: true, PruneDistance: true}
	prog, err := lang.Parse(persistSrc)
	if err != nil {
		t.Fatal(err)
	}
	unit := opt.Lower(prog)
	warm := New(opts)
	if _, err := warm.AnalyzeUnit(unit); err != nil {
		t.Fatal(err)
	}
	if warm.Stats.UniqueDir == 0 {
		t.Fatal("premise: the refinement walk must populate the dir table")
	}
	var buf bytes.Buffer
	if err := warm.SaveMemo(&buf); err != nil {
		t.Fatal(err)
	}
	cold := New(opts)
	if err := cold.LoadMemo(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := cold.Stats.UniqueDir, warm.Stats.UniqueDir; got != want {
		t.Fatalf("persisted dir table has %d entries, want %d", got, want)
	}
	// The restored entries must actually serve refinement subproblems:
	// bypass the full table by looking the subproblems up through a fresh
	// run of the same unit on an analyzer whose *full* table is empty.
	fresh := New(opts)
	var doc savedTables
	doc.Version = memoFileVersion
	doc.Improved = true
	warm.dir.Range(func(k memo.Key, v dtest.Result) bool {
		doc.Dir = append(doc.Dir, savedDir{Key: append([]int64(nil), k...),
			Outcome: int(v.Outcome), Exact: v.Exact, Kind: int(v.Kind)})
		return true
	})
	var dirOnly bytes.Buffer
	if err := gob.NewEncoder(&dirOnly).Encode(&doc); err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadMemo(&dirOnly); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.AnalyzeUnit(unit); err != nil {
		t.Fatal(err)
	}
	if fresh.Stats.DirHits == 0 {
		t.Fatal("restored dir table served no refinement subproblems")
	}
}

// TestLoadMemoRejectsCorruptEntries hand-edits a saved memo document the
// ways a truncated or tampered file can differ from what SaveMemo writes.
// LoadMemo indexes DistValue for every DistLevel, so a short DistValue used
// to panic; every edit must instead fail with an error naming the entry,
// and merge nothing.
func TestLoadMemoRejectsCorruptEntries(t *testing.T) {
	opts := Options{Memoize: true, ImprovedMemo: true,
		DirectionVectors: true, PruneUnused: true, PruneDistance: true}
	prog, err := lang.Parse(persistSrc)
	if err != nil {
		t.Fatal(err)
	}
	warm := New(opts)
	if _, err := warm.AnalyzeUnit(opt.Lower(prog)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := warm.SaveMemo(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	// withDistance returns the first full entry that carries a distance
	// and a vector, the one the full-table edits corrupt.
	withDistance := func(doc *savedTables) *savedEntry {
		for i := range doc.Full {
			if e := &doc.Full[i]; len(e.DistLevel) > 0 && len(e.Vectors) > 0 {
				return e
			}
		}
		t.Fatal("no full entry with a distance and a vector")
		return nil
	}
	cases := []struct {
		name, entry string
		corrupt     func(doc *savedTables)
	}{
		{"two levels one value", "full entry", func(doc *savedTables) {
			e := withDistance(doc)
			e.DistLevel, e.DistValue = []int{1, 2}, e.DistValue[:1]
		}},
		{"outcome", "full entry", func(doc *savedTables) { withDistance(doc).Outcome = int(dtest.Maybe) + 1 }},
		{"kind", "full entry", func(doc *savedTables) { withDistance(doc).Kind = -1 }},
		{"direction", "full entry", func(doc *savedTables) { withDistance(doc).Vectors[0][0] = 'x' }},
		{"gcd result", "eq entry", func(doc *savedTables) { doc.Eq[0].Result = 2 }},
		{"dir outcome", "dir entry", func(doc *savedTables) { doc.Dir[0].Outcome = -1 }},
		{"dir kind", "dir entry", func(doc *savedTables) { doc.Dir[0].Kind = int(dtest.KindFourierMotzkin) + 1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var doc savedTables
			if err := gob.NewDecoder(bytes.NewReader(saved)).Decode(&doc); err != nil {
				t.Fatal(err)
			}
			if len(doc.Eq) == 0 || len(doc.Dir) == 0 {
				t.Fatal("premise: the saved tables need eq and dir entries")
			}
			c.corrupt(&doc)
			var out bytes.Buffer
			if err := gob.NewEncoder(&out).Encode(&doc); err != nil {
				t.Fatal(err)
			}
			cold := New(opts)
			err := cold.LoadMemo(&out)
			if err == nil {
				t.Fatal("corrupt memo table accepted by LoadMemo")
			}
			if !strings.Contains(err.Error(), c.entry) {
				t.Fatalf("error does not name the %s: %v", c.entry, err)
			}
			if n := cold.MemoLen(); n != 0 {
				t.Fatalf("rejected memo table merged %d entries", n)
			}
		})
	}
}

// TestLoadMemoVersion1 pins backward compatibility: a version-1 snapshot
// (full+eq only, no Dir section) still loads.
func TestLoadMemoVersion1(t *testing.T) {
	warm := New(Options{Memoize: true, ImprovedMemo: true})
	prog, err := lang.Parse(persistSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.AnalyzeUnit(opt.Lower(prog)); err != nil {
		t.Fatal(err)
	}
	var doc savedTables
	doc.Version = 1
	doc.Improved = true
	warm.full.Range(func(k memo.Key, v cached) bool {
		if v.res.Outcome == dtest.Maybe {
			return true
		}
		doc.Full = append(doc.Full, savedEntry{Key: append([]int64(nil), k...),
			Outcome: int(v.res.Outcome), Exact: v.res.Exact, Kind: int(v.res.Kind)})
		return true
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&doc); err != nil {
		t.Fatal(err)
	}
	cold := New(Options{Memoize: true, ImprovedMemo: true})
	if err := cold.LoadMemo(&buf); err != nil {
		t.Fatalf("version-1 snapshot must load: %v", err)
	}
	if cold.Stats.UniqueFull == 0 {
		t.Fatal("version-1 full entries were dropped")
	}
	if cold.Stats.UniqueDir != 0 {
		t.Fatal("version-1 snapshot cannot carry dir entries")
	}
	// An unknown future version must still be rejected.
	doc.Version = memoFileVersion + 1
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&doc); err != nil {
		t.Fatal(err)
	}
	if err := cold.LoadMemo(&buf); err == nil {
		t.Fatal("future version must be rejected")
	}
}

func TestLoadMemoSchemeMismatch(t *testing.T) {
	warm := New(Options{Memoize: true, ImprovedMemo: true})
	var buf bytes.Buffer
	if err := warm.SaveMemo(&buf); err != nil {
		t.Fatal(err)
	}
	cold := New(Options{Memoize: true}) // simple keys
	if err := cold.LoadMemo(&buf); err == nil {
		t.Fatal("scheme mismatch must be rejected")
	}
}

func TestLoadMemoGarbage(t *testing.T) {
	a := New(Options{Memoize: true})
	if err := a.LoadMemo(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("garbage input must error")
	}
}

func TestPersistedGCDVerdicts(t *testing.T) {
	opts := Options{Memoize: true}
	prog, err := lang.Parse("for i = 1 to 10\n  a[2*i] = a[2*i+1]\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	unit := opt.Lower(prog)
	warm := New(opts)
	if _, err := warm.AnalyzeUnit(unit); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := warm.SaveMemo(&buf); err != nil {
		t.Fatal(err)
	}
	cold := New(opts)
	if err := cold.LoadMemo(&buf); err != nil {
		t.Fatal(err)
	}
	res, err := cold.AnalyzeUnit(unit)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Pair.A.Ref.Kind != r.Pair.B.Ref.Kind && r.Outcome != dtest.Independent {
			t.Fatalf("persisted GCD verdict lost: %+v", r)
		}
	}
}
