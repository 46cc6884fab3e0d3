package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"exactdep/internal/depvec"
	"exactdep/internal/dtest"
	"exactdep/internal/memo"
	"exactdep/internal/system"
)

// Memo-table persistence (the paper's §5 suggestion: "store the hash table
// across compilations... one could use a set of benchmarks to set up a
// standard table which would be used by all programs"). The serialized form
// is a compact record per entry; pairs and problems are not stored — only
// the canonical keys and the verdicts.

// memoFileVersion guards the on-disk format. Version 2 added the
// direction-keyed refinement table (Dir); version 1 files (full+eq only)
// still load, their refinement walks simply start cold.
const memoFileVersion = 2

// savedEntry is the serializable form of one full-table entry.
type savedEntry struct {
	Key       []int64
	Outcome   int
	Exact     bool
	Kind      int
	Vectors   [][]byte // projected direction vectors, one byte per level
	DistLevel []int
	DistValue []int64
}

// savedEq is one without-bounds (GCD) table entry.
type savedEq struct {
	Key    []int64
	Result int
}

// savedDir is one direction-keyed refinement table entry (the §6
// subproblems of Burke–Cytron refinement). The witness is never persisted —
// it aliases the producing pipeline's scratch and hits don't consume it.
type savedDir struct {
	Key     []int64
	Outcome int
	Exact   bool
	Kind    int
}

// savedTables is the on-disk document. Dir was added in version 2; gob
// leaves it empty when decoding a version-1 file.
type savedTables struct {
	Version  int
	Improved bool
	Full     []savedEntry
	Eq       []savedEq
	Dir      []savedDir
}

// SaveMemo writes the analyzer's memo tables so a later session (or another
// program's compilation) can start warm. Degraded (Maybe) entries are
// skipped: they are valid only under the budget class that produced them,
// and a persisted table must serve every future configuration.
func (a *Analyzer) SaveMemo(w io.Writer) error {
	doc := savedTables{Version: memoFileVersion, Improved: a.opts.ImprovedMemo}
	a.full.Range(func(k memo.Key, v cached) bool {
		if v.res.Outcome == dtest.Maybe {
			return true
		}
		e := savedEntry{
			Key:     append([]int64(nil), k...),
			Outcome: int(v.res.Outcome),
			Exact:   v.res.Exact,
			Kind:    int(v.res.Kind),
		}
		for _, pv := range v.projVectors {
			bs := make([]byte, len(pv))
			for i, d := range pv {
				bs[i] = byte(d)
			}
			e.Vectors = append(e.Vectors, bs)
		}
		for _, d := range v.projDistances {
			e.DistLevel = append(e.DistLevel, d.Level)
			e.DistValue = append(e.DistValue, d.Value)
		}
		doc.Full = append(doc.Full, e)
		return true
	})
	a.eq.Range(func(k memo.Key, v system.GCDResult) bool {
		doc.Eq = append(doc.Eq, savedEq{Key: append([]int64(nil), k...), Result: int(v)})
		return true
	})
	a.dir.Range(func(k memo.Key, v dtest.Result) bool {
		if v.Outcome == dtest.Maybe {
			// Count-tripped refinement verdicts are scoped to the budget
			// class that produced them; same rule as the full table.
			return true
		}
		doc.Dir = append(doc.Dir, savedDir{
			Key:     append([]int64(nil), k...),
			Outcome: int(v.Outcome),
			Exact:   v.Exact,
			Kind:    int(v.Kind),
		})
		return true
	})
	return gob.NewEncoder(w).Encode(&doc)
}

// LoadMemo merges previously saved tables into the analyzer. The saved
// encoding scheme must match the analyzer's (simple vs improved keys are not
// interchangeable), and every entry must be one SaveMemo can write (see
// validate): a truncated or hand-edited file is rejected whole, before any
// entry is merged, rather than panicking here or on a later hit.
func (a *Analyzer) LoadMemo(r io.Reader) error {
	var doc savedTables
	if err := gob.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("core: loading memo table: %w", err)
	}
	if doc.Version < 1 || doc.Version > memoFileVersion {
		return fmt.Errorf("core: memo table version %d, want 1..%d", doc.Version, memoFileVersion)
	}
	if doc.Improved != a.opts.ImprovedMemo {
		return fmt.Errorf("core: memo table uses improved=%v keys, analyzer uses improved=%v",
			doc.Improved, a.opts.ImprovedMemo)
	}
	if err := doc.validate(); err != nil {
		return fmt.Errorf("core: memo table %w", err)
	}
	for _, e := range doc.Full {
		c := cached{res: Result{
			Outcome: dtest.Outcome(e.Outcome),
			Exact:   e.Exact,
			Kind:    dtest.Kind(e.Kind),
			// DecidedBy is rewritten to ByCache on every hit.
			DecidedBy: ByTest,
		}}
		for _, bs := range e.Vectors {
			pv := make([]depvec.Direction, len(bs))
			for i, b := range bs {
				pv[i] = depvec.Direction(b)
			}
			c.projVectors = append(c.projVectors, pv)
		}
		for i := range e.DistLevel {
			c.projDistances = append(c.projDistances,
				depvec.Distance{Level: e.DistLevel[i], Value: e.DistValue[i]})
		}
		a.full.Insert(memo.Key(e.Key), c)
	}
	for _, e := range doc.Eq {
		a.eq.Insert(memo.Key(e.Key), system.GCDResult(e.Result))
	}
	for _, e := range doc.Dir {
		a.dir.Insert(memo.Key(e.Key), dtest.Result{
			Outcome: dtest.Outcome(e.Outcome),
			Exact:   e.Exact,
			Kind:    dtest.Kind(e.Kind),
		})
	}
	a.Stats.UniqueFull = a.full.Len()
	a.Stats.UniqueEq = a.eq.Len()
	a.Stats.UniqueDir = a.dir.Len()
	return nil
}

// validate checks a decoded document against what SaveMemo can produce:
// verdicts CheckVerdict accepts, and Extended GCD results that name a
// GCDResult. The error names the offending entry by table and index.
func (doc *savedTables) validate() error {
	for i := range doc.Full {
		e := &doc.Full[i]
		if err := CheckVerdict(e.Outcome, e.Kind, e.Vectors, e.DistLevel, e.DistValue); err != nil {
			return fmt.Errorf("full entry %d: %w", i, err)
		}
	}
	for i, e := range doc.Eq {
		if r := system.GCDResult(e.Result); r != system.GCDIndependent && r != system.GCDDependent {
			return fmt.Errorf("eq entry %d: GCD result %d out of range", i, e.Result)
		}
	}
	for i, e := range doc.Dir {
		if err := CheckVerdict(e.Outcome, e.Kind, nil, nil, nil); err != nil {
			return fmt.Errorf("dir entry %d: %w", i, err)
		}
	}
	return nil
}

// CheckVerdict checks one persisted verdict against what the analyzer can
// produce: outcome and deciding-test kind inside their enums, direction
// bytes that name a depvec.Direction, and one distance value per distance
// level. Memo files and the corpus verdict store both load through it, so
// a truncated or hand-edited snapshot is rejected instead of panicking on a
// later hit.
func CheckVerdict(outcome, kind int, vectors [][]byte, distLevel []int, distValue []int64) error {
	switch {
	case outcome < int(dtest.Independent) || outcome > int(dtest.Maybe):
		return fmt.Errorf("outcome %d out of range", outcome)
	case kind < int(dtest.KindNone) || kind > int(dtest.KindFourierMotzkin):
		return fmt.Errorf("test kind %d out of range", kind)
	case len(distLevel) != len(distValue):
		return fmt.Errorf("%d distance levels, %d values", len(distLevel), len(distValue))
	}
	for _, v := range vectors {
		for _, b := range v {
			switch depvec.Direction(b) {
			case depvec.Any, depvec.Less, depvec.Equal, depvec.Greater:
			default:
				return fmt.Errorf("direction byte %q out of range", b)
			}
		}
	}
	return nil
}
