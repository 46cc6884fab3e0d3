package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"exactdep/internal/depvec"
	"exactdep/internal/dtest"
	"exactdep/internal/memo"
	"exactdep/internal/persist"
	"exactdep/internal/system"
)

// Memo-table persistence (the paper's §5 suggestion: "store the hash table
// across compilations... one could use a set of benchmarks to set up a
// standard table which would be used by all programs"). The file is the
// persist format's memo file: a header bound to the key scheme, then two
// counted sections, the full table's entries and the without-bounds (GCD)
// table's:
//
//	full = key  verdict
//	eq   = key  result:varint (a system.GCDResult)
//	key  = len:uvarint { varint }
//
// Pairs and problems are not stored — only the canonical keys and the
// verdicts, with vectors and distances projected onto the used levels.

// keyScheme is the memo file's binding: simple and improved keys are not
// interchangeable.
func keyScheme(improved bool) string {
	if improved {
		return "keys=improved"
	}
	return "keys=simple"
}

func appendKey(b []byte, k memo.Key) []byte {
	b = binary.AppendUvarint(b, uint64(len(k)))
	for _, x := range k {
		b = binary.AppendVarint(b, x)
	}
	return b
}

// appendFull appends one full-table entry.
func appendFull(b []byte, k memo.Key, v *persist.Verdict) []byte {
	return persist.AppendVerdict(appendKey(b, k), v)
}

// appendEq appends one without-bounds table entry.
func appendEq(b []byte, k memo.Key, r system.GCDResult) []byte {
	return binary.AppendVarint(appendKey(b, k), int64(r))
}

// SaveMemo writes the analyzer's memo tables, in one Write, so a later
// session (or another program's compilation) can start warm. Degraded
// (Maybe) entries are skipped: they are valid only under the budget class
// that produced them, and a persisted table must serve every future
// configuration.
func (a *Analyzer) SaveMemo(w io.Writer) error {
	var full, eq []byte
	var nFull, nEq int
	var v persist.Verdict
	a.full.Range(func(k memo.Key, c cached) bool {
		if dtest.Outcome(c.res.Outcome) == dtest.Maybe {
			return true
		}
		v.Outcome, v.Exact, v.Kind, v.Vectors = int(c.res.Outcome), c.res.Exact, int(c.res.Kind), c.projVectors
		v.DistLevel, v.DistValue = v.DistLevel[:0], v.DistValue[:0]
		for _, d := range c.projDistances {
			v.DistLevel = append(v.DistLevel, d.Level)
			v.DistValue = append(v.DistValue, d.Value)
		}
		full = appendFull(full, k, &v)
		nFull++
		return true
	})
	a.eq.Range(func(k memo.Key, r system.GCDResult) bool {
		eq = appendEq(eq, k, r)
		nEq++
		return true
	})
	b := persist.AppendHeader(make([]byte, 0, 64+len(full)+len(eq)), persist.MemoFile, keyScheme(a.opts.ImprovedMemo))
	b = append(binary.AppendUvarint(b, uint64(nFull)), full...)
	b = append(binary.AppendUvarint(b, uint64(nEq)), eq...)
	_, err := w.Write(b)
	return err
}

// LoadMemo merges previously saved tables into the analyzer. The file must
// carry the current format and semantics versions (an older one is stale:
// the error wraps persist.ErrStale and the caller may start cold) and the
// analyzer's key scheme, and every entry must be one SaveMemo can write:
// a verdict persist.CheckVerdict accepts that is not degraded (Maybe), or
// an Extended GCD result that names a GCDResult. A truncated or
// hand-edited file is rejected whole, before any entry is merged, rather
// than panicking here or on a later hit.
func (a *Analyzer) LoadMemo(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("core: reading memo table: %w", err)
	}
	full, eq, err := decodeMemo(b, a.opts.ImprovedMemo)
	if err != nil {
		return fmt.Errorf("core: memo table: %w", err)
	}
	for i := range full {
		a.full.Insert(full[i].key, full[i].c)
	}
	for i := range eq {
		a.eq.Insert(eq[i].key, eq[i].r)
	}
	a.Stats.UniqueFull = a.full.Len()
	a.Stats.UniqueEq = a.eq.Len()
	return nil
}

type fullEntry struct {
	key memo.Key
	c   cached
}

type eqEntry struct {
	key memo.Key
	r   system.GCDResult
}

// decodeMemo decodes a memo file. Keys, vectors, direction bytes and
// distances are carved off one growing slab each for the whole file.
func decodeMemo(b []byte, improved bool) ([]fullEntry, []eqEntry, error) {
	d := persist.NewDecoder(b)
	scheme, err := d.Header(persist.MemoFile)
	if err != nil {
		return nil, nil, err
	}
	if want := keyScheme(improved); scheme != want {
		return nil, nil, fmt.Errorf("uses %s, analyzer uses %s", scheme, want)
	}
	var keys []int64
	readKey := func() memo.Key {
		k := persist.Take(&keys, d.Count(1))
		for i := range k {
			k[i] = d.Int64()
		}
		return k
	}
	var slabs persist.Slabs
	var dists []depvec.Distance
	full := make([]fullEntry, d.Count(1+persist.MinVerdictBytes))
	for i := range full {
		e := &full[i]
		e.key = readKey()
		var v persist.Verdict
		slabs.Levels, slabs.Values = slabs.Levels[:0], slabs.Values[:0]
		d.Verdict(&v, &slabs)
		if d.Err() == nil && v.Outcome == int(dtest.Maybe) {
			d.Fail(errors.New("degraded (maybe) verdict, which SaveMemo never writes"))
		}
		if err := d.Err(); err != nil {
			return nil, nil, fmt.Errorf("full entry %d: %w", i, err)
		}
		// CheckVerdict has bounded Outcome and Kind, so they fit a byte.
		// DecidedBy is rewritten to ByCache on every hit; the zero stamp
		// puts the entry before every run.
		e.c = cached{
			res: verdict{
				Outcome:   uint8(v.Outcome),
				Exact:     v.Exact,
				Kind:      uint8(v.Kind),
				DecidedBy: uint8(ByTest),
			},
			projVectors:   v.Vectors,
			projDistances: persist.Take(&dists, len(v.DistLevel)),
		}
		for j := range e.c.projDistances {
			e.c.projDistances[j] = depvec.Distance{Level: v.DistLevel[j], Value: v.DistValue[j]}
		}
	}
	eq := make([]eqEntry, d.Count(2))
	for i := range eq {
		e := &eq[i]
		e.key = readKey()
		e.r = system.GCDResult(d.Int())
		if err := d.Err(); err != nil {
			return nil, nil, fmt.Errorf("eq entry %d: %w", i, err)
		}
		if e.r != system.GCDIndependent && e.r != system.GCDDependent {
			return nil, nil, fmt.Errorf("eq entry %d: GCD result %d out of range", i, e.r)
		}
	}
	if err := d.End(); err != nil {
		return nil, nil, err
	}
	return full, eq, nil
}
