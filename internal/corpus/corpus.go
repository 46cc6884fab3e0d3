// Package corpus is the whole-corpus layer over the analyzer: it abstracts
// "the set of programs a compiler session sees" into named units of
// candidate pairs, fingerprints each unit's dependence input
// (memo.Fingerprint — the whole-nest extension of the §5 canonical-key
// discipline), and drives incremental re-analysis against a persistent
// fingerprint → verdict Store so only changed units ever reach the test
// cascade.
//
// The pieces:
//
//   - Unit / Source: a corpus is any ordered set of named units. Dir and
//     Files adapt directory trees of loop-language DSL files; Mem adapts
//     in-memory unit slices (the workload package adapts the synthetic
//     PERFECT-style suite and the 4096-nest LargeCorpus).
//   - Fingerprinter: folds a unit's candidate systems — classes, common
//     depths, subscript equations, loop bounds, symbols — into a 128-bit
//     structural digest, straight off the IR with no system building, so
//     fingerprinting a corpus costs microseconds per unit.
//   - Store: fingerprint → per-unit verdicts, direction vectors, distances
//     and cost counters, plus a file index (unit name → SHA-256 of the
//     file's bytes, fingerprint, pair count, warnings), with snapshot
//     Save/Load in the binary format of package persist (shared with
//     core.SaveMemo) scoped to an Options signature and a semantics
//     version. Safe for concurrent use; OpenStore and SaveFile (atomic,
//     skipped while unchanged) are the one way a front end opens and saves
//     a store file.
//   - Driver: serves a file-backed unit whose bytes the file index already
//     knows without parsing it, diffs the other units' fingerprints
//     against the store, schedules only changed/new units through
//     core.AnalyzeAll (chunked batches, shared memo tables, deterministic
//     order, byte-identical at every worker count), and serves everything
//     else from the store — under the cross-class rule when the store
//     belongs to another budget class.
//
// Front ends never read or write a store's entries themselves: they open
// it, attach it to a driver, and save it.
//
// This is the IDE/CI re-analysis workflow the paper's §5 "store the hash
// table across compilations" remark scales into: real traffic is mostly
// re-analysis of slightly-changed programs, and the driver re-solves only
// what changed.
package corpus

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"exactdep/internal/lang"
	"exactdep/internal/memo"
	"exactdep/internal/opt"
	"exactdep/internal/refs"
)

// Unit is one named member of a corpus: the invalidation granule of
// incremental analysis. Cands are its candidate pairs in deterministic
// order; Warnings carries lowering warnings for reporting.
//
// A unit is immutable once built: edits must produce a fresh Unit value
// (re-read the file, or rebuild the candidate list as workload.MutateNests
// does). That contract is what lets the driver cache the unit's
// fingerprint in place, so a long-lived in-memory corpus pays the
// fingerprint walk once per unit, not once per run.
type Unit struct {
	Name     string
	Cands    []refs.Candidate
	Warnings []string

	fp memo.Fingerprint // cached digest; zero = not yet computed
}

// Fingerprint returns the unit's structural digest, computing it with f
// and caching it on first use.
func (u *Unit) Fingerprint(f *Fingerprinter) memo.Fingerprint {
	if u.fp.IsZero() {
		u.fp = f.Unit(*u)
	}
	return u.fp
}

// Source enumerates the units of a corpus in a deterministic order. Units
// is called once per Driver.Run, so sources backed by files re-read them on
// every run — which is exactly what lets the driver observe edits.
type Source interface {
	Units() ([]Unit, error)
}

// Item is one lazily-loadable member of a corpus listing: the unit's name
// plus either Read, which returns the loop-language source the unit is
// parsed from, or Load, the deferred read+parse that materializes it; Read
// wins when both are set. With Read the driver digests the bytes before
// parsing them, so a store's file index can serve an unchanged file
// without a parse (see Store). Read and Load must be safe to call from any
// goroutine (items are loaded by a worker pool) and independent of every
// other item's.
type Item struct {
	Name string
	Read func() ([]byte, error)
	Load func() (Unit, error)
}

// unit materializes the item.
func (it *Item) unit() (Unit, error) {
	if it.Read == nil {
		return it.Load()
	}
	src, err := it.Read()
	if err != nil {
		return Unit{}, fmt.Errorf("corpus: %w", err)
	}
	return FromSource(it.Name, string(src))
}

// Lister is the streaming face of a Source: sources that can enumerate
// their members cheaply (a directory walk, a path list) before paying the
// per-unit read+parse cost. The driver's front end reads (or loads),
// fingerprints, and store-probes Lister items with a worker pool while the
// solver is already chewing on earlier units; plain Sources are
// materialized through Units first. Dir and Files implement it with Read
// items; Mem deliberately does not (its units already exist).
type Lister interface {
	Source
	List() ([]Item, error)
}

// loadItems materializes a listing with a pool of up to GOMAXPROCS
// workers, preserving item order: workers claim indices atomically and fill
// a pre-sized slice, so the result is byte-identical to a serial loop at
// any worker count. On failure the error of the lowest-index failing item
// wins — the same error a serial loop would have stopped on — and every
// worker is joined before returning, so no goroutine outlives the call.
func loadItems(items []Item) ([]Unit, error) {
	units := make([]Unit, len(items))
	errs := make([]error, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), len(items)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				units[i], errs[i] = items[i].unit()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return units, nil
}

// Mem is an in-memory corpus: the units themselves. The adapter for
// generated workloads and for tests that mutate units between runs.
type Mem []Unit

// Units returns the units as given.
func (m Mem) Units() ([]Unit, error) { return m, nil }

// FromSource parses and lowers one loop-language source into a unit named
// name, enumerating candidate pairs with write self-pairs included (the
// same population the single-unit facade analyzes).
func FromSource(name, src string) (Unit, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return Unit{}, fmt.Errorf("corpus: %s: %w", name, err)
	}
	u := opt.Lower(prog)
	return Unit{Name: name, Cands: refs.Pairs(u), Warnings: u.Warnings}, nil
}

// files is the Source over an explicit list of DSL file paths.
type files []string

// Files returns a Source over the given loop-language files, one unit per
// file in the given order, named by path. Units reads and parses the files
// with a worker pool (List exposes the lazy form for the driver's pool);
// unit order is the given path order regardless of worker count.
func Files(paths ...string) Source { return files(paths) }

func (f files) List() ([]Item, error) {
	items := make([]Item, len(f))
	for i, path := range f {
		items[i] = Item{Name: path, Read: func() ([]byte, error) { return os.ReadFile(path) }}
	}
	return items, nil
}

func (f files) Units() ([]Unit, error) {
	items, err := f.List()
	if err != nil {
		return nil, err
	}
	return loadItems(items)
}

// dir is the Source over a directory tree of DSL files.
type dir string

// DirExt is the file extension Dir treats as a loop-language unit.
const DirExt = ".loop"

// Dir returns a Source over every *.loop file under root (recursively),
// one unit per file in sorted relative-path order — the stable order that
// makes corpus output deterministic across runs and platforms. Units reads
// and parses the files with a worker pool (List exposes the lazy form for
// the driver's pool); the sorted order is fixed by the walk, before any
// loading starts, so it is identical at every worker count.
func Dir(root string) Source { return dir(root) }

func (d dir) List() ([]Item, error) {
	var paths []string
	err := filepath.WalkDir(string(d), func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !e.IsDir() && strings.HasSuffix(e.Name(), DirExt) {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("corpus: walking %s: %w", string(d), err)
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("corpus: no %s files under %s", DirExt, string(d))
	}
	items := make([]Item, len(paths))
	for i, path := range paths {
		rel, err := filepath.Rel(string(d), path)
		if err != nil {
			rel = path
		}
		items[i] = Item{Name: filepath.ToSlash(rel), Read: func() ([]byte, error) { return os.ReadFile(path) }}
	}
	return items, nil
}

func (d dir) Units() ([]Unit, error) {
	items, err := d.List()
	if err != nil {
		return nil, err
	}
	return loadItems(items)
}
