package corpus

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"exactdep/internal/core"
	"exactdep/internal/depvec"
	"exactdep/internal/dtest"
	"exactdep/internal/memo"
	"exactdep/internal/refs"
)

// Store is the persistent verdict store of the incremental driver:
// fingerprint → per-unit verdicts, direction vectors, distances and cost
// counters. It follows the SaveMemo discipline — gob snapshot save/load,
// versioned, validated against the analyzer configuration — but lives one
// level up: where the memo tables cache canonical *problems*, the store
// caches whole *units*, so an unchanged unit costs one map probe instead of
// one memo probe per pair.
//
// A store is bound to an options signature (Signature): the subset of
// core.Options that can change result bytes — direction vectors, pruning,
// separability, cascade configuration, symmetric-memo vector ordering, and
// the count-budget class. Loading a snapshot saved under a different
// signature fails, exactly as LoadMemo rejects a key-scheme mismatch. A
// driver whose budget class differs from the store's may still use it
// under the cross-class rule (see Driver.SetStore).
//
// Stored results never include provenance (DecidedBy): provenance depends
// on session history even in a serial analyzer, so the driver serves store
// hits as ByCache and the canonical rendering excludes it.
//
// A Store is safe for concurrent use: Lookup, Put, Len, Save and SaveFile
// may run from any number of goroutines, so several drivers (depserve's
// per-class warm analyzers) can share one store. It also remembers whether
// a Put ran since it was opened or last saved to a file, so SaveFile writes
// only a store that changed.
type Store struct {
	sig signature

	mu    sync.RWMutex
	units map[memo.Fingerprint]*StoredUnit
	puts  int64 // Puts since NewStore/LoadStore
	saved int64 // puts at the last successful SaveFile

	saveMu sync.Mutex // serializes SaveFile, so renames land in snapshot order
}

// StoredUnit is one unit's persisted analysis product.
type StoredUnit struct {
	// Name is the unit's name when it was stored (informational: hits are
	// keyed purely on the fingerprint, so a renamed-but-identical unit
	// still hits).
	Name string
	// Results holds one entry per candidate, in candidate order.
	Results []StoredResult
	// Cost is the unit's verdict/cost profile.
	Cost CostSummary
}

// StoredResult is the serializable form of one pair's verdict.
type StoredResult struct {
	Outcome   int
	Exact     bool
	Kind      int
	Trip      int
	Vectors   [][]byte // one byte per level, depvec.Direction
	DistLevel []int
	DistValue []int64
}

// CostSummary is the per-unit cost profile persisted next to the verdicts:
// how much the unit cost to analyze, in the deterministic units of the
// paper's tables (pair and verdict counts, not wall time).
type CostSummary struct {
	Pairs       int
	Independent int
	Dependent   int
	Unknown     int
	Maybe       int
	Vectors     int
	Distances   int
}

// NewStore returns an empty store bound to the signature of opts.
func NewStore(opts core.Options) *Store {
	return &Store{sig: signatureOf(opts), units: make(map[memo.Fingerprint]*StoredUnit)}
}

// signature is an options signature in its two parts: the result surface
// (every result-shaping field except the budget) and the count-budget
// class. Drivers compare the parts separately (Driver.SetStore).
type signature struct{ surface, budget string }

func signatureOf(opts core.Options) signature {
	cascade := opts.Cascade
	if cascade == "" {
		cascade = "full"
	}
	cl := opts.Budget.Class()
	return signature{
		surface: fmt.Sprintf("v=%t pu=%t pd=%t sep=%t sym=%t cascade=%s",
			opts.DirectionVectors, opts.PruneUnused, opts.PruneDistance, opts.Separable,
			opts.SymmetricMemo, cascade),
		budget: fmt.Sprintf("budget=%d/%d/%d", cl.FMEliminations, cl.BranchNodes, cl.Constraints),
	}
}

func (g signature) String() string { return g.surface + " " + g.budget }

// Signature digests the options fields that can change result bytes. Two
// configurations with equal signatures produce byte-identical verdicts,
// vectors and distances for every unit, so they may share a store.
// Memoization layout, worker counts, timing, and clock limits (whose trips
// are never stored) are excluded.
func Signature(opts core.Options) string { return signatureOf(opts).String() }

// Signature returns the signature the store is bound to.
func (s *Store) Signature() string { return s.sig.String() }

// Len returns the number of stored units.
func (s *Store) Len() int {
	s.mu.RLock()
	n := len(s.units)
	s.mu.RUnlock()
	return n
}

// Lookup returns the stored unit for a fingerprint. The returned unit is
// shared and must be treated as immutable.
func (s *Store) Lookup(fp memo.Fingerprint) (*StoredUnit, bool) {
	s.mu.RLock()
	su, ok := s.units[fp]
	s.mu.RUnlock()
	return su, ok
}

// Put stores a unit's results under its fingerprint, overwriting any
// previous entry.
func (s *Store) Put(fp memo.Fingerprint, su StoredUnit) {
	s.mu.Lock()
	s.units[fp] = &su
	s.puts++
	s.mu.Unlock()
}

// storeFileVersion guards the on-disk format.
const storeFileVersion = 1

// savedStore is the on-disk document. Units are sorted by fingerprint so a
// given store always serializes to the same bytes.
type savedStore struct {
	Version   int
	Signature string
	Units     []savedStoreUnit
}

type savedStoreUnit struct {
	Hi, Lo uint64
	Unit   StoredUnit
}

// Save writes the store as a gob snapshot.
func (s *Store) Save(w io.Writer) error {
	doc, _ := s.snapshot()
	return gob.NewEncoder(w).Encode(&doc)
}

// snapshot copies the store into its on-disk document and returns the Put
// count the copy reflects. Only the copy runs under the read lock; the sort
// (and the caller's encode) run outside it, so a save holds up Puts only
// for the copy.
func (s *Store) snapshot() (savedStore, int64) {
	doc := savedStore{Version: storeFileVersion, Signature: s.sig.String()}
	s.mu.RLock()
	doc.Units = make([]savedStoreUnit, 0, len(s.units))
	for fp, su := range s.units {
		doc.Units = append(doc.Units, savedStoreUnit{Hi: fp.Hi, Lo: fp.Lo, Unit: *su})
	}
	puts := s.puts
	s.mu.RUnlock()
	sort.Slice(doc.Units, func(i, j int) bool {
		if doc.Units[i].Hi != doc.Units[j].Hi {
			return doc.Units[i].Hi < doc.Units[j].Hi
		}
		return doc.Units[i].Lo < doc.Units[j].Lo
	})
	return doc, puts
}

// SaveFile writes the store to path atomically — a temp file in the same
// directory, then a rename — and does nothing when no Put ran since the
// store was opened or last saved. A failed save leaves the previous file
// intact and the store unsaved, so the next SaveFile writes it again.
func (s *Store) SaveFile(path string) error {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	s.mu.RLock()
	clean := s.puts == s.saved
	s.mu.RUnlock()
	if clean {
		return nil
	}
	doc, puts := s.snapshot()
	f, err := os.CreateTemp(filepath.Dir(path), ".exactdep-store-*")
	if err != nil {
		return err
	}
	err = gob.NewEncoder(f).Encode(&doc)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	s.mu.Lock()
	s.saved = puts
	s.mu.Unlock()
	return nil
}

// OpenStore loads the snapshot at path (see LoadStore), or returns an empty
// store bound to opts when no file exists there yet.
func OpenStore(path string, opts core.Options) (*Store, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return NewStore(opts), nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadStore(f, opts)
}

// LoadStore reads a snapshot saved by Save, validating that it was produced
// under the same options signature and that every unit is one Serve can
// rebuild (see StoredUnit.validate): a truncated or hand-edited snapshot is
// rejected here rather than panicking on a later store hit.
func LoadStore(r io.Reader, opts core.Options) (*Store, error) {
	var doc savedStore
	if err := gob.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("corpus: loading verdict store: %w", err)
	}
	if doc.Version != storeFileVersion {
		return nil, fmt.Errorf("corpus: verdict store version %d, want %d", doc.Version, storeFileVersion)
	}
	s := NewStore(opts)
	if doc.Signature != s.Signature() {
		return nil, fmt.Errorf("corpus: verdict store signature %q, analyzer configuration needs %q",
			doc.Signature, s.sig)
	}
	for i := range doc.Units {
		su := &doc.Units[i]
		fp := memo.Fingerprint{Hi: su.Hi, Lo: su.Lo}
		if err := su.Unit.validate(); err != nil {
			return nil, fmt.Errorf("corpus: verdict store unit %q (%s): %w", su.Unit.Name, fp, err)
		}
		s.units[fp] = &su.Unit
	}
	return s, nil
}

// validate checks a decoded unit against what ToStored can produce: every
// result a verdict core.CheckVerdict accepts with a trip reason inside its
// enum, and a cost profile counting every result.
func (su *StoredUnit) validate() error {
	if su.Cost.Pairs != len(su.Results) {
		return fmt.Errorf("cost counts %d pairs, %d results stored", su.Cost.Pairs, len(su.Results))
	}
	for i := range su.Results {
		sr := &su.Results[i]
		err := core.CheckVerdict(sr.Outcome, sr.Kind, sr.Vectors, sr.DistLevel, sr.DistValue)
		if err == nil && (sr.Trip < int(dtest.TripNone) || sr.Trip >= dtest.NumTripReasons) {
			err = fmt.Errorf("trip reason %d out of range", sr.Trip)
		}
		if err != nil {
			return fmt.Errorf("result %d: %w", i, err)
		}
	}
	return nil
}

// Storable reports whether a unit's results may enter the store: verdicts
// tripped by the clock or by cancellation are scheduling-dependent, so a
// unit containing one is re-analyzed on every run instead of being
// persisted (the same rule the memo tables apply per problem).
func Storable(results []core.Result) bool {
	for i := range results {
		if t := results[i].Trip; t == dtest.TripDeadline || t == dtest.TripCancelled {
			return false
		}
	}
	return true
}

// ToStored converts a unit's fresh results to the persisted form the
// driver stores (exported, with Serve, for callers that drive a Store by
// hand).
func ToStored(name string, results []core.Result) StoredUnit {
	su := StoredUnit{Name: name, Results: make([]StoredResult, len(results)), Cost: Summarize(results)}
	for i := range results {
		r := &results[i]
		sr := StoredResult{
			Outcome: int(r.Outcome),
			Exact:   r.Exact,
			Kind:    int(r.Kind),
			Trip:    int(r.Trip),
		}
		for _, v := range r.Vectors {
			bs := make([]byte, len(v))
			for l, d := range v {
				bs[l] = byte(d)
			}
			sr.Vectors = append(sr.Vectors, bs)
		}
		for _, d := range r.Distances {
			sr.DistLevel = append(sr.DistLevel, d.Level)
			sr.DistValue = append(sr.DistValue, d.Value)
		}
		su.Results[i] = sr
	}
	return su
}

// Serve rebuilds a unit's results from the store, attaching the *current*
// candidates' pairs (the fingerprint proved them equivalent). Served
// results report ByCache.
func Serve(cands []refs.Candidate, su *StoredUnit) []core.Result {
	out := make([]core.Result, len(su.Results))
	for i := range su.Results {
		sr := &su.Results[i]
		r := core.Result{
			Pair:      cands[i].Pair,
			Outcome:   dtest.Outcome(sr.Outcome),
			Exact:     sr.Exact,
			DecidedBy: core.ByCache,
			Kind:      dtest.Kind(sr.Kind),
			Trip:      dtest.TripReason(sr.Trip),
		}
		for _, bs := range sr.Vectors {
			v := make(depvec.Vector, len(bs))
			for l, b := range bs {
				v[l] = depvec.Direction(b)
			}
			r.Vectors = append(r.Vectors, v)
		}
		for j := range sr.DistLevel {
			r.Distances = append(r.Distances, depvec.Distance{Level: sr.DistLevel[j], Value: sr.DistValue[j]})
		}
		out[i] = r
	}
	return out
}

// Summarize computes a unit's cost profile from its results.
func Summarize(results []core.Result) CostSummary {
	c := CostSummary{Pairs: len(results)}
	for i := range results {
		r := &results[i]
		switch r.Outcome {
		case dtest.Independent:
			c.Independent++
		case dtest.Dependent:
			c.Dependent++
		case dtest.Maybe:
			c.Maybe++
		default:
			c.Unknown++
		}
		c.Vectors += len(r.Vectors)
		c.Distances += len(r.Distances)
	}
	return c
}
