package corpus

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"slices"
	"strings"
	"sync"

	"exactdep/internal/atomicfile"
	"exactdep/internal/core"
	"exactdep/internal/depvec"
	"exactdep/internal/dtest"
	"exactdep/internal/memo"
	"exactdep/internal/persist"
	"exactdep/internal/refs"
)

// Store is the persistent verdict store of the incremental driver:
// fingerprint → per-unit verdicts, direction vectors, distances and cost
// counters. It follows the SaveMemo discipline — a snapshot in the one
// binary format of package persist, versioned, validated as it is read
// and bound to the analyzer configuration — but lives one level up: where
// the memo tables cache canonical *problems*, the store caches whole
// *units*, so an unchanged unit costs one map probe instead of one memo
// probe per pair.
//
// A store is bound to an options signature (Signature): the subset of
// core.Options that can change result bytes — direction vectors, pruning,
// separability, cascade configuration, and the count-budget class. Loading a snapshot saved under a different
// signature fails, exactly as LoadMemo rejects a key-scheme mismatch. A
// driver whose budget class differs from the store's may still use it
// under the cross-class rule (see Driver.SetStore).
//
// Stored results never include provenance (DecidedBy): provenance depends
// on session history even in a serial analyzer, so the driver serves store
// hits as ByCache and the canonical rendering excludes it.
//
// Next to the units the store keeps a file index: unit name → the SHA-256
// of the file the unit was parsed from, its fingerprint, pair count and
// lowering warnings. The driver records an entry for every file-backed
// unit (Dir, Files) the store serves, so on the next run an unchanged file
// costs a digest and an index probe instead of a parse: equal bytes under
// an equal semantics version give an equal unit. An entry is only a hint:
// a hit still passes the driver's probe of its fingerprint, and a hit the
// store no longer serves falls back to parsing.
//
// A Store is safe for concurrent use: Lookup, Put, Len, Save and SaveFile
// may run from any number of goroutines, so several drivers (depserve's
// per-class warm analyzers) can share one store. It also remembers whether
// a Put ran or an index entry changed since it was opened or last saved to
// a file, so SaveFile writes only a store that changed.
type Store struct {
	sig signature

	mu      sync.RWMutex
	units   map[memo.Fingerprint]*StoredUnit
	files   map[string]fileEntry // the file index, by unit name
	changes int64                // Puts and index changes since NewStore/LoadStore
	saved   int64                // changes at the last successful SaveFile
	stale   error                // the stale file OpenStore set aside, if any

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

// StoredResult is the serializable form of one pair's verdict: the verdict
// record the store shares with the memo file, plus the trip reason.
type StoredResult struct {
	persist.Verdict
	Trip int
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

// fileEntry is one file index entry: what the front end derived from the
// file whose bytes hash to digest.
type fileEntry struct {
	digest   [sha256.Size]byte
	fp       memo.Fingerprint
	pairs    int
	warnings []string
}

// NewStore returns an empty store bound to the signature of opts.
func NewStore(opts core.Options) *Store {
	return &Store{sig: signatureOf(opts), units: make(map[memo.Fingerprint]*StoredUnit),
		files: make(map[string]fileEntry)}
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
		surface: fmt.Sprintf("v=%t pu=%t pd=%t cascade=%s",
			opts.DirectionVectors, opts.PruneUnused, opts.PruneDistance, cascade),
		budget: fmt.Sprintf("budget=%d/%d/%d", cl.FMEliminations, cl.BranchNodes, cl.Constraints),
	}
}

func (g signature) String() string { return g.surface + " " + g.budget }

// Signature digests the options fields that can change result bytes. Two
// configurations with equal signatures produce byte-identical verdicts,
// vectors and distances for every unit, so they may share a store.
// Memoization layout (Memoize, ImprovedMemo), worker counts, timing, and
// clock limits (whose trips are never stored) are excluded.
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
	s.changes++
	s.mu.Unlock()
}

// file returns the index entry of the unit named name.
func (s *Store) file(name string) (fileEntry, bool) {
	s.mu.RLock()
	e, ok := s.files[name]
	s.mu.RUnlock()
	return e, ok
}

// indexFile sets the index entry of the unit named name.
func (s *Store) indexFile(name string, e fileEntry) {
	s.mu.Lock()
	s.files[name] = e
	s.changes++
	s.mu.Unlock()
}

// Save writes the store as a snapshot file (package persist) in one Write.
func (s *Store) Save(w io.Writer) error {
	b, _ := s.encode()
	_, err := w.Write(b)
	return err
}

// A snapshot is a persist header bound to the store's signature, then the
// units as counted records in strictly increasing fingerprint order, then
// the file index as counted records in strictly increasing name order, so
// a given store always encodes to the same bytes:
//
//	unit   = hi:8 lo:8 (little-endian)  name:string
//	         cost: 7 × uvarint (CostSummary, field order)
//	         directions:uvarint (direction bytes over the unit's vectors)
//	         results:uvarint { verdict  trip:varint }
//	file   = name:string  sha256:32  hi:8 lo:8  pairs:uvarint
//	         warnings:uvarint { string }
//
// The cost and the direction count size the unit's slabs before its
// results are read.
const minUnitBytes = 16 + 1 + 7 + 1 + 1
const minResultBytes = persist.MinVerdictBytes + 1
const minFileBytes = 1 + sha256.Size + 16 + 1 + 1

// encode renders the store's snapshot and returns the change count it
// reflects. Only collecting the units and index entries runs under the
// read lock (both are immutable once stored); the sorts and the encoding
// run outside it, so a save holds up Puts only for the copy.
func (s *Store) encode() ([]byte, int64) {
	type entry struct {
		fp memo.Fingerprint
		su *StoredUnit
	}
	type named struct {
		name string
		e    fileEntry
	}
	s.mu.RLock()
	units := make([]entry, 0, len(s.units))
	for fp, su := range s.units {
		units = append(units, entry{fp, su})
	}
	files := make([]named, 0, len(s.files))
	for name, e := range s.files {
		files = append(files, named{name, e})
	}
	changes := s.changes
	s.mu.RUnlock()
	slices.SortFunc(units, func(a, b entry) int { return compareFP(a.fp, b.fp) })
	slices.SortFunc(files, func(a, b named) int { return strings.Compare(a.name, b.name) })
	b := persist.AppendHeader(nil, persist.StoreFile, s.sig.String())
	b = binary.AppendUvarint(b, uint64(len(units)))
	for _, u := range units {
		b = appendUnit(b, u.fp, u.su)
	}
	b = binary.AppendUvarint(b, uint64(len(files)))
	for _, f := range files {
		b = appendFile(b, f.name, &f.e)
	}
	return b, changes
}

func compareFP(a, b memo.Fingerprint) int {
	if c := cmp.Compare(a.Hi, b.Hi); c != 0 {
		return c
	}
	return cmp.Compare(a.Lo, b.Lo)
}

func appendUnit(b []byte, fp memo.Fingerprint, su *StoredUnit) []byte {
	b = binary.LittleEndian.AppendUint64(b, fp.Hi)
	b = binary.LittleEndian.AppendUint64(b, fp.Lo)
	b = persist.AppendString(b, su.Name)
	c := &su.Cost
	for _, n := range [...]int{c.Pairs, c.Independent, c.Dependent, c.Unknown, c.Maybe, c.Vectors, c.Distances} {
		b = binary.AppendUvarint(b, uint64(n))
	}
	dirs := 0
	for i := range su.Results {
		for _, v := range su.Results[i].Vectors {
			dirs += len(v)
		}
	}
	b = binary.AppendUvarint(b, uint64(dirs))
	b = binary.AppendUvarint(b, uint64(len(su.Results)))
	for i := range su.Results {
		sr := &su.Results[i]
		b = persist.AppendVerdict(b, &sr.Verdict)
		b = binary.AppendVarint(b, int64(sr.Trip))
	}
	return b
}

func appendFile(b []byte, name string, e *fileEntry) []byte {
	b = persist.AppendString(b, name)
	b = append(b, e.digest[:]...)
	b = binary.LittleEndian.AppendUint64(b, e.fp.Hi)
	b = binary.LittleEndian.AppendUint64(b, e.fp.Lo)
	b = binary.AppendUvarint(b, uint64(e.pairs))
	b = binary.AppendUvarint(b, uint64(len(e.warnings)))
	for _, w := range e.warnings {
		b = persist.AppendString(b, w)
	}
	return b
}

// SaveFile writes the store to path atomically — a temp file in the same
// directory, then a rename — and does nothing when no Put ran and no index
// entry changed since the store was opened or last saved. A failed save
// leaves the previous file intact and the store unsaved, so the next
// SaveFile writes it again.
func (s *Store) SaveFile(path string) error {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	s.mu.RLock()
	clean := s.changes == s.saved
	s.mu.RUnlock()
	if clean {
		return nil
	}
	b, changes := s.encode()
	if err := atomicfile.Write(path, ".exactdep-store-*", func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}); err != nil {
		return err
	}
	s.mu.Lock()
	s.saved = changes
	s.mu.Unlock()
	return nil
}

// OpenStore loads the snapshot at path (see LoadStore), or returns an empty
// store bound to opts when no file exists there yet. A snapshot written
// under an older format or semantics version is stale, not an error: the
// store opens empty, reports the file through Stale, and counts as
// unsaved, so the next SaveFile replaces the file.
func OpenStore(path string, opts core.Options) (*Store, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return NewStore(opts), nil
	}
	if err != nil {
		return nil, err
	}
	s, err := decodeStore(b, opts)
	if errors.Is(err, persist.ErrStale) {
		s = NewStore(opts)
		s.stale = fmt.Errorf("corpus: %s: %w", path, err)
		s.saved = -1
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: %w", path, err)
	}
	return s, nil
}

// Stale returns why OpenStore set the file at its path aside as stale, or
// nil when the store was not opened over a stale file.
func (s *Store) Stale() error { return s.stale }

// LoadStore reads a snapshot saved by Save. The snapshot must carry the
// current format and semantics versions and the signature of opts, and
// every unit must be one Serve can rebuild: verdicts persist.CheckVerdict
// accepts, trip reasons inside their enum, a cost profile equal to
// Summarize of the results, and fingerprints strictly increasing. The
// file index must follow, its names strictly increasing, and nothing after
// it. A truncated or hand-edited snapshot is rejected here, whole, rather
// than panicking on a later store hit. An older version's snapshot fails
// with an error wrapping persist.ErrStale (OpenStore opens it as empty).
func LoadStore(r io.Reader, opts core.Options) (*Store, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("corpus: reading verdict store: %w", err)
	}
	s, err := decodeStore(b, opts)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	return s, nil
}

// decodeStore decodes a snapshot. Each unit costs a fixed number of
// allocations — its name and one slab each for its results, vectors,
// direction bytes, distance levels and distance values — however many
// results it holds.
func decodeStore(b []byte, opts core.Options) (*Store, error) {
	s := NewStore(opts)
	d := persist.NewDecoder(b)
	sig, err := d.Header(persist.StoreFile)
	if err != nil {
		return nil, err
	}
	if sig != s.Signature() {
		return nil, fmt.Errorf("verdict store signature %q, analyzer configuration needs %q", sig, s.sig)
	}
	units := make([]StoredUnit, d.Count(minUnitBytes))
	s.units = make(map[memo.Fingerprint]*StoredUnit, len(units))
	var prev memo.Fingerprint
	for i := range units {
		su := &units[i]
		fp := memo.Fingerprint{Hi: d.Uint64(), Lo: d.Uint64()}
		su.Name = d.String()
		err := decodeUnit(d, su)
		if err == nil && i > 0 && compareFP(prev, fp) >= 0 {
			err = fmt.Errorf("fingerprint not above the previous unit's %s", prev)
		}
		if err != nil {
			return nil, fmt.Errorf("verdict store unit %q (%s): %w", su.Name, fp, err)
		}
		s.units[fp] = su
		prev = fp
	}
	n := d.Count(minFileBytes)
	s.files = make(map[string]fileEntry, n)
	var prevName string
	for i := 0; i < n; i++ {
		name := d.String()
		var e fileEntry
		d.Bytes(e.digest[:])
		e.fp = memo.Fingerprint{Hi: d.Uint64(), Lo: d.Uint64()}
		e.pairs = int(d.Uvarint())
		if nw := d.Count(1); nw > 0 {
			e.warnings = make([]string, nw)
			for j := range e.warnings {
				e.warnings[j] = d.String()
			}
		}
		err := d.Err()
		if err == nil && i > 0 && name <= prevName {
			err = fmt.Errorf("name not above the previous entry's %q", prevName)
		}
		if err != nil {
			return nil, fmt.Errorf("verdict store file index entry %q: %w", name, err)
		}
		s.files[name] = e
		prevName = name
	}
	if err := d.End(); err != nil {
		return nil, fmt.Errorf("verdict store: %w", err)
	}
	return s, nil
}

// decodeUnit reads the rest of one unit record into su.
func decodeUnit(d *persist.Decoder, su *StoredUnit) error {
	c := &su.Cost
	for _, f := range [...]*int{&c.Pairs, &c.Independent, &c.Dependent, &c.Unknown, &c.Maybe} {
		*f = int(d.Uvarint())
	}
	// A vector takes at least its length byte, a distance a level byte and
	// a value byte.
	c.Vectors, c.Distances = d.Count(1), d.Count(2)
	dirs := d.Count(1)
	slabs := persist.Slabs{
		Vectors:    make([][]depvec.Direction, 0, c.Vectors),
		Directions: make([]depvec.Direction, 0, dirs),
		Levels:     make([]int, 0, c.Distances),
		Values:     make([]int64, 0, c.Distances),
	}
	su.Results = make([]StoredResult, d.Count(minResultBytes))
	var sum CostSummary
	for i := range su.Results {
		sr := &su.Results[i]
		d.Verdict(&sr.Verdict, &slabs)
		sr.Trip = d.Int()
		if d.Err() == nil && (sr.Trip < int(dtest.TripNone) || sr.Trip >= dtest.NumTripReasons) {
			d.Fail(fmt.Errorf("trip reason %d out of range", sr.Trip))
		}
		if err := d.Err(); err != nil {
			return fmt.Errorf("result %d: %w", i, err)
		}
		sum.count(dtest.Outcome(sr.Outcome), len(sr.Vectors), len(sr.DistLevel))
	}
	if err := d.Err(); err != nil {
		return err
	}
	if sum != *c {
		return fmt.Errorf("cost profile %+v, results sum to %+v", *c, sum)
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
		sr := &su.Results[i]
		sr.Outcome, sr.Exact, sr.Kind, sr.Trip = int(r.Outcome), r.Exact, int(r.Kind), int(r.Trip)
		for _, v := range r.Vectors {
			sr.Vectors = append(sr.Vectors, slices.Clone([]depvec.Direction(v)))
		}
		for _, d := range r.Distances {
			sr.DistLevel = append(sr.DistLevel, d.Level)
			sr.DistValue = append(sr.DistValue, d.Value)
		}
	}
	return su
}

// Serve rebuilds a unit's results from the store, attaching the *current*
// candidates' pairs (the fingerprint proved them equivalent); with nil
// cands — a unit served through the file index, never parsed — every Pair
// stays zero. Served results report ByCache. The results' vectors,
// direction bytes and distances are carved off one slab each, so serving a
// unit costs four allocations however many results it holds.
func Serve(cands []refs.Candidate, su *StoredUnit) []core.Result {
	var nv, nd, nl int
	for i := range su.Results {
		sr := &su.Results[i]
		nv += len(sr.Vectors)
		nl += len(sr.DistLevel)
		for _, v := range sr.Vectors {
			nd += len(v)
		}
	}
	vecs := make([]depvec.Vector, 0, nv)
	dirs := make([]depvec.Direction, 0, nd)
	dists := make([]depvec.Distance, 0, nl)
	out := make([]core.Result, len(su.Results))
	for i := range su.Results {
		sr := &su.Results[i]
		r := &out[i]
		*r = core.Result{
			Outcome:   dtest.Outcome(sr.Outcome),
			Exact:     sr.Exact,
			DecidedBy: core.ByCache,
			Kind:      dtest.Kind(sr.Kind),
			Trip:      dtest.TripReason(sr.Trip),
			Vectors:   persist.Take(&vecs, len(sr.Vectors)),
			Distances: persist.Take(&dists, len(sr.DistLevel)),
		}
		if cands != nil {
			r.Pair = cands[i].Pair
		}
		for j, bs := range sr.Vectors {
			r.Vectors[j] = persist.Take(&dirs, len(bs))
			copy(r.Vectors[j], bs)
		}
		for j := range r.Distances {
			r.Distances[j] = depvec.Distance{Level: sr.DistLevel[j], Value: sr.DistValue[j]}
		}
	}
	return out
}

// Summarize computes a unit's cost profile from its results.
func Summarize(results []core.Result) CostSummary {
	var c CostSummary
	for i := range results {
		r := &results[i]
		c.count(r.Outcome, len(r.Vectors), len(r.Distances))
	}
	return c
}

// count adds one result to the profile.
func (c *CostSummary) count(o dtest.Outcome, vectors, distances int) {
	c.Pairs++
	switch o {
	case dtest.Independent:
		c.Independent++
	case dtest.Dependent:
		c.Dependent++
	case dtest.Maybe:
		c.Maybe++
	default:
		c.Unknown++
	}
	c.Vectors += vectors
	c.Distances += distances
}
