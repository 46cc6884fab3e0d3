package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"exactdep"
	"exactdep/internal/core"
	"exactdep/internal/corpus"
	"exactdep/internal/lang"
	"exactdep/internal/opt"
	"exactdep/internal/refs"
)

// The two corpus workloads, closed loop with one client.
//
// corpus-edit is the CI/IDE re-analysis loop: a 32-file corpus (4,096
// nests) on disk with a persisted store; each op edits one or two files
// and calls exactdep.AnalyzeCorpusRequest, which loads the store, reads and
// parses every file, fingerprints, probes, solves the edited units and
// saves the store. corpus-cold is the first analysis of a fresh session:
// the same size of corpus plus an FM-hard share, parsed once at set-up;
// each op runs a fresh driver with a cold memo and no store.

const (
	corpusFiles  = 32  // LargeCorpus-shaped programs per corpus (4,096 nests)
	setupRepeats = 9   // set-up is timed this many times; the median is reported
	minOps       = 100 // a timed phase runs on to this many ops, so p90 has 10 samples beyond it
	editVariants = 4   // distinct edits per file in corpus-edit
)

// opSample is one closed-loop op.
type opSample struct {
	wall, cpu time.Duration
	traced    bool
}

// phase is what a timed phase measured besides its ops.
type phase struct {
	steal float64
	rssMB float64
}

// closedLoop runs op back to back for the phase length (and on to minOps
// ops, within twice that length). In a traced run every other op is
// traced, so traced and untraced ops share the phase's conditions.
func closedLoop(e *env, op func(i int, traced bool) (opSample, error)) ([]opSample, phase, error) {
	runtime.GC()
	if err := resetPeakRSS(0); err != nil {
		return nil, phase{}, fmt.Errorf("resetting peak RSS: %w", err)
	}
	t0 := readCPUTicks()
	start := time.Now()
	var out []opSample
	for i := 0; ; i++ {
		el := time.Since(start)
		if el >= e.seconds && (len(out) >= minOps || el >= 2*e.seconds) {
			break
		}
		s, err := op(i, e.trace && i%2 == 0)
		if err != nil {
			return nil, phase{}, err
		}
		out = append(out, s)
	}
	ph := phase{steal: stealPct(t0, readCPUTicks())}
	var err error
	if ph.rssMB, err = peakRSSMB(0); err != nil {
		return nil, phase{}, err
	}
	return out, ph, nil
}

// timed runs f and measures its wall and process CPU time.
func timed(f func() error) (opSample, error) {
	c0, t0 := selfCPU(), time.Now()
	err := f()
	return opSample{wall: time.Since(t0), cpu: selfCPU() - c0}, err
}

// endToEndCorpus reports the end-to-end metrics of a corpus workload.
func endToEndCorpus(r *report, setups []float64, ops []opSample, ph phase, nestsPerOp int, pairs, exact int, oc *outcome) {
	var wall, cpu []float64
	var busy time.Duration
	for _, s := range ops {
		wall = append(wall, ms(s.wall))
		cpu = append(cpu, ms(s.cpu))
		busy += s.wall
	}
	r.add("setup_s", "s", median(setups), len(setups))
	r.add("p50_ms", "ms", median(wall), len(wall))
	r.addPercentile("p90_ms", wall, 0.90)
	r.skip("p99_ms", "ms", "reported for serve-mixed only")
	r.add("nests_per_s", "1/s", float64(nestsPerOp*len(ops))/busy.Seconds(), len(ops))
	r.skip("max_rate_rps", "1/s", "reported for serve-mixed only")
	r.add("cpu_ms", "ms", median(cpu), len(cpu))
	r.add("rss_mb", "MB", ph.rssMB, 1)
	r.addRatio("exact_ratio", ratio{float64(exact), float64(pairs)})
	r.addRatio("fail_ratio", ratio{float64(oc.failed), float64(oc.attempted)})
}

// tracedResult reports a traced run's ledger, counters and diagnostics.
func tracedResult(r *report, l *ledger, c *layerCounts, ops []opSample, ph phase) {
	var tr, un []float64
	for _, s := range ops {
		if s.traced {
			tr = append(tr, ms(s.wall))
		} else {
			un = append(un, ms(s.wall))
		}
	}
	addLedger(r, l)
	r.add("trace.overhead_pct", "%", 100*(median(tr)/median(un)-1), len(tr)+len(un))
	addZero(r, "ms", "server.unattributed_ms")
	addCounts(r, c)
	addZero(r, "KB", "wire.response_kb")
	addZero(r, "count", "server.batch_mean", "server.cross_request_memo_hits", "server.degraded", "server.shed", "server.cancelled")
	addZero(r, "ratio", "server.coalesced_ratio", "server.store_hit_ratio")
	addZero(r, "ms", "gen.late_ms")
	r.add("host.steal_pct", "%", ph.steal, 1)
}

// editCorpus is corpus-edit's input: corpusFiles programs as .loop files,
// in corpus.Dir order.
func editCorpus(seed int64) []program {
	ps := largePrograms(seed, "corpus-edit", "E", corpusFiles, map[string]bool{})
	for i := range ps {
		ps[i].Name += corpus.DirExt
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	return ps
}

// coldCorpus is corpus-cold's input: corpusFiles programs plus the
// FM-hard share.
func coldCorpus(seed int64) []program {
	used := map[string]bool{}
	ps := largePrograms(seed, "corpus-cold", "C", corpusFiles, used)
	return append(ps, fmHardPrograms(seed, used)...)
}

func runCorpusEdit(e *env) (*report, *outcome, error) {
	opts := measuredOptions(e.nproc)
	g := newGate(opts)
	if err := checkPinned(g, "corpus-edit", editCorpus(defaultSeed)); err != nil {
		return nil, nil, err
	}
	base := editCorpus(e.seed)
	dir := filepath.Join(e.dir, "corpus")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	write := func(p program) error { return os.WriteFile(filepath.Join(dir, p.Name), []byte(p.Src), 0o644) }
	for _, p := range base {
		if err := write(p); err != nil {
			return nil, nil, err
		}
	}
	storePath := filepath.Join(e.dir, "edit.store")
	sopts := opts
	sopts.StorePath = storePath
	oc := &outcome{}
	ctx := context.Background()
	if err := g.compute(base); err != nil {
		return nil, nil, err
	}
	want := sha256.Sum256(g.expect(base))

	// Set-up: the first cold run, which solves everything and builds and
	// saves the store, timed setupRepeats times.
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		if err := os.Remove(storePath); err != nil && !os.IsNotExist(err) {
			return nil, nil, err
		}
		t0 := time.Now()
		rep, err := exactdep.AnalyzeCorpusRequest(ctx, exactdep.CorpusRequest{Dir: dir, Options: sopts})
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if summarize(rep.Units).digest != want {
			return nil, nil, fmt.Errorf("cold corpus run differs from the reference")
		}
	}
	baseStore, err := os.ReadFile(storePath)
	if err != nil {
		return nil, nil, err
	}

	// The edit schedule: ops edit one, one and then two distinct files in
	// turn (a fixed cycle, so p50 falls among one-file ops and p90 among
	// two-file ops), each file to one of editVariants seeded variants. The
	// store and the previous op's files are restored before each op
	// (untimed), so every op starts from the same state: a saved store
	// with every file's base version.
	sched := newRand(e.seed, "corpus-edit/schedule")
	nOps := 0
	nextEdits := func() []int {
		n := 1 + nOps%3/2
		nOps++
		picks := sched.Perm(len(base))[:n]
		for i := range picks {
			picks[i] = picks[i]*editVariants + sched.Intn(editVariants)
		}
		return picks
	}
	edited := func(code int) program {
		return editVariant(e.seed, base[code/editVariants], code%editVariants)
	}
	var prev []int
	prepare := func() ([]int, error) {
		for _, code := range prev {
			if err := write(base[code/editVariants]); err != nil {
				return nil, err
			}
		}
		if err := os.WriteFile(storePath, baseStore, 0o644); err != nil {
			return nil, err
		}
		codes := nextEdits()
		for _, code := range codes {
			if err := write(edited(code)); err != nil {
				return nil, err
			}
		}
		prev = codes
		return codes, nil
	}

	type opRecord struct {
		codes []int
		out   output
	}
	var records []opRecord
	var tr *tracer
	led, counts := newLedger(), &layerCounts{storeKB: float64(len(baseStore)) / 1024}
	if e.trace {
		tr = newTracer()
	}
	op := func(i int, traced bool) (opSample, error) {
		codes, err := prepare()
		if err != nil {
			return opSample{}, err
		}
		var urs []corpus.UnitResult
		var s opSample
		if traced {
			var d *corpus.Driver
			s, err = timed(func() error {
				var err error
				urs, d, err = tracedEditOp(ctx, tr, i, dir, storePath, opts, counts)
				return err
			})
			if err == nil {
				led.addSpans(tr.opSpans(i), func(self float64) map[string]float64 {
					return splitDriver(self, d.Stats.Stage, &d.Analyzer().Stats, e.nproc)
				})
				counts.ops++
				counts.addDriver(d.Stats, &d.Analyzer().Stats)
			}
			s.traced = true
		} else {
			s, err = timed(func() error {
				rep, err := exactdep.AnalyzeCorpusRequest(ctx, exactdep.CorpusRequest{Dir: dir, Options: sopts})
				if rep != nil {
					urs = rep.Units
				}
				return err
			})
		}
		oc.attempted++
		if err != nil {
			oc.fail("op %d: %v", i, err)
			return s, nil
		}
		records = append(records, opRecord{codes: codes, out: summarize(urs)})
		return s, nil
	}
	for i := 0; i < 3; i++ { // warm-up, untimed and unchecked
		if _, err := prepare(); err != nil {
			return nil, nil, err
		}
		if _, err := exactdep.AnalyzeCorpusRequest(ctx, exactdep.CorpusRequest{Dir: dir, Options: sopts}); err != nil {
			return nil, nil, err
		}
	}
	ops, ph, err := closedLoop(e, op)
	if err != nil {
		return nil, nil, err
	}
	if len(ops) == 0 {
		return nil, nil, errNoOps
	}

	// Verify every op against the reference of the files it saw.
	var edits []program
	for _, rec := range records {
		for _, code := range rec.codes {
			edits = append(edits, edited(code))
		}
	}
	if err := g.compute(edits); err != nil {
		return nil, nil, err
	}
	var pairs, exact int
	for i, rec := range records {
		view := append([]program(nil), base...)
		for _, code := range rec.codes {
			view[code/editVariants] = edited(code)
		}
		if exp := g.expect(view); !rec.out.matches(exp) {
			oc.fail("corpus-edit op %d (edits %v) differs from the reference", i, rec.codes)
		}
		pairs += rec.out.pairs
		exact += rec.out.exact
	}

	r := &report{}
	fmt.Fprintln(e.log, hostLine(fmt.Sprintf("workers=%d steal_pct=%.2f", e.nproc, ph.steal)))
	if !e.trace {
		endToEndCorpus(r, setups, ops, ph, corpusFiles*nestsPerProgram, pairs, exact, oc)
		return r, oc, nil
	}
	if err := tr.write(filepath.Join(filepath.Dir(e.dir), fmt.Sprintf("trace-corpus-edit-%d.jsonl", e.seed))); err != nil {
		return nil, nil, err
	}
	tracedResult(r, led, counts, ops, ph)
	return r, oc, nil
}

// tracedEditOp is one corpus-edit op spelled out step by step, as the
// facade runs it, with spans around each call into a layer and the
// driver's stage and cascade timers on: LoadStore, Driver.Run over a
// Lister whose items span lang.Parse, opt.Lower and refs.Pairs, and
// Store.Save.
func tracedEditOp(ctx context.Context, tr *tracer, op int, dir, storePath string, opts core.Options, c *layerCounts) ([]corpus.UnitResult, *corpus.Driver, error) {
	root := tr.begin(op, -1, "op", lineUnattributed)
	defer tr.end(root)
	topts := opts
	topts.TimeCascade = true

	sp := tr.begin(op, root, "corpus.LoadStore", "corpus.load_store")
	f, err := os.Open(storePath)
	if err != nil {
		return nil, nil, err
	}
	st, err := corpus.LoadStore(f, topts)
	f.Close()
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}

	d := corpus.NewDriver(topts, core.PipelineWorkers(topts.Workers))
	d.TimeStages = true
	if err := d.SetStore(st); err != nil {
		return nil, nil, err
	}
	sp = tr.begin(op, root, "Driver.Run", lineDriver)
	l := &tracedDir{root: dir, tr: tr, op: op, parent: sp}
	urs, err := d.RunAll(ctx, l)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	c.refsPairs += int(l.pairs.Load())
	c.srcBytes += float64(l.bytes.Load())
	c.parseNs += float64(l.parseNs.Load())

	sp = tr.begin(op, root, "Store.Save", "corpus.save_store")
	err = saveStore(storePath, d.Store())
	tr.end(sp)
	return urs, d, err
}

// saveStore writes the store the way the facade does: a temp file in the
// same directory, then rename.
func saveStore(path string, s *corpus.Store) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".exactbench-store-*")
	if err != nil {
		return err
	}
	if err := s.Save(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	return os.Rename(f.Name(), path)
}

// tracedDir is corpus.Dir with spans: a Lister whose items read a file and
// call lang.Parse, opt.Lower and refs.Pairs (what corpus.FromSource does)
// as separate spans. The pipelined driver calls Load from its pool.
type tracedDir struct {
	root                  string
	tr                    *tracer
	op                    int
	parent                int
	pairs, bytes, parseNs atomic.Int64
}

func (d *tracedDir) List() ([]corpus.Item, error) {
	var paths []string
	err := filepath.WalkDir(d.root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !e.IsDir() && strings.HasSuffix(e.Name(), corpus.DirExt) {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	items := make([]corpus.Item, len(paths))
	for i, path := range paths {
		rel, err := filepath.Rel(d.root, path)
		if err != nil {
			return nil, err
		}
		name, path := filepath.ToSlash(rel), path
		items[i] = corpus.Item{Name: name, Load: func() (corpus.Unit, error) { return d.load(name, path) }}
	}
	return items, nil
}

func (d *tracedDir) Units() ([]corpus.Unit, error) {
	items, err := d.List()
	if err != nil {
		return nil, err
	}
	units := make([]corpus.Unit, len(items))
	for i, it := range items {
		if units[i], err = it.Load(); err != nil {
			return nil, err
		}
	}
	return units, nil
}

func (d *tracedDir) load(name, path string) (corpus.Unit, error) {
	sp := d.tr.begin(d.op, d.parent, "corpus.Item.Load", "corpus.read")
	defer d.tr.end(sp)
	b, err := os.ReadFile(path)
	if err != nil {
		return corpus.Unit{}, err
	}
	u, st, err := frontEnd(d.tr, d.op, sp, name, string(b))
	d.pairs.Add(int64(len(u.Cands)))
	d.bytes.Add(int64(len(b)))
	d.parseNs.Add(st)
	return u, err
}

// frontEnd is corpus.FromSource with a span per layer; it returns the
// lang.Parse duration too.
func frontEnd(tr *tracer, op, parent int, name, src string) (corpus.Unit, int64, error) {
	sp := tr.begin(op, parent, "lang.Parse", "lang.parse")
	prog, err := lang.Parse(src)
	tr.end(sp)
	parseNs := tr.spanDur(sp)
	if err != nil {
		return corpus.Unit{}, parseNs, fmt.Errorf("corpus: %s: %w", name, err)
	}
	sp = tr.begin(op, parent, "opt.Lower", "opt.lower")
	u := opt.Lower(prog)
	tr.end(sp)
	sp = tr.begin(op, parent, "refs.Pairs", "refs.pairs")
	cands := refs.Pairs(u)
	tr.end(sp)
	return corpus.Unit{Name: name, Cands: cands, Warnings: u.Warnings}, parseNs, nil
}

func runCorpusCold(e *env) (*report, *outcome, error) {
	opts := measuredOptions(e.nproc)
	g := newGate(opts)
	if err := checkPinned(g, "corpus-cold", coldCorpus(defaultSeed)); err != nil {
		return nil, nil, err
	}
	ps := coldCorpus(e.seed)
	if err := g.compute(ps); err != nil {
		return nil, nil, err
	}
	want := sha256.Sum256(g.expect(ps))
	nests := 0
	for _, p := range ps {
		nests += p.Nests
	}

	// Set-up: parse the corpus into units, timed setupRepeats times.
	var setups []float64
	var units corpus.Mem
	for k := 0; k < setupRepeats; k++ {
		units = make(corpus.Mem, len(ps))
		t0 := time.Now()
		for i, p := range ps {
			u, err := corpus.FromSource(p.Name, p.Src)
			if err != nil {
				return nil, nil, err
			}
			units[i] = u
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	ctx := context.Background()
	oc := &outcome{}
	var tr *tracer
	led, counts := newLedger(), &layerCounts{}
	if e.trace {
		tr = newTracer()
		// lang throughput comes from one traced parse of the corpus.
		for _, p := range ps {
			_, st, err := frontEnd(tr, -1, -1, p.Name, p.Src)
			if err != nil {
				return nil, nil, err
			}
			counts.srcBytes += float64(len(p.Src))
			counts.parseNs += float64(st)
		}
	}
	var outs []output
	op := func(i int, traced bool) (opSample, error) {
		var urs []corpus.UnitResult
		var d *corpus.Driver
		o := opts
		o.TimeCascade = traced
		s, err := timed(func() error {
			var root int
			if traced {
				root = tr.begin(i, -1, "op", lineUnattributed)
			}
			fresh := make(corpus.Mem, len(units))
			for j, u := range units {
				fresh[j] = corpus.Unit{Name: u.Name, Cands: u.Cands, Warnings: u.Warnings}
			}
			d = corpus.NewDriver(o, e.nproc)
			d.TimeStages = traced
			var sp int
			if traced {
				sp = tr.begin(i, root, "Driver.Run", lineDriver)
			}
			var err error
			urs, err = d.RunAll(ctx, fresh)
			if traced {
				tr.end(sp)
				tr.end(root)
			}
			return err
		})
		s.traced = traced
		oc.attempted++
		if err != nil {
			oc.fail("op %d: %v", i, err)
			return s, nil
		}
		if traced {
			led.addSpans(tr.opSpans(i), func(self float64) map[string]float64 {
				return splitDriver(self, d.Stats.Stage, &d.Analyzer().Stats, e.nproc)
			})
			counts.ops++
			counts.addDriver(d.Stats, &d.Analyzer().Stats)
		}
		outs = append(outs, summarize(urs))
		return s, nil
	}
	for i := 0; i < 2; i++ { // warm-up
		if _, err := op(-1, false); err != nil {
			return nil, nil, err
		}
	}
	outs, oc.attempted = nil, 0
	ops, ph, err := closedLoop(e, op)
	if err != nil {
		return nil, nil, err
	}
	if len(ops) == 0 {
		return nil, nil, errNoOps
	}
	var pairs, exact int
	for i, o := range outs {
		if o.digest != want {
			oc.fail("corpus-cold op %d differs from the reference", i)
		}
		pairs += o.pairs
		exact += o.exact
	}
	r := &report{}
	fmt.Fprintln(e.log, hostLine(fmt.Sprintf("workers=%d steal_pct=%.2f", e.nproc, ph.steal)))
	if !e.trace {
		endToEndCorpus(r, setups, ops, ph, nests, pairs, exact, oc)
		return r, oc, nil
	}
	if err := tr.write(filepath.Join(filepath.Dir(e.dir), fmt.Sprintf("trace-corpus-cold-%d.jsonl", e.seed))); err != nil {
		return nil, nil, err
	}
	tracedResult(r, led, counts, ops, ph)
	return r, oc, nil
}
