package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"exactdep/internal/corpus"
	"exactdep/internal/dtest"
	"exactdep/internal/stats"
)

// Tracing for the traced run: spans recorded by the benchmark around its
// calls into the program's layers, kept in memory and written out when the
// run ends, and the ledger that splits each op's wall time across layers.

// span is one timed call. Layer names the ledger line its self time goes
// to; Parent is the id of the enclosing span (-1 for an op's root).
type span struct {
	ID     int    `json:"id"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans from any goroutine.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id.
func (t *tracer) begin(op, parent int, name, layer string) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Op: op, Parent: parent, Name: name, Layer: layer, Start: start, End: start})
	return id
}

func (t *tracer) end(id int) {
	e := t.now()
	t.mu.Lock()
	t.spans[id].End = e
	t.mu.Unlock()
}

// record adds a span measured elsewhere, as offsets from the epoch.
func (t *tracer) record(op, parent int, name, layer string, start, end time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Op: op, Parent: parent, Name: name, Layer: layer, Start: int64(start), End: int64(end)})
	return id
}

// spanDur is a finished span's duration in ns.
func (t *tracer) spanDur(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].End - t.spans[id].Start
}

// opSpans returns a copy of the spans of one op.
func (t *tracer) opSpans(op int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].Op >= op; i-- {
		if t.spans[i].Op == op {
			out = append(out, t.spans[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// shares splits an op's wall time among its spans: each instant goes in
// equal parts to the innermost spans active at that instant, those with no
// active child. Without concurrency a span's share is its duration minus
// the union of its children's intervals (its self time); where children
// overlap, as when the driver's pool loads files in parallel, the shares
// still add up to the root's duration, so the ledger closes.
func shares(spans []span) []float64 {
	bounds := make([]int64, 0, 2*len(spans))
	local := make(map[int]int, len(spans))
	for i, s := range spans {
		bounds = append(bounds, s.Start, s.End)
		local[s.ID] = i
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	out := make([]float64, len(spans))
	busy := make([]bool, len(spans))
	for b := 0; b+1 < len(bounds); b++ {
		lo, hi := bounds[b], bounds[b+1]
		if hi == lo {
			continue
		}
		var active []int
		for i := range busy {
			busy[i] = false
		}
		for i, s := range spans {
			if s.Start <= lo && s.End >= hi {
				active = append(active, i)
				if p, ok := local[s.Parent]; ok {
					busy[p] = true
				}
			}
		}
		var inner []int
		for _, i := range active {
			if !busy[i] {
				inner = append(inner, i)
			}
		}
		for _, i := range inner {
			out[i] += float64(hi-lo) / float64(len(inner))
		}
	}
	return out
}

// Ledger lines. Every traced op's wall time is split across these; the
// sum of all lines equals the op's time.
const (
	lineRunOther     = "corpus.run_other" // Driver.Run time its stage timers do not explain
	lineUnattributed = "unattributed"
	lineDriver       = "driver" // span layer resolved by splitDriver
)

var cascadeStages = [...]struct {
	kind dtest.Kind
	line string
}{
	{dtest.KindSVPC, "dtest.svpc"},
	{dtest.KindAcyclic, "dtest.acyclic"},
	{dtest.KindLoopResidue, "dtest.residue"},
	{dtest.KindFourierMotzkin, "dtest.fm"},
}

// ledgerLines are the time lines in print order; core.solve is their
// parent line (core.other plus the four cascade stages), not a line itself.
var ledgerLines = []string{
	"wire.decode", "corpus.read", "lang.parse", "opt.lower", "refs.pairs",
	"corpus.load_store", "corpus.fingerprint", "corpus.probe",
	"core.other", "dtest.svpc", "dtest.acyclic", "dtest.residue", "dtest.fm",
	"corpus.emit", "corpus.put", lineRunOther, "corpus.save_store", "wire.encode",
	lineUnattributed,
}

// splitDriver divides the wall time a Driver.Run span owns (self) among
// the driver's own opt-in timers: Driver.TimeStages and
// core.Options.TimeCascade. Solve and Emit are wall time on the solver
// goroutine; Fingerprint and Probe, and the cascade stage times, are sums
// over the driver's workers, so they are divided by the worker count, the
// wall share of work spread evenly over that many busy goroutines. When
// the claims exceed self (part of the solving ran while spanned file loads
// held the wall clock) they are scaled down to fit; what they leave over
// is corpus.run_other.
func splitDriver(self float64, st corpus.StageTimes, c *stats.Counters, workers int) map[string]float64 {
	w := float64(workers)
	if w < 1 {
		w = 1
	}
	claims := map[string]float64{
		"corpus.fingerprint": float64(st.Fingerprint) / w,
		"corpus.probe":       float64(st.Probe) / w,
		"corpus.emit":        float64(st.Emit),
	}
	var cascade float64
	for _, cs := range cascadeStages {
		v := float64(c.StageTimeNs[cs.kind]) / w
		claims[cs.line] = v
		cascade += v
	}
	claims["core.other"] = max(float64(st.Solve)-cascade, 0)
	var total float64
	for _, v := range claims {
		total += v
	}
	if total > self && total > 0 {
		for k := range claims {
			claims[k] *= self / total
		}
		claims[lineRunOther] = 0
		return claims
	}
	claims[lineRunOther] = self - total
	return claims
}

// ledger accumulates traced ops.
type ledger struct {
	ops   int
	opNs  float64
	lines map[string]float64
}

func newLedger() *ledger { return &ledger{lines: map[string]float64{}} }

// add books one op: lines must not include unattributed, which closes the
// op's sum here.
func (l *ledger) add(opNs float64, lines map[string]float64) {
	l.ops++
	l.opNs += opNs
	var sum float64
	for k, v := range lines {
		l.lines[k] += v
		sum += v
	}
	l.lines[lineUnattributed] += opNs - sum
}

// addSpans books an op from its spans: each span's share goes to its
// layer, and the driver span's share is resolved with splitDriver.
func (l *ledger) addSpans(spans []span, driver func(self float64) map[string]float64) {
	sh := shares(spans)
	lines := map[string]float64{}
	var root float64
	for i, s := range spans {
		if s.Parent < 0 {
			root = float64(s.End - s.Start)
		}
		switch s.Layer {
		case lineUnattributed:
			// closed by add
		case lineDriver:
			for k, v := range driver(sh[i]) {
				lines[k] += v
			}
		default:
			lines[s.Layer] += sh[i]
		}
	}
	l.add(root, lines)
}

// perOpMs is a line's mean per op, in ms.
func (l *ledger) perOpMs(line string) float64 {
	if l.ops == 0 {
		return 0
	}
	return l.lines[line] / float64(l.ops) / 1e6
}
