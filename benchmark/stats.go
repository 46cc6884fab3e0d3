package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a tail figure never rests on a
// handful of samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs, the
// number of samples strictly beyond that rank, and whether the value may be
// reported under the minBeyond rule. xs is not modified.
func percentile(xs []float64, q float64) (v float64, beyond int, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	beyond = len(s) - rank
	return s[rank-1], beyond, beyond >= minBeyond
}

// median is the middle value of xs (the mean of the middle two for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den with its base kept for the report. A zero base gives 0,
// and the printed base shows why.
type ratio struct{ num, den float64 }

func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func (r ratio) base() string { return fmt.Sprintf("%g/%g", r.num, r.den) }

// metric is one reported figure. N is the number of samples behind the
// value (1 for a single reading); Base explains a ratio; a metric with Skip
// set is printed with its reason but left out of the JSON result.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
	Base  string
	Skip  string
}

// report collects one run's metrics in print order.
type report struct {
	metrics []metric
}

func (r *report) add(name, unit string, v float64, n int) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v, N: n})
}

func (r *report) addRatio(name string, x ratio) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: "ratio", Value: x.value(), N: int(x.den), Base: x.base()})
}

func (r *report) skip(name, unit, why string) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Skip: why})
}

// addPercentile reports the q-quantile of xs under the minBeyond rule.
func (r *report) addPercentile(name string, xs []float64, q float64) {
	v, beyond, ok := percentile(xs, q)
	if !ok {
		r.skip(name, "ms", fmt.Sprintf("only %d of %d samples beyond it (need %d)", beyond, len(xs), minBeyond))
		return
	}
	r.add(name, "ms", v, len(xs))
}

// addTail reports the highest of p99, p90 and p50 that the minBeyond rule
// allows, naming which one in the printed line.
func (r *report) addTail(name, unit string, xs []float64) {
	for _, q := range []float64{0.99, 0.90} {
		if v, _, ok := percentile(xs, q); ok {
			r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v, N: len(xs), Base: fmt.Sprintf("p%g of %d", q*100, len(xs))})
			return
		}
	}
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: median(xs), N: len(xs), Base: fmt.Sprintf("p50 of %d", len(xs))})
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// print writes the human-readable table: every metric with its unit and
// sample count, ratios with their base, skipped ones with the reason.
func (r *report) print(w io.Writer, title string) {
	fmt.Fprintf(w, "== %s\n", title)
	for _, m := range r.metrics {
		switch {
		case m.Skip != "":
			fmt.Fprintf(w, "  %-30s %14s %-6s %s\n", m.Name, "-", m.Unit, m.Skip)
		case m.Base != "":
			fmt.Fprintf(w, "  %-30s %14.4f %-6s base %s\n", m.Name, m.Value, m.Unit, m.Base)
		default:
			fmt.Fprintf(w, "  %-30s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		}
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult selects the declared metrics from the report. A metric the
// report lacks, skipped or measured in another unit is an error: the
// result must carry every declared metric.
func (r *report) jsonResult(decls []metricDecl, correct bool, attempted, failed int) ([]byte, error) {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	var missing []string
	for _, d := range decls {
		m, ok := r.get(d.name)
		switch {
		case !ok || m.Skip != "":
			missing = append(missing, d.name)
		case m.Unit != d.unit:
			missing = append(missing, fmt.Sprintf("%s (in %s, declared %s)", d.name, m.Unit, d.unit))
		default:
			res.Metrics[d.name] = jsonMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return json.Marshal(res)
}
