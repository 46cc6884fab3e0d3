// Command benchjson records `go test -bench` output as a machine-readable
// perf baseline (make bench-json → BENCH_PR20.json). It reads the output of
//
//	go test -run '^$' -bench . -benchmem -count 5 <packages>
//
// on stdin and writes an exactdep-bench/v1 document, the format
// cmd/benchcmp diffs and gates. Each benchmark becomes one record: its
// median sample by ns/op (the lower middle one for an even count), with
// that sample's iterations, B/op and allocs/op, and any b.ReportMetric
// units in a metrics map. Record names follow one rule: drop "Benchmark"
// and the -GOMAXPROCS suffix, turn CamelCase into snake_case, and turn '/'
// and '=' into '_', so BenchmarkCorpusIncremental/warm_1pct/workers=1-2 is
// recorded as corpus_incremental_warm_1pct_workers_1. Input that reports a
// failure, holds no benchmark line, or holds two benchmarks that map to one
// name is rejected, so a broken run never becomes a baseline.
//
// The host section describes the machine the recorder runs on, which must
// be the one that ran the benchmarks: the Makefile pipes one into the other.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"unicode"
)

type record struct {
	Name        string             `json:"name"`
	Samples     int                `json:"samples"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// hostInfo is the hardware context of a baseline: workers=N records mean
// nothing without the CPU count, and cmd/benchcmp warns when two baselines
// come from hosts with different counts.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

type doc struct {
	Schema     string   `json:"schema"`
	Host       hostInfo `json:"host"`
	Benchmarks []record `json:"benchmarks"`
}

// recordName maps a raw benchmark name to its record name by the rule in
// the package comment.
func recordName(raw string) string {
	name := strings.TrimPrefix(raw, "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	var sb strings.Builder
	prev := rune(0)
	for _, r := range name {
		switch {
		case r == '/' || r == '=':
			r = '_'
		case unicode.IsUpper(r) && (unicode.IsLower(prev) || unicode.IsDigit(prev)):
			sb.WriteByte('_')
		}
		sb.WriteRune(unicode.ToLower(r))
		prev = r
	}
	return sb.String()
}

// parseSample reads one result line: name, iterations, then value/unit
// pairs.
func parseSample(line string) (record, error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return record{}, malformed(line)
	}
	s := record{Name: f[0]}
	var err error
	if s.Iterations, err = strconv.Atoi(f[1]); err != nil {
		return record{}, malformed(line)
	}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return record{}, malformed(line)
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			s.NsPerOp = v
		case "B/op":
			s.BytesPerOp = int64(v)
		case "allocs/op":
			s.AllocsPerOp = int64(v)
		default:
			if s.Metrics == nil {
				s.Metrics = map[string]float64{}
			}
			s.Metrics[unit] = v
		}
	}
	if s.NsPerOp == 0 {
		return record{}, malformed(line)
	}
	return s, nil
}

func malformed(line string) error {
	return fmt.Errorf("malformed benchmark line %q", line)
}

// parse turns go test output into one median record per benchmark, in the
// order the benchmarks first appear.
func parse(r io.Reader) ([]record, error) {
	type bench struct {
		raw     string // package and raw name, for the collision check
		samples []record
	}
	var order []*bench
	byName := map[string]*bench{}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "FAIL") || strings.Contains(line, "--- FAIL"):
			return nil, fmt.Errorf("input reports a failure: %q", line)
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			s, err := parseSample(line)
			if err != nil {
				return nil, err
			}
			raw := pkg + "." + s.Name
			s.Name = recordName(s.Name)
			b := byName[s.Name]
			if b == nil {
				b = &bench{raw: raw}
				byName[s.Name] = b
				order = append(order, b)
			} else if b.raw != raw {
				return nil, fmt.Errorf("%s and %s both map to %s", b.raw, raw, s.Name)
			}
			b.samples = append(b.samples, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, errors.New("no benchmark lines in the input")
	}
	recs := make([]record, 0, len(order))
	for _, b := range order {
		ss := b.samples
		sort.SliceStable(ss, func(i, j int) bool { return ss[i].NsPerOp < ss[j].NsPerOp })
		med := ss[(len(ss)-1)/2]
		med.Samples = len(ss)
		recs = append(recs, med)
	}
	return recs, nil
}

func run(in io.Reader, out string) error {
	recs, err := parse(in)
	if err != nil {
		return err
	}
	d := doc{
		Schema: "exactdep-bench/v1",
		Host: hostInfo{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		},
		Benchmarks: recs,
	}
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(out, buf, 0o644)
}

func main() {
	out := flag.String("out", "-", "output path ('-' for stdout)")
	flag.Parse()
	if err := run(os.Stdin, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
