// Command benchcmp diffs two bench-json baselines (make benchcmp →
// BENCH_PR16.json vs BENCH_PR17.json): benchmarks are matched by name and the
// ns/op, bytes/op and allocs/op deltas printed side by side, with benchmarks
// present in only one file called out separately. It reads only the
// "benchmarks" array and the "host" section (warning when the two baselines
// come from hosts with different CPU counts, since workers=N scaling deltas
// are then hardware artifacts), so any exactdep-bench/v1 file works
// regardless of which profile sections it carries.
//
// With -gate NAME the command additionally enforces a regression bound on
// that one benchmark: if NEW's ns/op exceeds OLD's by more than -tolerance
// percent (default 15), or the benchmark is missing from either file, the
// exit status is 1. This is the perf gate behind make benchcmp-gate, which
// re-measures the gated benchmarks (five samples each, recorded as medians
// by cmd/benchjson) and compares them against the committed baseline. The
// tolerance is deliberately generous: it is meant to catch structural
// regressions (a lost fast path, restored per-pair allocations), not
// scheduler noise on a busy host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
)

type benchRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// hostInfo mirrors benchjson's host section; files predating it simply
// decode to the zero value (CPU count 0 = unknown).
type hostInfo struct {
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

type doc struct {
	Schema     string        `json:"schema"`
	Host       hostInfo      `json:"host"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

func load(path string) (*doc, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d doc
	if err := json.Unmarshal(buf, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// delta renders a signed percentage change; division-by-zero degenerates to
// a plain marker rather than Inf.
func delta(old, new float64) string {
	if old == 0 {
		if new == 0 {
			return "0.0%"
		}
		return "new>0"
	}
	return fmt.Sprintf("%+.1f%%", (new-old)/old*100)
}

func run(oldPath, newPath, gate string, tolerance float64) error {
	oldDoc, err := load(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := load(newPath)
	if err != nil {
		return err
	}

	// Scaling series (workers=N records) are hardware-relative: flag a
	// comparison whose sides ran on hosts with different CPU counts, since
	// every ns/op delta then confounds code change with hardware change. A
	// baseline without a host section (pre-PR8) counts as unknown, not as a
	// mismatch.
	if oldDoc.Host.NumCPU != 0 && newDoc.Host.NumCPU != 0 && oldDoc.Host.NumCPU != newDoc.Host.NumCPU {
		fmt.Fprintf(os.Stderr,
			"benchcmp: warning: baselines come from hosts with different CPU counts (%s: %d, %s: %d) — ns/op deltas confound code and hardware\n",
			oldPath, oldDoc.Host.NumCPU, newPath, newDoc.Host.NumCPU)
	}

	oldByName := make(map[string]benchRecord, len(oldDoc.Benchmarks))
	for _, b := range oldDoc.Benchmarks {
		oldByName[b.Name] = b
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "benchmark\tns/op (%s)\tns/op (%s)\tΔns/op\tallocs/op\tΔallocs\n", oldPath, newPath)
	matched := make(map[string]bool)
	for _, nb := range newDoc.Benchmarks {
		ob, ok := oldByName[nb.Name]
		if !ok {
			continue
		}
		matched[nb.Name] = true
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%s\t%d -> %d\t%s\n",
			nb.Name, ob.NsPerOp, nb.NsPerOp, delta(ob.NsPerOp, nb.NsPerOp),
			ob.AllocsPerOp, nb.AllocsPerOp,
			delta(float64(ob.AllocsPerOp), float64(nb.AllocsPerOp)))
	}
	if err := w.Flush(); err != nil {
		return err
	}

	var onlyNew, onlyOld []string
	for _, nb := range newDoc.Benchmarks {
		if _, ok := oldByName[nb.Name]; !ok {
			onlyNew = append(onlyNew, nb.Name)
		}
	}
	for _, ob := range oldDoc.Benchmarks {
		if !matched[ob.Name] {
			onlyOld = append(onlyOld, ob.Name)
		}
	}
	if len(onlyNew) > 0 {
		fmt.Printf("\nonly in %s:\n", newPath)
		for _, n := range onlyNew {
			fmt.Printf("  %s\n", n)
		}
	}
	if len(onlyOld) > 0 {
		fmt.Printf("\nonly in %s:\n", oldPath)
		for _, n := range onlyOld {
			fmt.Printf("  %s\n", n)
		}
	}
	if gate != "" {
		ob, ok := oldByName[gate]
		if !ok {
			return fmt.Errorf("gate benchmark %q missing from %s", gate, oldPath)
		}
		var nb *benchRecord
		for i := range newDoc.Benchmarks {
			if newDoc.Benchmarks[i].Name == gate {
				nb = &newDoc.Benchmarks[i]
				break
			}
		}
		if nb == nil {
			return fmt.Errorf("gate benchmark %q missing from %s", gate, newPath)
		}
		if ob.NsPerOp <= 0 {
			return fmt.Errorf("gate benchmark %q has non-positive baseline ns/op", gate)
		}
		regress := (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp * 100
		if regress > tolerance {
			return fmt.Errorf("gate %q regressed %.1f%% in ns/op (%.0f -> %.0f), tolerance %.1f%%",
				gate, regress, ob.NsPerOp, nb.NsPerOp, tolerance)
		}
		fmt.Printf("\ngate %q ok: %+.1f%% ns/op within %.1f%% tolerance\n", gate, regress, tolerance)
	}
	return nil
}

func main() {
	gate := flag.String("gate", "", "fail (exit 1) if this benchmark's ns/op regresses beyond -tolerance")
	tolerance := flag.Float64("tolerance", 15, "allowed ns/op regression for -gate, in percent")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchcmp [-gate NAME [-tolerance PCT]] OLD.json NEW.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), flag.Arg(1), *gate, *tolerance); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
}
