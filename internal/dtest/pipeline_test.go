package dtest

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"exactdep/internal/system"
)

// TestConfigCostOrder pins the two cascades and the paper's cost ranks:
// the default runs its tests cheapest first, fm-only runs the backup alone.
func TestConfigCostOrder(t *testing.T) {
	want := []Kind{KindSVPC, KindAcyclic, KindLoopResidue, KindFourierMotzkin}
	if got := DefaultConfig().Kinds(); !reflect.DeepEqual(got, want) {
		t.Errorf("default config runs %v, want %v", got, want)
	}
	if got := FMOnlyConfig().Kinds(); !reflect.DeepEqual(got, []Kind{KindFourierMotzkin}) {
		t.Errorf("fm-only config runs %v", got)
	}
	for i, k := range want {
		if k.CostRank() != i+1 {
			t.Errorf("%v has cost rank %d, want %d", k, k.CostRank(), i+1)
		}
	}
	if KindNone.CostRank() != 0 {
		t.Errorf("KindNone has cost rank %d, want 0", KindNone.CostRank())
	}
}

// TestConfigByName covers the two names and the error path.
func TestConfigByName(t *testing.T) {
	for _, name := range []string{"", "full"} {
		cfg, err := ConfigByName(name)
		if err != nil || cfg != DefaultConfig() {
			t.Fatalf("ConfigByName(%q) = %v, %v; want the default config", name, cfg, err)
		}
	}
	cfg, err := ConfigByName("fm-only")
	if err != nil || cfg != FMOnlyConfig() {
		t.Fatalf("ConfigByName(fm-only) = %v, %v", cfg, err)
	}
	if _, err := ConfigByName("bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("ConfigByName(bogus) error = %v, want one naming the bad configuration", err)
	}
}

// TestPipelineMetrics checks the Table 6 accounting: every problem consults
// the stages up to and including the one that decides it, and nothing after.
func TestPipelineMetrics(t *testing.T) {
	p := DefaultConfig().NewPipeline()
	runs := []struct {
		ts   *system.TSystem
		n    int
		kind Kind
	}{
		{svpcSys(), 3, KindSVPC},
		{acyclicSys(), 2, KindAcyclic},
		{residueSys(), 1, KindLoopResidue},
		{fmSys(), 1, KindFourierMotzkin},
	}
	for _, r := range runs {
		for i := 0; i < r.n; i++ {
			if got := p.Run(r.ts); got.Kind != r.kind {
				t.Fatalf("decided by %v, want %v", got.Kind, r.kind)
			}
		}
	}
	wantConsulted := []int{7, 4, 2, 1} // SVPC sees all, each later stage only the fall-through
	wantDecided := []int{3, 2, 1, 1}
	for i, k := range DefaultConfig().Kinds() {
		m := p.StageMetrics(k)
		if m.Consulted != wantConsulted[i] {
			t.Errorf("stage %v consulted %d, want %d", k, m.Consulted, wantConsulted[i])
		}
		if m.Decided != wantDecided[i] {
			t.Errorf("stage %v decided %d, want %d", k, m.Decided, wantDecided[i])
		}
		if m.Time != 0 {
			t.Errorf("stage %v accumulated time %v with timing off", k, m.Time)
		}
	}
	if m := p.StageMetrics(KindNone); m != (StageMetrics{}) {
		t.Errorf("KindNone accumulated metrics %+v", m)
	}
}

// TestPipelineTimed: with SetTimed the consulted stages accumulate wall
// time; the clock is only read around consulted stages.
func TestPipelineTimed(t *testing.T) {
	p := DefaultConfig().NewPipeline()
	p.SetTimed(true)
	ts := fmSys() // consults every stage
	var total time.Duration
	for i := 0; i < 10000 && total == 0; i++ {
		p.Run(ts)
		total = 0
		for _, k := range DefaultConfig().Kinds() {
			total += p.StageMetrics(k).Time
		}
	}
	if total == 0 {
		t.Fatal("timed pipeline accumulated no stage time")
	}
	// A pipeline that never consults Loop Residue must not time it.
	q := DefaultConfig().NewPipeline()
	q.SetTimed(true)
	for i := 0; i < 100; i++ {
		q.Run(svpcSys())
	}
	if m := q.StageMetrics(KindLoopResidue); m.Consulted != 0 || m.Time != 0 {
		t.Fatalf("unconsulted stage accumulated metrics %+v", m)
	}
}

// TestPipelineReuseMatchesFresh is the scratch-reuse regression: one
// long-lived pipeline over a stream of random systems must return exactly
// what a fresh throwaway pipeline (Solve) returns for each — verdict,
// exactness, deciding kind, witness, and trace.
func TestPipelineReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := DefaultConfig().NewPipeline()
	for iter := 0; iter < 3000; iter++ {
		n := 1 + rng.Intn(4)
		cs := randBoxed(rng, n, int64(rng.Intn(6)))
		for k := rng.Intn(5); k > 0; k-- {
			coef := make([]int64, n)
			for j := range coef {
				coef[j] = int64(rng.Intn(5) - 2)
			}
			cs = append(cs, system.Constraint{Coef: coef, C: int64(rng.Intn(11) - 5)})
		}
		ts := sys(n, cs...)
		wantR, wantTr := Solve(ts)
		gotR, gotTr := p.RunTraced(ts)
		if gotR.Outcome != wantR.Outcome || gotR.Exact != wantR.Exact || gotR.Kind != wantR.Kind {
			t.Fatalf("iter %d: reused pipeline %+v, fresh %+v on\n%v", iter, gotR, wantR, cs)
		}
		if !reflect.DeepEqual(gotR.Witness, wantR.Witness) {
			t.Fatalf("iter %d: witness %v, fresh %v", iter, gotR.Witness, wantR.Witness)
		}
		if gotTr.Decided != wantTr.Decided || !reflect.DeepEqual(gotTr.Consulted, wantTr.Consulted) {
			t.Fatalf("iter %d: trace %+v, fresh %+v", iter, gotTr, wantTr)
		}
	}
}
