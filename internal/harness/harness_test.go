package harness

import (
	"math"
	"testing"

	"searchspace"
	"searchspace/internal/model"
	"searchspace/internal/workloads"
)

func TestMeasure(t *testing.T) {
	def := workloads.PRL(2)
	tm, err := Measure(def, searchspace.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Seconds <= 0 || tm.Valid == 0 || tm.Cartesian != 36864 || tm.NumParams != 20 {
		t.Errorf("timing = %+v", tm)
	}
	if s := tm.Sparsity(); s < 0.9 || s >= 1 {
		t.Errorf("PRL 2x2 sparsity = %v, want high", s)
	}
}

func TestRunSuiteCapsApply(t *testing.T) {
	defs := []*model.Definition{workloads.Dedispersion(), workloads.GEMM()}
	opt := Options{BruteCap: 1e5, IterCap: 5000}
	timings, err := RunSuite(defs, []searchspace.Method{searchspace.BruteForce, searchspace.IterativeSAT, searchspace.Optimized}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(timings) != 6 {
		t.Fatalf("got %d timings, want 6", len(timings))
	}
	byKey := map[string]Timing{}
	for _, tm := range timings {
		byKey[tm.Workload+"/"+tm.Method.String()] = tm
	}
	// Dedispersion (22272 Cartesian) is under the brute cap; GEMM
	// (663552) above it → estimated.
	if byKey["Dedispersion/brute-force"].Estimated {
		t.Error("Dedispersion brute force should be measured")
	}
	if !byKey["GEMM/brute-force"].Estimated {
		t.Error("GEMM brute force should be extrapolated under the cap")
	}
	// Dedispersion has 10800 valid > 5000 → IterSAT estimated.
	if !byKey["Dedispersion/iterative-sat"].Estimated {
		t.Error("Dedispersion IterSAT should be extrapolated")
	}
	for k, tm := range byKey {
		if tm.Seconds <= 0 {
			t.Errorf("%s: non-positive time %v", k, tm.Seconds)
		}
	}
}

func TestMethodSeriesAndTotals(t *testing.T) {
	timings := []Timing{
		{Method: searchspace.Optimized, Valid: 10, Seconds: 0.1},
		{Method: searchspace.Optimized, Valid: 100, Seconds: 0.5},
		{Method: searchspace.BruteForce, Valid: 10, Seconds: 2},
	}
	xs, ys := MethodSeries(timings, searchspace.Optimized)
	if len(xs) != 2 || xs[1] != 100 || ys[0] != 0.1 {
		t.Errorf("series = %v, %v", xs, ys)
	}
	if got := Total(timings, searchspace.Optimized); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("total = %v", got)
	}
	if got := Total(timings, searchspace.BruteForce); got != 2 {
		t.Errorf("brute total = %v", got)
	}
}

func TestComputeTable2(t *testing.T) {
	defs := []*model.Definition{workloads.Dedispersion(), workloads.PRL(2)}
	rows, mean, err := ComputeTable2(defs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	d := rows[0]
	if d.Name != "Dedispersion" || d.Cartesian != 22272 || d.Valid != 10800 {
		t.Errorf("dedispersion row = %+v", d)
	}
	if d.NumParams != 8 || d.NumCons != 3 || d.MaxDomain != 29 || d.MinDomain != 1 {
		t.Errorf("dedispersion shape = %+v", d)
	}
	if math.Abs(d.PctValid-48.49) > 0.1 {
		t.Errorf("pct valid = %v", d.PctValid)
	}
	// AvgEvals = |Si| + |Si|*|Sc|/2 + |Sv| with |Si| = 22272-10800.
	wantEvals := 11472.0 + 11472*3/2 + 10800
	if math.Abs(d.AvgEvals-wantEvals) > 1 {
		t.Errorf("avg evals = %v, want %v", d.AvgEvals, wantEvals)
	}
	if mean.Name != "Mean" || mean.Cartesian <= 0 {
		t.Errorf("mean row = %+v", mean)
	}
	p := rows[1]
	if math.Abs(p.AvgUniqueVars-34.0/14) > 1e-9 {
		t.Errorf("PRL avg unique vars = %v, want %v", p.AvgUniqueVars, 34.0/14)
	}
}

func TestComputeFig2(t *testing.T) {
	defs := workloads.SyntheticSuite()[:10]
	data, err := ComputeFig2(defs)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Cartesian) != 10 || len(data.Valid) != 10 || len(data.Sparsity) != 10 {
		t.Fatalf("lengths: %d %d %d", len(data.Cartesian), len(data.Valid), len(data.Sparsity))
	}
	for i := range data.Valid {
		if data.Valid[i] <= 0 || data.Valid[i] > data.Cartesian[i] {
			t.Errorf("space %d: valid %v of %v", i, data.Valid[i], data.Cartesian[i])
		}
		if data.Sparsity[i] < 0 || data.Sparsity[i] >= 1 {
			t.Errorf("space %d: sparsity %v", i, data.Sparsity[i])
		}
	}
	c, v, s := data.Summaries()
	if c.N != 10 || v.N != 10 || s.N != 10 {
		t.Error("summaries incomplete")
	}
}

func TestTable1Static(t *testing.T) {
	tbl := Table1()
	for _, want := range []string{"ATF", "chain-of-trees", "Kernel Tuner", "CSP solver", "OpenTuner"} {
		if !contains(tbl, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestFitMethodOnSynthetic(t *testing.T) {
	defs := workloads.SyntheticSuite()[:12]
	timings, err := RunSuite(defs, []searchspace.Method{searchspace.Optimized}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fit, err := FitMethod(timings, searchspace.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope <= 0 || fit.Slope > 2 {
		t.Errorf("optimized slope = %v, expected positive sublinear-ish scaling", fit.Slope)
	}
}

func TestRunTuningShape(t *testing.T) {
	def := workloads.Dedispersion()
	opt := TuningOptions{
		BudgetSeconds: 0.5,
		Repeats:       2,
		Seed:          3,
		KernelBaseMs:  2,
		KernelWork:    1000,
		Methods:       []searchspace.Method{searchspace.Optimized, searchspace.Original},
	}
	curves, err := RunTuning(def, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatalf("got %d curves", len(curves))
	}
	for _, c := range curves {
		if len(c.Times) != len(c.Best) || len(c.Times) != 101 {
			t.Fatalf("%s: %d sample points", c.Method, len(c.Times))
		}
		if c.ConstructSeconds <= 0 {
			t.Errorf("%s: construction time %v", c.Method, c.ConstructSeconds)
		}
		// Best-so-far must be monotone nondecreasing.
		for i := 1; i < len(c.Best); i++ {
			if c.Best[i] < c.Best[i-1]-1e-9 {
				t.Fatalf("%s: curve decreases at %d", c.Method, i)
			}
		}
		if c.FinalBest <= 0 || c.Evaluations <= 0 {
			t.Errorf("%s: final %v evals %v", c.Method, c.FinalBest, c.Evaluations)
		}
	}
}

func TestRunTuningDefaults(t *testing.T) {
	opt := DefaultTuningOptions()
	if opt.BudgetSeconds <= 0 || opt.Repeats != 10 || len(opt.Methods) != 3 {
		t.Errorf("defaults = %+v", opt)
	}
}
