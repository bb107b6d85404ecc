package tuner

import (
	"math"
	"math/rand"
	"testing"

	"searchspace/internal/core"
	"searchspace/internal/model"
	"searchspace/internal/space"
)

// buildSpace resolves def with the optimized solver.
func buildSpace(t *testing.T, def *model.Definition) *space.Space {
	t.Helper()
	p, err := def.ToProblem()
	if err != nil {
		t.Fatal(err)
	}
	col := p.Compile(core.DefaultOptions()).SolveColumnar()
	s, err := space.FromColumnar(def, col)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func tuningDef() *model.Definition {
	return &model.Definition{
		Name: "toy",
		Params: []model.Param{
			model.IntsParam("bx", 1, 2, 4, 8, 16, 32, 64),
			model.IntsParam("by", 1, 2, 4, 8, 16, 32),
			model.RangeParam("tile", 1, 8),
			model.RangeParam("unroll", 1, 4),
		},
		Constraints: []string{"bx * by <= 512", "tile % unroll == 0"},
	}
}

func bruteBest(sp *space.Space, k *SimKernel) float64 {
	best := math.Inf(-1)
	for r := 0; r < sp.Size(); r++ {
		if s := k.Score(sp.Row(r)); s > best {
			best = s
		}
	}
	return best
}

func TestSimKernelDeterministic(t *testing.T) {
	def := tuningDef()
	sp := buildSpace(t, def)
	k1 := NewSimKernel(def, 42, 5, 1000)
	k2 := NewSimKernel(def, 42, 5, 1000)
	for r := 0; r < sp.Size(); r += 7 {
		if k1.TimeMs(sp.Row(r)) != k2.TimeMs(sp.Row(r)) {
			t.Fatalf("kernel not deterministic at row %d", r)
		}
	}
	k3 := NewSimKernel(def, 43, 5, 1000)
	diff := false
	for r := 0; r < sp.Size(); r++ {
		if k1.TimeMs(sp.Row(r)) != k3.TimeMs(sp.Row(r)) {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds should give different landscapes")
	}
	if k1.Name() != "toy" {
		t.Errorf("Name = %q", k1.Name())
	}
}

func TestSimKernelLandscapeShape(t *testing.T) {
	def := tuningDef()
	sp := buildSpace(t, def)
	k := NewSimKernel(def, 7, 5, 1000)
	// All times positive and bounded: the multiplicative bowls keep time
	// within base * prod(1+4w) ≈ base * 3.2^4.
	lo, hi := math.Inf(1), math.Inf(-1)
	for r := 0; r < sp.Size(); r++ {
		ms := k.TimeMs(sp.Row(r))
		if ms <= 0 || math.IsNaN(ms) {
			t.Fatalf("bad time %v at row %d", ms, r)
		}
		lo, hi = math.Min(lo, ms), math.Max(hi, ms)
	}
	if lo < 5 {
		t.Errorf("min time %v below base 5", lo)
	}
	if hi/lo < 1.2 {
		t.Errorf("landscape too flat: %v..%v", lo, hi)
	}
	if hi/lo > 100 {
		t.Errorf("landscape implausibly steep: %v..%v", lo, hi)
	}
}

func TestRandomSamplingRespectsBudget(t *testing.T) {
	def := tuningDef()
	sp := buildSpace(t, def)
	k := NewSimKernel(def, 1, 5, 1000)
	obj := k.Objective(sp)
	rng := rand.New(rand.NewSource(1))

	res := RandomSampling{}.Run(rng, sp, obj, Budget{MaxEvals: 50})
	if res.Evaluations != 50 {
		t.Fatalf("evaluations = %d, want 50", res.Evaluations)
	}
	if res.BestRow < 0 || res.BestScore <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	// Time budget: each eval costs ≥5ms=0.005s, so 0.1s caps at ≤20.
	res = RandomSampling{}.Run(rng, sp, obj, Budget{MaxTime: 0.1})
	if res.Evaluations == 0 || res.Evaluations > 20 {
		t.Fatalf("time-budgeted evaluations = %d, want 1..20", res.Evaluations)
	}
	if res.EndTime > 0.1+1e-9 {
		t.Fatalf("end time %v exceeds budget", res.EndTime)
	}
}

func TestTraceMonotone(t *testing.T) {
	def := tuningDef()
	sp := buildSpace(t, def)
	k := NewSimKernel(def, 2, 5, 1000)
	obj := k.Objective(sp)
	rng := rand.New(rand.NewSource(2))
	res := RandomSampling{}.Run(rng, sp, obj, Budget{MaxEvals: 200, StartTime: 3})
	if len(res.Trace) == 0 {
		t.Fatal("expected trace points")
	}
	prevT, prevB := 0.0, math.Inf(-1)
	for _, tp := range res.Trace {
		if tp.Time < prevT || tp.Best <= prevB {
			t.Fatalf("trace not monotone: %+v", res.Trace)
		}
		prevT, prevB = tp.Time, tp.Best
	}
	if res.Trace[0].Time < 3 {
		t.Errorf("trace should start after StartTime offset, got %v", res.Trace[0].Time)
	}
}

func TestStrategiesFindGoodConfigs(t *testing.T) {
	def := tuningDef()
	sp := buildSpace(t, def)
	k := NewSimKernel(def, 11, 5, 1000)
	obj := k.Objective(sp)
	best := bruteBest(sp, k)

	strategies := []Strategy{
		RandomSampling{},
		GreedyILS{},
		SimulatedAnnealing{},
		GeneticAlgorithm{Crossover: true},
		GeneticAlgorithm{},
	}
	for _, s := range strategies {
		rng := rand.New(rand.NewSource(99))
		res := s.Run(rng, sp, obj, Budget{MaxEvals: 400})
		if res.Strategy == "" {
			t.Errorf("%T: empty strategy name", s)
		}
		if res.BestScore < 0.85*best {
			t.Errorf("%s: best %.1f below 85%% of optimum %.1f", s.Name(), res.BestScore, best)
		}
		if res.Evaluations > 400 {
			t.Errorf("%s: %d evaluations exceeds budget", s.Name(), res.Evaluations)
		}
	}
}

func TestLocalSearchBeatsRandomPerEvaluation(t *testing.T) {
	def := tuningDef()
	sp := buildSpace(t, def)
	k := NewSimKernel(def, 5, 5, 1000)
	obj := k.Objective(sp)

	trials := 10
	greedyWins := 0
	for i := 0; i < trials; i++ {
		rngA := rand.New(rand.NewSource(int64(1000 + i)))
		rngB := rand.New(rand.NewSource(int64(1000 + i)))
		budget := Budget{MaxEvals: 60}
		g := GreedyILS{}.Run(rngA, sp, obj, budget)
		r := RandomSampling{}.Run(rngB, sp, obj, budget)
		if g.BestScore >= r.BestScore {
			greedyWins++
		}
	}
	if greedyWins < trials/2 {
		t.Errorf("greedy won only %d/%d small-budget trials", greedyWins, trials)
	}
}

func TestEvalMemoization(t *testing.T) {
	def := tuningDef()
	sp := buildSpace(t, def)
	k := NewSimKernel(def, 3, 5, 1000)
	calls := 0
	obj := Objective{
		Score: func(row int) float64 { calls++; return k.Score(sp.Row(row)) },
		Cost:  func(row int) float64 { return 0.001 },
	}
	st := newStepCore("memo", sp, Budget{MaxEvals: 100})
	st.setPlan([]int{0, 0, 0})
	st.step = func() { st.done = true }
	rows := st.Ask(10)
	if len(rows) != 1 || rows[0] != 0 {
		t.Fatalf("ask proposed %v, want the single fresh row 0", rows)
	}
	if err := st.Tell([]Measurement{{Row: 0, Score: obj.Score(0), Cost: obj.Cost(0)}}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("Score called %d times for a repeated row, want 1", calls)
	}
	if got := st.Result().Evaluations; got != 1 {
		t.Fatalf("evaluations = %d, want 1", got)
	}
	if !st.Done() {
		t.Fatal("plan of one distinct row should finish after one measurement")
	}
}

func TestZeroBudget(t *testing.T) {
	def := tuningDef()
	sp := buildSpace(t, def)
	k := NewSimKernel(def, 3, 5, 1000)
	obj := k.Objective(sp)
	rng := rand.New(rand.NewSource(4))
	// StartTime beyond MaxTime: construction ate the whole budget, as
	// happens to the slow construction methods in Figures 6 and 7.
	res := RandomSampling{}.Run(rng, sp, obj, Budget{MaxTime: 1, StartTime: 2})
	if res.Evaluations != 0 || len(res.Trace) != 0 {
		t.Fatalf("no evaluations should fit: %+v", res)
	}
	if res.BestRow != -1 {
		t.Error("BestRow should be -1 when nothing was evaluated")
	}
}

func TestSimulatedAnnealingCoolingParams(t *testing.T) {
	def := tuningDef()
	sp := buildSpace(t, def)
	k := NewSimKernel(def, 8, 5, 1000)
	obj := k.Objective(sp)
	rng := rand.New(rand.NewSource(5))
	res := SimulatedAnnealing{T0: 50, Alpha: 0.9}.Run(rng, sp, obj, Budget{MaxEvals: 150})
	if res.Evaluations == 0 {
		t.Fatal("SA should evaluate")
	}
}
