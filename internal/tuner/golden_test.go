package tuner

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"math/rand"
)

// update regenerates the golden trace file from the current
// implementation. The committed file was captured from the pre-ask/tell
// closed-loop Run implementations, so a passing TestGoldenTraces proves
// the stepper refactor preserves every strategy's evaluation sequence
// bit-for-bit; only regenerate it when a behavior change is intentional.
var update = flag.Bool("update", false, "rewrite testdata/golden_traces.json from the current implementation")

const goldenPath = "testdata/golden_traces.json"

// goldenCase pins one (strategy, seed, budget) run: the exact sequence
// of freshly evaluated rows, the evaluation count, and the outcome.
type goldenCase struct {
	Key       string  `json:"key"`
	Seed      int64   `json:"seed"`
	MaxEvals  int     `json:"max_evals,omitempty"`
	MaxTime   float64 `json:"max_time,omitempty"`
	Rows      []int   `json:"rows"`
	Evals     int     `json:"evals"`
	BestRow   int     `json:"best_row"`
	BestScore float64 `json:"best_score"`
	EndTime   float64 `json:"end_time"`
}

type goldenFile struct {
	Cases []goldenCase `json:"cases"`
}

// goldenStrategies enumerates the strategy configurations pinned by the
// golden file, covering all four optimizers plus non-default parameter
// variants.
func goldenStrategies() []struct {
	Key string
	S   Strategy
} {
	return []struct {
		Key string
		S   Strategy
	}{
		{"random-sampling", RandomSampling{}},
		{"greedy-ils", GreedyILS{}},
		{"simulated-annealing", SimulatedAnnealing{}},
		{"simulated-annealing-tuned", SimulatedAnnealing{T0: 50, Alpha: 0.9}},
		{"genetic-algorithm", GeneticAlgorithm{}},
		{"genetic-algorithm-crossover", GeneticAlgorithm{Crossover: true, PopSize: 10}},
	}
}

// goldenBudgets pairs each strategy with the budgets pinned per seed.
func goldenBudgets() []Budget {
	return []Budget{
		{MaxEvals: 120},
		{MaxTime: 0.4},
	}
}

// runRecorded executes one strategy run recording the order in which
// Score is invoked — exactly the freshly evaluated (budget-counted)
// configurations, since memoized revisits and cost-truncated attempts
// never reach Score. Under a time budget the driver may measure one
// final configuration whose cost no longer fits; it is recorded but not
// counted, so recorded rows can exceed Evals by at most one.
func runRecorded(s Strategy, seed int64, sp Space, obj Objective, budget Budget) (Result, []int) {
	var rows []int
	rec := Objective{
		Score: func(row int) float64 {
			rows = append(rows, row)
			return obj.Score(row)
		},
		Cost: obj.Cost,
	}
	rng := rand.New(rand.NewSource(seed))
	res := s.Run(rng, sp, rec, budget)
	return res, rows
}

func TestGoldenTraces(t *testing.T) {
	def := tuningDef()
	sp := buildSpace(t, def)
	k := NewSimKernel(def, 11, 5, 1000)
	obj := k.Objective(sp)

	if *update {
		var gf goldenFile
		for _, gs := range goldenStrategies() {
			for si, seed := range []int64{1, 2} {
				budget := goldenBudgets()[si%len(goldenBudgets())]
				res, rows := runRecorded(gs.S, seed, sp, obj, budget)
				gf.Cases = append(gf.Cases, goldenCase{
					Key: gs.Key, Seed: seed,
					MaxEvals: budget.MaxEvals, MaxTime: budget.MaxTime,
					Rows: rows[:res.Evaluations], Evals: res.Evaluations,
					BestRow: res.BestRow, BestScore: res.BestScore,
					EndTime: res.EndTime,
				})
			}
		}
		raw, err := json.MarshalIndent(&gf, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", goldenPath, len(gf.Cases))
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var gf goldenFile
	if err := json.Unmarshal(raw, &gf); err != nil {
		t.Fatal(err)
	}
	strategies := make(map[string]Strategy)
	for _, gs := range goldenStrategies() {
		strategies[gs.Key] = gs.S
	}
	if len(gf.Cases) == 0 {
		t.Fatal("golden file has no cases")
	}
	for _, gc := range gf.Cases {
		s, ok := strategies[gc.Key]
		if !ok {
			t.Errorf("golden case %q: strategy no longer defined", gc.Key)
			continue
		}
		budget := Budget{MaxEvals: gc.MaxEvals, MaxTime: gc.MaxTime}
		res, rows := runRecorded(s, gc.Seed, sp, obj, budget)
		if res.Evaluations != gc.Evals {
			t.Errorf("%s seed=%d: evaluations = %d, golden %d", gc.Key, gc.Seed, res.Evaluations, gc.Evals)
			continue
		}
		if len(rows) < gc.Evals || len(rows) > gc.Evals+1 {
			t.Errorf("%s seed=%d: recorded %d rows for %d evaluations", gc.Key, gc.Seed, len(rows), gc.Evals)
			continue
		}
		for i, want := range gc.Rows {
			if rows[i] != want {
				t.Errorf("%s seed=%d: evaluation %d = row %d, golden row %d", gc.Key, gc.Seed, i, rows[i], want)
				break
			}
		}
		if res.BestRow != gc.BestRow {
			t.Errorf("%s seed=%d: best row = %d, golden %d", gc.Key, gc.Seed, res.BestRow, gc.BestRow)
		}
		if !closeTo(res.BestScore, gc.BestScore) {
			t.Errorf("%s seed=%d: best score = %v, golden %v", gc.Key, gc.Seed, res.BestScore, gc.BestScore)
		}
		if !closeTo(res.EndTime, gc.EndTime) {
			t.Errorf("%s seed=%d: end time = %v, golden %v", gc.Key, gc.Seed, res.EndTime, gc.EndTime)
		}
	}
}

// closeTo compares with a relative tolerance wide enough for JSON
// round-tripping yet far tighter than any behavioral difference.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
