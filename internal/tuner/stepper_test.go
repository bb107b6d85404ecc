package tuner

import (
	"math/rand"
	"testing"
	"time"
)

func allStrategies() []Strategy {
	return []Strategy{
		RandomSampling{},
		GreedyILS{},
		SimulatedAnnealing{},
		GeneticAlgorithm{},
		GeneticAlgorithm{Crossover: true},
	}
}

// TestStepperBatchEquivalence pins that under a pure MaxEvals budget the
// ask/tell loop produces the same outcome as the closed Run loop for
// every batch size — the property the remote session protocol relies on.
func TestStepperBatchEquivalence(t *testing.T) {
	def := tuningDef()
	sp := buildSpace(t, def)
	k := NewSimKernel(def, 11, 5, 1000)
	obj := k.Objective(sp)

	for _, s := range allStrategies() {
		ref := s.Run(rand.New(rand.NewSource(7)), sp, obj, Budget{MaxEvals: 150})
		for _, batch := range []int{1, 3, 16, 64} {
			st := s.Stepper(rand.New(rand.NewSource(7)), sp, Budget{MaxEvals: 150})
			got := RunStepper(st, obj, batch)
			if got.Evaluations != ref.Evaluations {
				t.Errorf("%s batch=%d: evaluations %d != Run's %d", s.Name(), batch, got.Evaluations, ref.Evaluations)
			}
			if got.BestRow != ref.BestRow || !closeTo(got.BestScore, ref.BestScore) {
				t.Errorf("%s batch=%d: best (%d, %v) != Run's (%d, %v)",
					s.Name(), batch, got.BestRow, got.BestScore, ref.BestRow, ref.BestScore)
			}
			if !closeTo(got.EndTime, ref.EndTime) {
				t.Errorf("%s batch=%d: end time %v != Run's %v", s.Name(), batch, got.EndTime, ref.EndTime)
			}
			if !st.Done() {
				t.Errorf("%s batch=%d: stepper not done after empty ask", s.Name(), batch)
			}
		}
	}
}

// TestStepperAskNeverRepeatsMeasuredRows checks the protocol invariant
// that Ask only proposes rows the stepper has no score for.
func TestStepperAskNeverRepeatsMeasuredRows(t *testing.T) {
	def := tuningDef()
	sp := buildSpace(t, def)
	k := NewSimKernel(def, 3, 5, 1000)
	obj := k.Objective(sp)

	for _, s := range allStrategies() {
		st := s.Stepper(rand.New(rand.NewSource(5)), sp, Budget{MaxEvals: 200})
		seen := make(map[int]bool)
		for {
			rows := st.Ask(8)
			if len(rows) == 0 {
				break
			}
			ms := make([]Measurement, len(rows))
			for i, row := range rows {
				if seen[row] {
					t.Fatalf("%s: row %d proposed twice", s.Name(), row)
				}
				seen[row] = true
				ms[i] = Measurement{Row: row, Score: obj.Score(row), Cost: obj.Cost(row)}
			}
			if err := st.Tell(ms); err != nil {
				t.Fatalf("%s: tell: %v", s.Name(), err)
			}
		}
		if got := st.Result().Evaluations; got != len(seen) {
			t.Errorf("%s: %d evaluations for %d distinct proposals", s.Name(), got, len(seen))
		}
	}
}

// TestStepperAskIdempotent pins that re-asking without a tell returns
// the identical outstanding batch (retry safety).
func TestStepperAskIdempotent(t *testing.T) {
	def := tuningDef()
	sp := buildSpace(t, def)
	st := GreedyILS{}.Stepper(rand.New(rand.NewSource(1)), sp, Budget{MaxEvals: 50})
	a := st.Ask(4)
	b := st.Ask(4)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("asks differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("asks differ: %v vs %v", a, b)
		}
	}
	// Even a different max returns the same outstanding batch.
	c := st.Ask(1)
	if len(c) != len(a) {
		t.Fatalf("outstanding ask re-proposed differently: %v vs %v", a, c)
	}
}

// TestStepperTellErrors covers the protocol error paths: tell without
// ask, mismatched batch size, mismatched rows, invalid measurements —
// none of which may mutate state.
func TestStepperTellErrors(t *testing.T) {
	def := tuningDef()
	sp := buildSpace(t, def)
	k := NewSimKernel(def, 3, 5, 1000)
	obj := k.Objective(sp)

	st := RandomSampling{}.Stepper(rand.New(rand.NewSource(2)), sp, Budget{MaxEvals: 10})
	if err := st.Tell([]Measurement{{Row: 0, Score: 1, Cost: 1}}); err == nil {
		t.Error("tell without ask should fail")
	}
	rows := st.Ask(4)
	if len(rows) != 4 {
		t.Fatalf("ask returned %v", rows)
	}
	if err := st.Tell([]Measurement{{Row: rows[0], Score: 1, Cost: 1}}); err == nil {
		t.Error("short tell should fail")
	}
	bad := make([]Measurement, 4)
	for i, r := range rows {
		bad[i] = Measurement{Row: r, Score: 1, Cost: 0.001}
	}
	bad[2].Row = -99
	if err := st.Tell(bad); err == nil {
		t.Error("row-mismatched tell should fail")
	}
	nan := make([]Measurement, 4)
	for i, r := range rows {
		nan[i] = Measurement{Row: r, Score: 1, Cost: 0.001}
	}
	nan[1].Cost = -1
	if err := st.Tell(nan); err == nil {
		t.Error("negative-cost tell should fail")
	}
	// The failed tells must not have consumed the ask or any budget.
	if got := st.Result().Evaluations; got != 0 {
		t.Fatalf("failed tells consumed %d evaluations", got)
	}
	good := make([]Measurement, 4)
	for i, r := range rows {
		good[i] = Measurement{Row: r, Score: obj.Score(r), Cost: obj.Cost(r)}
	}
	if err := st.Tell(good); err != nil {
		t.Fatalf("well-formed tell after failures: %v", err)
	}
	if got := st.Result().Evaluations; got != 4 {
		t.Fatalf("evaluations = %d, want 4", got)
	}
	res := st.Result()
	if err := st.Tell(good); err == nil {
		t.Error("tell without a fresh ask should fail")
	}
	if st.Result().Evaluations != res.Evaluations {
		t.Error("rejected tell mutated state")
	}
}

// TestReplayReconstructsState pins the serializable-state contract:
// (strategy, seed, budget, measurement history) rebuilds a stepper
// mid-run, and the restored stepper finishes identically to the
// uninterrupted one — whatever batch size produced the history.
func TestReplayReconstructsState(t *testing.T) {
	def := tuningDef()
	sp := buildSpace(t, def)
	k := NewSimKernel(def, 11, 5, 1000)
	obj := k.Objective(sp)
	budget := Budget{MaxEvals: 120}

	for _, s := range allStrategies() {
		for _, batch := range []int{1, 5} {
			// Drive the original for a while, recording history.
			orig := s.Stepper(rand.New(rand.NewSource(13)), sp, budget)
			var history []Measurement
			for len(history) < 40 && !orig.Done() {
				rows := orig.Ask(batch)
				if len(rows) == 0 {
					break
				}
				ms := make([]Measurement, len(rows))
				for i, row := range rows {
					ms[i] = Measurement{Row: row, Score: obj.Score(row), Cost: obj.Cost(row)}
				}
				if err := orig.Tell(ms); err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
				history = append(history, ms...)
			}

			restored, err := Replay(s, 13, sp, budget, history)
			if err != nil {
				t.Fatalf("%s batch=%d: replay: %v", s.Name(), batch, err)
			}
			a, b := orig.Result(), restored.Result()
			if a.Evaluations != b.Evaluations || a.BestRow != b.BestRow || !closeTo(a.EndTime, b.EndTime) {
				t.Fatalf("%s batch=%d: restored state (%d evals, best %d, t=%v) != original (%d evals, best %d, t=%v)",
					s.Name(), batch, b.Evaluations, b.BestRow, b.EndTime, a.Evaluations, a.BestRow, a.EndTime)
			}

			// Both finish identically.
			ra := RunStepper(orig, obj, batch)
			rb := RunStepper(restored, obj, batch)
			if ra.Evaluations != rb.Evaluations || ra.BestRow != rb.BestRow || !closeTo(ra.BestScore, rb.BestScore) {
				t.Errorf("%s batch=%d: post-restore run diverged: (%d, %d, %v) vs (%d, %d, %v)",
					s.Name(), batch, ra.Evaluations, ra.BestRow, ra.BestScore, rb.Evaluations, rb.BestRow, rb.BestScore)
			}
		}
	}
}

// TestReplayDetectsDivergence pins that a history recorded under other
// parameters is rejected instead of silently misapplied.
func TestReplayDetectsDivergence(t *testing.T) {
	def := tuningDef()
	sp := buildSpace(t, def)
	history := []Measurement{{Row: 0, Score: 1, Cost: 0.001}, {Row: 1, Score: 2, Cost: 0.001}}
	// Under seed 1, random-sampling's permutation almost surely does not
	// begin 0,1 — and if it did, the doctored rows below cannot both match.
	if _, err := Replay(RandomSampling{}, 1, sp, Budget{MaxEvals: 10}, history); err == nil {
		st := RandomSampling{}.Stepper(rand.New(rand.NewSource(1)), sp, Budget{MaxEvals: 10})
		rows := st.Ask(2)
		t.Fatalf("divergent history accepted (strategy asks %v first)", rows)
	}
}

// TestGeneticAlgorithmDegeneratePopulation pins that a population that
// cannot breed (pop 1) terminates instead of spinning on empty
// generations — reachable via the service's pop_size parameter or any
// single-configuration space.
func TestGeneticAlgorithmDegeneratePopulation(t *testing.T) {
	def := tuningDef()
	sp := buildSpace(t, def)
	k := NewSimKernel(def, 3, 5, 1000)
	obj := k.Objective(sp)
	done := make(chan Result, 1)
	go func() {
		done <- GeneticAlgorithm{PopSize: 1}.Run(rand.New(rand.NewSource(1)), sp, obj, Budget{MaxEvals: 50})
	}()
	select {
	case res := <-done:
		if res.Evaluations != 1 || res.BestRow < 0 {
			t.Errorf("degenerate GA: %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("GA with pop 1 never terminated")
	}
}

// TestStrategyByName pins the service factory's label set.
func TestStrategyByName(t *testing.T) {
	for _, name := range StrategyNames() {
		s, ok := StrategyByName(name)
		if !ok {
			t.Fatalf("StrategyByName(%q) = not found", name)
		}
		if s.Name() != name {
			t.Errorf("StrategyByName(%q).Name() = %q", name, s.Name())
		}
	}
	if _, ok := StrategyByName("gradient-descent"); ok {
		t.Error("unknown strategy resolved")
	}
}
