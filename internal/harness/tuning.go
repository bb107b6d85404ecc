package harness

import (
	"fmt"
	"math/rand"

	"searchspace"
	"searchspace/internal/model"
	"searchspace/internal/tuner"
)

// TuningOptions configures the end-to-end experiment of §5.4
// (Figures 6 and 7).
type TuningOptions struct {
	// BudgetSeconds is the total auto-tuning budget, covering both search
	// space construction (real, measured) and kernel evaluations
	// (simulated). The paper uses 30 minutes for hotspot; the harness
	// defaults to a laptop-friendly scale-down, which preserves the
	// figures' shape because construction cost is unchanged.
	BudgetSeconds float64
	// Repeats is the number of tuning runs averaged per method (paper: 10).
	Repeats int
	// Seed makes the kernel landscape and the strategies deterministic.
	Seed int64
	// KernelBaseMs / KernelWork parameterize the simulated kernel.
	KernelBaseMs float64
	KernelWork   float64
	// Methods to compare (default: brute force, original, optimized — the
	// three Python-based solvers of Figure 6).
	Methods []searchspace.Method
}

// DefaultTuningOptions mirrors Figure 6 at laptop scale.
func DefaultTuningOptions() TuningOptions {
	return TuningOptions{
		BudgetSeconds: 10,
		Repeats:       10,
		Seed:          1,
		KernelBaseMs:  5,
		KernelWork:    1000,
		Methods:       []searchspace.Method{searchspace.BruteForce, searchspace.Original, searchspace.Optimized},
	}
}

// TuningCurve is one method's averaged best-so-far trajectory.
type TuningCurve struct {
	Method searchspace.Method
	// ConstructSeconds is the measured construction time (averaged).
	ConstructSeconds float64
	// Times are the sample instants; Best the mean best score found by
	// then (0 until the first configuration completes).
	Times []float64
	Best  []float64
	// FinalBest is the mean best score at budget end.
	FinalBest float64
	// Evaluations is the mean number of configurations evaluated.
	Evaluations float64
}

// RunTuning reproduces the §5.4 experiment on def: for every method,
// construct the search space (measured), then spend the remaining budget
// tuning with random sampling over the resolved space, averaging over
// repeats.
func RunTuning(def *model.Definition, opt TuningOptions) ([]TuningCurve, error) {
	if opt.Repeats <= 0 {
		opt.Repeats = 1
	}
	if len(opt.Methods) == 0 {
		opt.Methods = DefaultTuningOptions().Methods
	}
	kernel := tuner.NewSimKernel(def, opt.Seed, opt.KernelBaseMs, opt.KernelWork)

	samples := 100
	var curves []TuningCurve
	for _, m := range opt.Methods {
		// Construction happens once per method (a tuning script builds
		// the space once); repeats rerun only the sampling.
		ss, st, err := searchspace.FromDefinition(def).BuildWith(searchspace.BuildOpts{Method: m, Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("tuning %s: %w", m, err)
		}
		construct := st.Duration.Seconds()
		obj := kernel.Objective(ss)

		curve := TuningCurve{Method: m, ConstructSeconds: construct}
		curve.Times = make([]float64, samples+1)
		curve.Best = make([]float64, samples+1)
		for i := 0; i <= samples; i++ {
			curve.Times[i] = opt.BudgetSeconds * float64(i) / float64(samples)
		}
		for rep := 0; rep < opt.Repeats; rep++ {
			rng := rand.New(rand.NewSource(opt.Seed + int64(rep)*7919))
			res := tuner.RandomSampling{}.Run(rng, ss, obj, tuner.Budget{
				MaxTime:   opt.BudgetSeconds,
				StartTime: construct,
			})
			curve.Evaluations += float64(res.Evaluations) / float64(opt.Repeats)
			if res.BestScore > 0 {
				curve.FinalBest += res.BestScore / float64(opt.Repeats)
			}
			// Accumulate the best-so-far step function at the sample
			// instants.
			ti := 0
			bestNow := 0.0
			for i := 0; i <= samples; i++ {
				for ti < len(res.Trace) && res.Trace[ti].Time <= curve.Times[i] {
					bestNow = res.Trace[ti].Best
					ti++
				}
				curve.Best[i] += bestNow / float64(opt.Repeats)
			}
		}
		curves = append(curves, curve)
	}
	return curves, nil
}
