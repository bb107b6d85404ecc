// GEMM: build the CLBlast GEMM search space (17 parameters, 8
// divisibility/memory constraints) and use Latin Hypercube Sampling over
// the resolved space to seed a simulated-annealing tuning run — the
// stratified-sampling workflow that §4.4 argues requires a fully
// resolved search space.
//
// Run with: go run ./examples/gemm
package main

import (
	"fmt"
	"log"
	"math/rand"

	"searchspace"
	"searchspace/internal/tuner"
	"searchspace/internal/workloads"
)

func main() {
	def := workloads.GEMM()
	p := searchspace.NewProblem(def.Name)
	for _, prm := range def.Params {
		vals := make([]any, len(prm.Values))
		for i, v := range prm.Values {
			vals[i] = v.Native()
		}
		p.AddParam(prm.Name, vals...)
	}
	for _, c := range def.Constraints {
		p.AddConstraint(c)
	}
	ss, stats, err := p.BuildTimed(searchspace.Optimized)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GEMM: %d valid of %.0f candidates, constructed in %v\n",
		ss.Size(), stats.Cartesian, stats.Duration)

	// LHS over the valid marginals spreads the initial sample across the
	// space far more evenly than uniform sampling.
	rng := rand.New(rand.NewSource(3))
	fmt.Println("Latin Hypercube sample of 5 configurations:")
	for _, row := range ss.SampleLHS(rng, 5) {
		cfg := ss.Get(row)
		fmt.Printf("  MWG=%v NWG=%v KWG=%v MDIMC=%v NDIMC=%v VWM=%v SA=%v SB=%v\n",
			cfg["MWG"], cfg["NWG"], cfg["KWG"], cfg["MDIMC"], cfg["NDIMC"],
			cfg["VWM"], cfg["SA"], cfg["SB"])
	}

	// Tune with simulated annealing against a simulated GEMM kernel.
	obj := tuner.NewSimKernel(def, 5, 2, 4096).Objective(ss)
	res := tuner.SimulatedAnnealing{}.Run(rng, ss, obj, tuner.Budget{MaxEvals: 800})
	fmt.Printf("simulated annealing: best %.1f GFLOP/s-proxy after %d evaluations\n",
		res.BestScore, res.Evaluations)
	fmt.Printf("best configuration: %v\n", ss.Get(res.BestRow))
}
