// Hotspot: the paper's running example end to end — the full 11-parameter
// BAT Hotspot search space (22.2M candidates, 5 constraints), built with
// the optimized solver, then auto-tuned with random sampling and a
// genetic algorithm against a simulated kernel.
//
// Run with: go run ./examples/hotspot
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
	def := workloads.Hotspot()

	// Declare through the public API (values converted from the workload
	// definition).
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
	fmt.Printf("hotspot: %d valid of %.0f candidates (%.2f%%), constructed in %v\n",
		ss.Size(), stats.Cartesian, 100*float64(ss.Size())/stats.Cartesian, stats.Duration)

	// Neighbor queries back the genetic algorithm's mutation step (§4.4).
	rng := rand.New(rand.NewSource(7))
	row := ss.SampleUniform(rng, 1)[0]
	fmt.Printf("configuration %v has %d Hamming neighbors and %d adjacent neighbors\n",
		ss.Get(row), len(ss.HammingNeighbors(row)), len(ss.AdjacentNeighbors(row)))

	// Tune against a simulated kernel: the public space satisfies the
	// tuner's Space, and the kernel scores its rows' domain indices.
	obj := tuner.NewSimKernel(def, 1, 5, 1000).Objective(ss)
	budget := tuner.Budget{MaxEvals: 500}
	for _, s := range []tuner.Strategy{
		tuner.RandomSampling{},
		tuner.GeneticAlgorithm{Crossover: true},
		tuner.GreedyILS{},
	} {
		res := s.Run(rand.New(rand.NewSource(99)), ss, obj, budget)
		fmt.Printf("%-20s best score %.2f after %d evaluations (best config %v)\n",
			s.Name(), res.BestScore, res.Evaluations, ss.Get(res.BestRow))
	}
}
