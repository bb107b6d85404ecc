// Benchmarks of the solver itself: the optimized method against
// chain-of-trees, the §4.3 ablations, and the enumeration kernel alone.
// The benchmarks behind the paper's tables and figures are in
// figures_bench_test.go.
package searchspace

import (
	"math"
	"testing"
	"time"

	"searchspace/internal/core"
	"searchspace/internal/model"
	"searchspace/internal/workloads"
)

// BenchmarkOptimizedVsChainOfTrees holds the paper's headline: it
// reports cot/opt, the fastest of at least seven single-worker
// chain-of-trees builds over the fastest of as many optimized ones
// (BuildWith, Workers 1, the paper's configuration). Above 1 the
// optimized solver wins. ExpDist and Dedispersion are spaces where
// chain-of-trees is at its best, their constraints splitting into
// independent parameter groups; MicroHH is one group, which the
// optimized solver builds through the planned walk. PRL 8x8 splits too
// but is left out: one chain-of-trees build of it takes seconds.
func BenchmarkOptimizedVsChainOfTrees(b *testing.B) {
	for _, def := range []*model.Definition{workloads.ExpDist(), workloads.Dedispersion(), workloads.MicroHH()} {
		b.Run(def.Name, func(b *testing.B) {
			best := map[Method]float64{Optimized: math.Inf(1), ChainOfTrees: math.Inf(1)}
			for i := 0; i < b.N || i < 7; i++ {
				for _, m := range []Method{ChainOfTrees, Optimized} {
					t0 := time.Now()
					if _, _, err := FromDefinition(def).BuildWith(BuildOpts{Method: m, Workers: 1}); err != nil {
						b.Fatal(err)
					}
					best[m] = min(best[m], time.Since(t0).Seconds())
				}
			}
			b.ReportMetric(best[ChainOfTrees]/best[Optimized], "cot/opt")
			b.ReportMetric(0, "ns/op") // the loop runs at least seven reps whatever b.N is
		})
	}
}

// BenchmarkAblation times the construction path with each §4.3
// optimization switched off in turn, over the eight Table 2 spaces:
// one op compiles with the option set and enumerates with
// SolveColumnarExec on one worker, the kernel a build runs. nodes/op
// and blocks/op are the walk's EnumStats; unlike the time, they are
// deterministic, so they show what an option set changes even where
// the timings overlap. A -benchtime 1x run charges heap growth to each
// space's first option set; compare medians over -count instead.
func BenchmarkAblation(b *testing.B) {
	sets := []struct {
		name string
		opt  core.Options
	}{
		{"all", core.DefaultOptions()},
		{"no-sort", core.Options{Preprocess: true, PartialChecks: true}},
		{"no-preprocess", core.Options{SortVariables: true, PartialChecks: true}},
		{"no-partial", core.Options{SortVariables: true, Preprocess: true}},
		{"none", core.Options{}},
	}
	for _, def := range workloads.RealWorld() {
		p, err := def.ToProblem()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(def.Name, func(b *testing.B) {
			for _, set := range sets {
				b.Run(set.name, func(b *testing.B) {
					b.ReportAllocs()
					var es core.EnumStats
					for i := 0; i < b.N; i++ {
						col, stats, _ := p.Compile(set.opt).SolveColumnarExec(core.Exec{Workers: 1})
						if col.NumSolutions() == 0 {
							b.Fatal("empty space")
						}
						es = stats
					}
					b.ReportMetric(float64(es.Nodes), "nodes/op")
					b.ReportMetric(float64(es.Blocks), "blocks/op")
				})
			}
		})
	}
}

// Solver hot-path benchmarks: the enumeration kernel alone. Compile
// happens once outside the loop and only enumeration is measured. The
// closure-based reference enumerator's twins of the SolveColumnar
// benchmarks live with it in internal/core (refparity_test.go).

func compiledFor(b *testing.B, def *model.Definition) *core.Compiled {
	b.Helper()
	p, err := def.ToProblem()
	if err != nil {
		b.Fatal(err)
	}
	return p.Compile(core.DefaultOptions())
}

func benchForEach(b *testing.B, def *model.Definition) {
	c := compiledFor(b, def)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		c.ForEach(func([]int32) bool { n++; return true })
		if n == 0 {
			b.Fatal("empty space")
		}
	}
}

func benchSolveColumnar(b *testing.B, def *model.Definition) {
	c := compiledFor(b, def)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.SolveColumnar().NumSolutions() == 0 {
			b.Fatal("empty space")
		}
	}
}

// BenchmarkSolveColumnarSuite runs the columnar kernel over the eight
// Table 2 spaces per op, so `-benchtime 1x` exercises the whole output
// path (pooled chunks, product blocks, the exact-size copy) on every
// space.
func BenchmarkSolveColumnarSuite(b *testing.B) {
	defs := workloads.RealWorld()
	compiled := make([]*core.Compiled, len(defs))
	for i, def := range defs {
		compiled[i] = compiledFor(b, def)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, c := range compiled {
			if c.SolveColumnar().NumSolutions() == 0 {
				b.Fatalf("%s: empty space", defs[j].Name)
			}
		}
	}
}

func BenchmarkForEachHotspot(b *testing.B) { benchForEach(b, workloads.Hotspot()) }
func BenchmarkForEachGEMM(b *testing.B)    { benchForEach(b, workloads.GEMM()) }

func BenchmarkSolveColumnarHotspot(b *testing.B) { benchSolveColumnar(b, workloads.Hotspot()) }
func BenchmarkSolveColumnarGEMM(b *testing.B)    { benchSolveColumnar(b, workloads.GEMM()) }
