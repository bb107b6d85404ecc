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

// ablationOptions selects which §4.3 optimizations the ablation
// benchmarks enable.
type ablationOptions struct {
	Sort, Preprocess, Partial bool
}

func (o ablationOptions) toCore() core.Options {
	return core.Options{
		SortVariables: o.Sort,
		Preprocess:    o.Preprocess,
		PartialChecks: o.Partial,
	}
}

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

// Ablation benchmarks: the individual §4.3 optimizations on Hotspot,
// isolating what each contributes (DESIGN.md's ablation entry).

func benchAblation(b *testing.B, mutate func(*ablationOptions)) {
	b.Helper()
	def := workloads.Hotspot()
	p, err := def.ToProblem()
	if err != nil {
		b.Fatal(err)
	}
	opts := ablationOptions{Sort: true, Preprocess: true, Partial: true}
	mutate(&opts)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		compiled := p.Compile(opts.toCore())
		if compiled.Count() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkAblationAllOptimizations(b *testing.B) {
	benchAblation(b, func(*ablationOptions) {})
}

func BenchmarkAblationNoVariableSort(b *testing.B) {
	benchAblation(b, func(o *ablationOptions) { o.Sort = false })
}

func BenchmarkAblationNoPreprocessing(b *testing.B) {
	benchAblation(b, func(o *ablationOptions) { o.Preprocess = false })
}

func BenchmarkAblationNoPartialChecks(b *testing.B) {
	benchAblation(b, func(o *ablationOptions) { o.Partial = false })
}

func BenchmarkAblationNoneEnabled(b *testing.B) {
	benchAblation(b, func(o *ablationOptions) { o.Sort, o.Preprocess, o.Partial = false, false, false })
}

// Solver hot-path benchmarks: the enumeration kernel alone (compile
// excluded from the timed region would hide preprocessing wins, so the
// Compile happens once outside the loop and only enumeration is
// measured). The *Ref variants run the retained pre-kernel closure
// path, so `go test -bench 'SolveColumnar|ForEach'` shows the
// before/after directly.

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

func benchSolveColumnar(b *testing.B, def *model.Definition, ref bool) {
	c := compiledFor(b, def)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var col *core.Columnar
		if ref {
			col, _, _ = c.SolveColumnarRef(nil)
		} else {
			col = c.SolveColumnar()
		}
		if col.NumSolutions() == 0 {
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

func BenchmarkSolveColumnarHotspot(b *testing.B) {
	benchSolveColumnar(b, workloads.Hotspot(), false)
}
func BenchmarkSolveColumnarGEMM(b *testing.B) {
	benchSolveColumnar(b, workloads.GEMM(), false)
}
func BenchmarkSolveColumnarRefHotspot(b *testing.B) {
	benchSolveColumnar(b, workloads.Hotspot(), true)
}
func BenchmarkSolveColumnarRefGEMM(b *testing.B) {
	benchSolveColumnar(b, workloads.GEMM(), true)
}
