// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5). Each benchmark measures the work behind one exhibit;
// the cmd/ binaries print the full rows/series. Heavier methods run on
// representative subsets so `go test -bench=. ./...` stays interactive —
// the binaries accept flags for full-scale runs:
//
//	Table 1  — cmd/benchtables -table 1
//	Table 2  — cmd/benchtables -table 2
//	Figure 2 — cmd/benchsynthetic -figure 2
//	Figure 3 — cmd/benchsynthetic -figure 3
//	Figure 4 — cmd/benchsynthetic -figure 4
//	Figure 5 — cmd/benchreal
//	Figure 6 — cmd/benchtuning -kernel hotspot
//	Figure 7 — cmd/benchtuning -kernel gemm
package searchspace

import (
	"math"
	"testing"
	"time"

	"searchspace/internal/core"
	"searchspace/internal/harness"
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

func benchSuite(b *testing.B, defs []*model.Definition, m harness.Method, opt harness.Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		timings, err := harness.RunSuite(defs, []harness.Method{m}, opt)
		if err != nil {
			b.Fatal(err)
		}
		total := harness.Total(timings, m)
		b.ReportMetric(total, "suite-s/op")
	}
}

// BenchmarkTable1Overview regenerates the qualitative overview table.
func BenchmarkTable1Overview(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if harness.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2Characteristics measures deriving Table 2 for the eight
// real-world spaces (counting every valid configuration with the
// optimized solver).
func BenchmarkTable2Characteristics(b *testing.B) {
	defs := workloads.RealWorld()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, _, err := harness.ComputeTable2(defs)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkFig2SyntheticCharacteristics measures resolving all 78
// synthetic spaces and collecting their distribution data.
func BenchmarkFig2SyntheticCharacteristics(b *testing.B) {
	defs := workloads.SyntheticSuite()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := harness.ComputeFig2(defs)
		if err != nil {
			b.Fatal(err)
		}
		if len(data.Valid) != 78 {
			b.Fatal("incomplete data")
		}
	}
}

// fig3Defs is the synthetic subset used by the per-method Figure 3
// benchmarks (the full 78-space run is cmd/benchsynthetic -figure 3).
func fig3Defs() []*model.Definition { return workloads.SyntheticSuite()[:20] }

func BenchmarkFig3SyntheticBruteForce(b *testing.B) {
	benchSuite(b, fig3Defs(), harness.BruteForce, harness.DefaultOptions())
}

func BenchmarkFig3SyntheticOriginal(b *testing.B) {
	benchSuite(b, fig3Defs(), harness.Original, harness.DefaultOptions())
}

func BenchmarkFig3SyntheticChainOfTrees(b *testing.B) {
	benchSuite(b, fig3Defs(), harness.ChainCompiled, harness.DefaultOptions())
}

func BenchmarkFig3SyntheticChainInterpreted(b *testing.B) {
	benchSuite(b, fig3Defs(), harness.ChainInterp, harness.DefaultOptions())
}

func BenchmarkFig3SyntheticOptimized(b *testing.B) {
	benchSuite(b, fig3Defs(), harness.Optimized, harness.DefaultOptions())
}

// BenchmarkFig4IterSolve measures the blocking-clause (PySMT/Z3-style)
// enumeration on the reduced synthetic suite, the regime where its
// superlinear scaling shows (Figure 4).
func BenchmarkFig4IterSolve(b *testing.B) {
	defs := workloads.SyntheticReducedSuite()[:10]
	opt := harness.DefaultOptions()
	opt.IterCap = 3000
	benchSuite(b, defs, harness.IterSAT, opt)
}

func BenchmarkFig4BruteForce(b *testing.B) {
	benchSuite(b, workloads.SyntheticReducedSuite()[:10], harness.BruteForce, harness.DefaultOptions())
}

func BenchmarkFig4Optimized(b *testing.B) {
	benchSuite(b, workloads.SyntheticReducedSuite()[:10], harness.Optimized, harness.DefaultOptions())
}

// Figure 5 benchmarks: each method over the eight real-world spaces.
// Brute force extrapolates ATF PRL 8x8 (2.4G candidates) from a measured
// 1M-candidate prefix, exactly as cmd/benchreal does by default.

func BenchmarkFig5RealBruteForce(b *testing.B) {
	benchSuite(b, workloads.RealWorld(), harness.BruteForce, harness.DefaultOptions())
}

func BenchmarkFig5RealOriginal(b *testing.B) {
	benchSuite(b, workloads.RealWorld(), harness.Original, harness.DefaultOptions())
}

func BenchmarkFig5RealChainOfTrees(b *testing.B) {
	benchSuite(b, workloads.RealWorld(), harness.ChainCompiled, harness.DefaultOptions())
}

func BenchmarkFig5RealChainInterpreted(b *testing.B) {
	benchSuite(b, workloads.RealWorld(), harness.ChainInterp, harness.DefaultOptions())
}

func BenchmarkFig5RealOptimized(b *testing.B) {
	benchSuite(b, workloads.RealWorld(), harness.Optimized, harness.DefaultOptions())
}

// Per-workload construction benchmarks with the optimized solver: the
// headline per-space sub-second claim of §5.3.7.

func benchConstructOptimized(b *testing.B, def *model.Definition) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		col, err := harness.Construct(def, harness.Optimized)
		if err != nil {
			b.Fatal(err)
		}
		if col.NumSolutions() == 0 {
			b.Fatal("empty space")
		}
	}
}

func BenchmarkConstructDedispersion(b *testing.B) {
	benchConstructOptimized(b, workloads.Dedispersion())
}
func BenchmarkConstructExpDist(b *testing.B) { benchConstructOptimized(b, workloads.ExpDist()) }
func BenchmarkConstructHotspot(b *testing.B) { benchConstructOptimized(b, workloads.Hotspot()) }
func BenchmarkConstructGEMM(b *testing.B)    { benchConstructOptimized(b, workloads.GEMM()) }
func BenchmarkConstructMicroHH(b *testing.B) { benchConstructOptimized(b, workloads.MicroHH()) }
func BenchmarkConstructPRL8x8(b *testing.B)  { benchConstructOptimized(b, workloads.PRL(8)) }

// BenchmarkOptimizedVsChainOfTrees holds the paper's headline on the
// spaces where chain-of-trees is at its best, those whose constraints
// split into independent parameter groups: it reports cot/opt, the
// fastest of at least seven single-worker chain-of-trees builds over the
// fastest of as many optimized ones (BuildWith, Workers 1, the paper's
// configuration). Above 1 the optimized solver wins. PRL 8x8 splits too
// but is left out: one chain-of-trees build of it takes seconds.
func BenchmarkOptimizedVsChainOfTrees(b *testing.B) {
	for _, def := range []*model.Definition{workloads.ExpDist(), workloads.Dedispersion()} {
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

// BenchmarkFig6HotspotTuning measures the end-to-end §5.4 experiment on
// hotspot at reduced scale (2s budget, 2 repeats).
func BenchmarkFig6HotspotTuning(b *testing.B) {
	opt := harness.DefaultTuningOptions()
	opt.BudgetSeconds = 2
	opt.Repeats = 2
	def := workloads.Hotspot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves, err := harness.RunTuning(def, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(curves) != 3 {
			b.Fatal("missing curves")
		}
	}
}

// BenchmarkFig7GEMMTuning measures the same experiment on GEMM with the
// budget scaled by the valid-configuration ratio, as in the paper.
func BenchmarkFig7GEMMTuning(b *testing.B) {
	opt := harness.DefaultTuningOptions()
	opt.BudgetSeconds = 2 * 121704.0 / 347628.0
	opt.Repeats = 2
	def := workloads.GEMM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves, err := harness.RunTuning(def, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(curves) != 3 {
			b.Fatal("missing curves")
		}
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
// path (pooled chunks, leaf batches, the exact-size copy) on every
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
