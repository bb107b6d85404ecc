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
package searchspace_test

import (
	"testing"
	"time"

	"searchspace"
	"searchspace/internal/harness"
	"searchspace/internal/model"
	"searchspace/internal/workloads"
)

func benchSuite(b *testing.B, defs []*model.Definition, m searchspace.Method, opt harness.Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		timings, err := harness.RunSuite(defs, []searchspace.Method{m}, opt)
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
	benchSuite(b, fig3Defs(), searchspace.BruteForce, harness.DefaultOptions())
}

func BenchmarkFig3SyntheticOriginal(b *testing.B) {
	benchSuite(b, fig3Defs(), searchspace.Original, harness.DefaultOptions())
}

func BenchmarkFig3SyntheticChainOfTrees(b *testing.B) {
	benchSuite(b, fig3Defs(), searchspace.ChainOfTrees, harness.DefaultOptions())
}

func BenchmarkFig3SyntheticChainInterpreted(b *testing.B) {
	benchSuite(b, fig3Defs(), searchspace.ChainOfTreesInterpreted, harness.DefaultOptions())
}

func BenchmarkFig3SyntheticOptimized(b *testing.B) {
	benchSuite(b, fig3Defs(), searchspace.Optimized, harness.DefaultOptions())
}

// BenchmarkFig4IterSolve measures the blocking-clause (PySMT/Z3-style)
// enumeration on the reduced synthetic suite, the regime where its
// superlinear scaling shows (Figure 4).
func BenchmarkFig4IterSolve(b *testing.B) {
	defs := workloads.SyntheticReducedSuite()[:10]
	opt := harness.DefaultOptions()
	opt.IterCap = 3000
	benchSuite(b, defs, searchspace.IterativeSAT, opt)
}

func BenchmarkFig4BruteForce(b *testing.B) {
	benchSuite(b, workloads.SyntheticReducedSuite()[:10], searchspace.BruteForce, harness.DefaultOptions())
}

func BenchmarkFig4Optimized(b *testing.B) {
	benchSuite(b, workloads.SyntheticReducedSuite()[:10], searchspace.Optimized, harness.DefaultOptions())
}

// Figure 5 benchmarks: each method over the eight real-world spaces.
// Brute force extrapolates ATF PRL 8x8 (2.4G candidates) from a measured
// 1M-candidate prefix, exactly as cmd/benchreal does by default.

func BenchmarkFig5RealBruteForce(b *testing.B) {
	benchSuite(b, workloads.RealWorld(), searchspace.BruteForce, harness.DefaultOptions())
}

func BenchmarkFig5RealOriginal(b *testing.B) {
	benchSuite(b, workloads.RealWorld(), searchspace.Original, harness.DefaultOptions())
}

func BenchmarkFig5RealChainOfTrees(b *testing.B) {
	benchSuite(b, workloads.RealWorld(), searchspace.ChainOfTrees, harness.DefaultOptions())
}

func BenchmarkFig5RealChainInterpreted(b *testing.B) {
	benchSuite(b, workloads.RealWorld(), searchspace.ChainOfTreesInterpreted, harness.DefaultOptions())
}

func BenchmarkFig5RealOptimized(b *testing.B) {
	benchSuite(b, workloads.RealWorld(), searchspace.Optimized, harness.DefaultOptions())
}

// Per-workload construction benchmarks with the optimized solver: the
// headline per-space sub-second claim of §5.3.7.

func benchConstructOptimized(b *testing.B, def *model.Definition) {
	b.Helper()
	b.ReportAllocs()
	var construct time.Duration
	for i := 0; i < b.N; i++ {
		ss, stats, err := searchspace.FromDefinition(def).BuildWith(searchspace.BuildOpts{Method: searchspace.Optimized, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if ss.Size() == 0 {
			b.Fatal("empty space")
		}
		construct += stats.Duration
	}
	// ns/op covers the whole BuildWith call; construct-ms is the
	// construction alone, without validation and materialization.
	b.ReportMetric(construct.Seconds()*1000/float64(b.N), "construct-ms")
}

func BenchmarkConstructDedispersion(b *testing.B) {
	benchConstructOptimized(b, workloads.Dedispersion())
}
func BenchmarkConstructExpDist(b *testing.B) { benchConstructOptimized(b, workloads.ExpDist()) }
func BenchmarkConstructHotspot(b *testing.B) { benchConstructOptimized(b, workloads.Hotspot()) }
func BenchmarkConstructGEMM(b *testing.B)    { benchConstructOptimized(b, workloads.GEMM()) }
func BenchmarkConstructMicroHH(b *testing.B) { benchConstructOptimized(b, workloads.MicroHH()) }
func BenchmarkConstructPRL8x8(b *testing.B)  { benchConstructOptimized(b, workloads.PRL(8)) }

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
