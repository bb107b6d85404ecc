package core_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"searchspace/internal/core"
	"searchspace/internal/model"
	"searchspace/internal/workloads"
)

// sparseDef is a constraint-sparse space: two heavily constrained
// leading parameters and a four-parameter unconstrained tail. The
// reference walk pays a per-node visit for every tail node; the kernel
// emits each surviving prefix's tail as one cartesian block, so this is
// where bulk expansion shows its structural win (nodes visited collapse
// to the constrained prefix).
func sparseDef() *model.Definition {
	bx := make([]int, 32)
	for i := range bx {
		bx[i] = i + 1
	}
	return &model.Definition{
		Name: "ConstraintSparse",
		Params: []model.Param{
			model.IntsParam("block_size_x", bx...),
			model.IntsParam("block_size_y", 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16),
			model.RangeParam("unroll_a", 1, 8),
			model.RangeParam("unroll_b", 1, 8),
			model.RangeParam("tile", 1, 8),
			model.IntsParam("layout", 0, 1, 2, 3, 4, 5),
		},
		Constraints: []string{
			"block_size_x * block_size_y <= 256",
			"block_size_x * block_size_y >= 16",
		},
	}
}

// compileWarm compiles def with the default options and runs both
// enumerators once, so the reference's lazily built closure lists are
// not charged to the first measured run.
func compileWarm(tb testing.TB, def *model.Definition) *core.Compiled {
	tb.Helper()
	p, err := def.ToProblem()
	if err != nil {
		tb.Fatalf("%s: %v", def.Name, err)
	}
	c := p.Compile(core.DefaultOptions())
	c.SolveColumnarRef(nil)
	c.SolveColumnarStatsSink(nil, nil)
	return c
}

// TestKernelMatchesReferenceWorkloads pins the kernel's output cell for
// cell against the reference enumerator on Hotspot, GEMM and the
// constraint-sparse space, and requires tail expansion to cut the
// sparse space's node visits at least a hundredfold.
func TestKernelMatchesReferenceWorkloads(t *testing.T) {
	for _, def := range []*model.Definition{workloads.Hotspot(), workloads.GEMM(), sparseDef()} {
		p, err := def.ToProblem()
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		c := p.Compile(core.DefaultOptions())
		ref, refNodes, _ := c.SolveColumnarRef(nil)
		got, es, _ := c.SolveColumnarStatsSink(nil, nil)
		if got.NumSolutions() == 0 || got.NumSolutions() != ref.NumSolutions() || len(got.Cols) != len(ref.Cols) {
			t.Fatalf("%s: kernel %d rows x %d cols, reference %d rows x %d cols",
				def.Name, got.NumSolutions(), len(got.Cols), ref.NumSolutions(), len(ref.Cols))
		}
		for vi := range ref.Cols {
			for r := range ref.Cols[vi] {
				if got.Cols[vi][r] != ref.Cols[vi][r] {
					t.Fatalf("%s: col %d row %d: kernel %d, reference %d", def.Name, vi, r, got.Cols[vi][r], ref.Cols[vi][r])
				}
			}
		}
		if def.Name == "ConstraintSparse" {
			if reduction := float64(refNodes) / float64(es.Nodes+es.Blocks); reduction < 100 {
				t.Errorf("%s: node reduction %.1fx (reference %d, kernel %d+%d), want >= 100x",
					def.Name, reduction, refNodes, es.Nodes, es.Blocks)
			}
		}
	}
}

// mallocs returns the heap allocations fn performs.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestKernelAllocsBelowReference requires the kernel's pooled output to
// allocate less than the reference's per-row column appends on Hotspot.
func TestKernelAllocsBelowReference(t *testing.T) {
	c := compileWarm(t, workloads.Hotspot())
	ref := mallocs(func() { c.SolveColumnarRef(nil) })
	ker := mallocs(func() { c.SolveColumnarStatsSink(nil, nil) })
	if ker >= ref {
		t.Errorf("Hotspot: kernel %d allocations, reference %d; want fewer", ker, ref)
	}
}

// BenchmarkKernelVsReferenceSparse times the reference enumerator and
// the kernel on the constraint-sparse space and reports ref/kernel, the
// ratio of the fastest of at least seven runs on each side. The minimum
// discards runs a GC cycle or cold page faults happened to land in.
func BenchmarkKernelVsReferenceSparse(b *testing.B) {
	c := compileWarm(b, sparseDef())
	refBest, kerBest := math.Inf(1), math.Inf(1)
	b.ResetTimer()
	for i := 0; i < b.N || i < 7; i++ {
		t0 := time.Now()
		c.SolveColumnarRef(nil)
		refBest = min(refBest, time.Since(t0).Seconds())
		t0 = time.Now()
		c.SolveColumnarStatsSink(nil, nil)
		kerBest = min(kerBest, time.Since(t0).Seconds())
	}
	b.ReportMetric(refBest/kerBest, "ref/kernel")
	b.ReportMetric(0, "ns/op") // the loop runs at least seven reps whatever b.N is
}
