package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"searchspace/internal/value"
)

// TestExecSplitsPastUnitFirstDomain pins the regression the old
// first-domain partition had: with len(first) == 1 it silently degraded
// to a fully sequential run no matter how many workers were free. The
// prefix split must recurse past unit domains and still produce
// sequential-identical output.
func TestExecSplitsPastUnitFirstDomain(t *testing.T) {
	// "a" has a unit domain and the highest constraint degree, so the
	// degree-descending order puts it first; the split must deepen into
	// b/c/d to find parallelism.
	vars := []varDef{
		{"a", ints(4)},
		{"b", rangeInts(1, 8)},
		{"c", rangeInts(1, 8)},
		{"d", rangeInts(1, 8)},
	}
	cons := []string{
		"a * b <= 24",
		"a + c >= 5",
		"a != d",
		"b + c + d <= 18",
	}
	p := buildProblem(t, vars, cons)
	compiled := p.Compile(DefaultOptions())
	if len(compiled.doms[0]) != 1 {
		t.Fatalf("test setup: first solve-order domain has %d values, want 1", len(compiled.doms[0]))
	}

	seq := compiled.SolveColumnar()
	var tasks atomic.Int64
	par, _, canceled := compiled.SolveColumnarExec(Exec{
		Workers: 8,
		OnProgress: func(done, total int) {
			tasks.Store(int64(total))
		},
	})
	if canceled {
		t.Fatal("uncancelled run reported canceled")
	}
	if tasks.Load() <= 1 {
		t.Fatalf("unit first domain produced %d tasks; the split must recurse past it", tasks.Load())
	}
	assertSameColumnar(t, seq, par)
}

// TestExecParityAcrossWorkerCounts sweeps worker counts over a skewed
// problem (heavily constrained prefixes next to dense ones) and
// requires byte-identical output every time.
func TestExecParityAcrossWorkerCounts(t *testing.T) {
	vars := []varDef{
		{"a", rangeInts(1, 15)},
		{"b", rangeInts(1, 12)},
		{"c", ints(1, 2, 4, 8)},
		{"d", rangeInts(0, 6)},
	}
	cons := []string{
		"a * b <= 60",
		"a % c == 0",
		"d < b",
		"a + b + d >= 6",
	}
	p := buildProblem(t, vars, cons)
	compiled := p.Compile(DefaultOptions())
	seq := compiled.SolveColumnar()
	for _, workers := range []int{2, 3, 7, 32} {
		par, _, canceled := compiled.SolveColumnarExec(Exec{Workers: workers})
		if canceled {
			t.Fatalf("workers=%d: uncancelled run reported canceled", workers)
		}
		assertSameColumnar(t, seq, par)
	}
}

// TestExecProgressReachesTotal checks the progress contract: one
// upfront call with done 0 publishes the total before any task lands,
// then done reaches total in exactly one call per task.
func TestExecProgressReachesTotal(t *testing.T) {
	// Four constrained depths with domains the prefix split stops short
	// of, so tasks still walk nodes below the pinned prefix (a fully
	// pinned task is one leaf block and charges no node visits).
	p := buildProblem(t, []varDef{
		{"a", rangeInts(1, 12)},
		{"b", rangeInts(1, 12)},
		{"c", rangeInts(1, 12)},
		{"d", rangeInts(1, 12)},
	}, []string{"a + b + c + d <= 24"})
	compiled := p.Compile(DefaultOptions())
	var calls, maxDone, total, firstDone atomic.Int64
	firstDone.Store(-1)
	var sink ProgressSink
	col, _, canceled := compiled.SolveColumnarExec(Exec{
		Workers: 4,
		Sink:    &sink,
		OnProgress: func(done, tot int) {
			if calls.Add(1) == 1 {
				firstDone.Store(int64(done))
			}
			total.Store(int64(tot))
			for {
				cur := maxDone.Load()
				if int64(done) <= cur || maxDone.CompareAndSwap(cur, int64(done)) {
					break
				}
			}
		},
	})
	if canceled {
		t.Fatal("uncancelled run reported canceled")
	}
	if total.Load() <= 1 {
		t.Fatalf("expected a real split, got %d tasks", total.Load())
	}
	if firstDone.Load() != 0 {
		t.Fatalf("first progress call carried done=%d, want the upfront 0/total publication", firstDone.Load())
	}
	if maxDone.Load() != total.Load() || calls.Load() != total.Load()+1 {
		t.Fatalf("progress saw %d calls, max done %d, total %d; want one upfront call plus one per task",
			calls.Load(), maxDone.Load(), total.Load())
	}
	if sink.Nodes.Load() <= 0 {
		t.Fatalf("progress sink saw %d nodes, want > 0", sink.Nodes.Load())
	}
	if got, want := sink.Rows.Load(), int64(col.NumSolutions()); got != want {
		t.Fatalf("progress sink saw %d rows, space has %d", got, want)
	}
}

// TestExecCancellation fires Stop mid-run and requires the engine to
// report cancellation instead of a result.
func TestExecCancellation(t *testing.T) {
	vars := []varDef{
		{"a", rangeInts(1, 20)},
		{"b", rangeInts(1, 20)},
		{"c", rangeInts(1, 20)},
		{"d", rangeInts(1, 20)},
	}
	p := buildProblem(t, vars, []string{"a + b + c + d <= 70"})
	compiled := p.Compile(DefaultOptions())

	var polls atomic.Int64
	_, _, canceled := compiled.SolveColumnarExec(Exec{
		Workers: 4,
		Stop:    func() bool { return polls.Add(1) > 3 },
	})
	if !canceled {
		t.Fatal("run with a firing stop did not report cancellation")
	}

	// An immediately-true stop cancels before any real work.
	_, _, canceled = compiled.SolveColumnarExec(Exec{
		Workers: 4,
		Stop:    func() bool { return true },
	})
	if !canceled {
		t.Fatal("always-true stop did not cancel")
	}
}

func assertSameColumnar(t *testing.T, want, got *Columnar) {
	t.Helper()
	if got.NumSolutions() != want.NumSolutions() {
		t.Fatalf("%d solutions, want %d", got.NumSolutions(), want.NumSolutions())
	}
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("%d columns, want %d", len(got.Cols), len(want.Cols))
	}
	for vi := range want.Cols {
		for r := range want.Cols[vi] {
			if got.Cols[vi][r] != want.Cols[vi][r] {
				t.Fatalf("col %d row %d: got %d want %d (order must be identical)",
					vi, r, got.Cols[vi][r], want.Cols[vi][r])
			}
		}
	}
}

// TestExecStatsSingleWorkerOnly pins SolveColumnarExec's stats contract
// on the walk and the component-product paths: a one-worker run reports
// the kernel's counts, identical to SolveColumnarStatsSink's, and any
// wider run reports zero with the same rows.
func TestExecStatsSingleWorkerOnly(t *testing.T) {
	vars := []varDef{
		{"a", rangeInts(1, 15)},
		{"b", rangeInts(1, 12)},
		{"c", ints(1, 2, 4, 8)},
		{"d", rangeInts(0, 6)},
	}
	for label, cons := range map[string][]string{
		"walk":    {"a * b <= 60", "a % c == 0", "d < b"},
		"product": {"a * b <= 60", "c + d <= 9"},
	} {
		c := buildProblem(t, vars, cons).Compile(DefaultOptions())
		if (c.product != nil) != (label == "product") {
			t.Fatalf("%s: test setup: product path taken = %v", label, c.product != nil)
		}
		seq, want, _ := c.SolveColumnarStatsSink(nil, nil)
		one, es, canceled := c.SolveColumnarExec(Exec{Workers: 1})
		if canceled || es != want || es.Nodes == 0 {
			t.Fatalf("%s: one worker: stats %+v canceled %v, want %+v", label, es, canceled, want)
		}
		assertSameColumnar(t, seq, one)
		for _, workers := range []int{2, 7} {
			par, es, _ := c.SolveColumnarExec(Exec{Workers: workers})
			if es != (EnumStats{}) {
				t.Errorf("%s: %d workers: stats %+v, want zero", label, workers, es)
			}
			assertSameColumnar(t, seq, par)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	vars := []varDef{
		{"a", rangeInts(1, 15)},
		{"b", rangeInts(1, 12)},
		{"c", ints(1, 2, 4, 8)},
		{"d", rangeInts(0, 6)},
	}
	cons := []string{
		"a * b <= 60",
		"a % c == 0",
		"d < b",
		"a + b + d >= 6",
	}
	p := buildProblem(t, vars, cons)
	compiled := p.Compile(DefaultOptions())
	seq := compiled.SolveColumnar()
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		par := solveParallel(compiled, workers)
		if par.NumSolutions() != seq.NumSolutions() {
			t.Fatalf("workers=%d: %d solutions, want %d", workers, par.NumSolutions(), seq.NumSolutions())
		}
		for vi := range seq.Cols {
			for r := range seq.Cols[vi] {
				if par.Cols[vi][r] != seq.Cols[vi][r] {
					t.Fatalf("workers=%d: row %d differs (order must be identical)", workers, r)
				}
			}
		}
	}
}

func TestParallelEdgeCases(t *testing.T) {
	// Empty problem.
	empty := NewProblem().Compile(DefaultOptions())
	if got := solveParallel(empty, 4); got.NumSolutions() != 0 {
		t.Error("empty problem should have no solutions")
	}
	// Single variable.
	p := NewProblem()
	if err := p.AddVariable("a", ints(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraintString("a != 2"); err != nil {
		t.Fatal(err)
	}
	got := solveParallel(p.Compile(DefaultOptions()), 4)
	if got.NumSolutions() != 2 {
		t.Fatalf("single-var parallel: %d solutions, want 2", got.NumSolutions())
	}
	// Unsatisfiable.
	p2 := NewProblem()
	if err := p2.AddVariable("a", ints(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := p2.AddVariable("b", ints(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := p2.AddConstraintString("a + b > 100"); err != nil {
		t.Fatal(err)
	}
	if got := solveParallel(p2.Compile(DefaultOptions()), 2); got.NumSolutions() != 0 {
		t.Error("unsat parallel should be empty")
	}
}

func TestParallelRandomProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 20; trial++ {
		nvars := 2 + rng.Intn(3)
		vars := make([]varDef, nvars)
		names := make([]string, nvars)
		for i := range vars {
			names[i] = fmt.Sprintf("v%d", i)
			size := 2 + rng.Intn(7)
			dom := make([]value.Value, size)
			for k := range dom {
				dom[k] = value.OfInt(int64(rng.Intn(10) + 1))
			}
			vars[i] = varDef{names[i], dom}
		}
		cons := []string{fmt.Sprintf("%s * %s <= %d",
			names[rng.Intn(nvars)], names[rng.Intn(nvars)], 20+rng.Intn(40))}
		p := buildProblem(t, vars, cons)
		compiled := p.Compile(DefaultOptions())
		seq := compiled.SolveColumnar()
		par := solveParallel(compiled, 4)
		if seq.NumSolutions() != par.NumSolutions() {
			t.Fatalf("trial %d: parallel %d vs sequential %d", trial, par.NumSolutions(), seq.NumSolutions())
		}
	}
}

func BenchmarkSolveSequential(b *testing.B) {
	p := benchProblem(b)
	compiled := p.Compile(DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if compiled.SolveColumnar().NumSolutions() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkSolveParallel(b *testing.B) {
	p := benchProblem(b)
	compiled := p.Compile(DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if solveParallel(compiled, 0).NumSolutions() == 0 {
			b.Fatal("empty")
		}
	}
}

func benchProblem(b *testing.B) *Problem {
	b.Helper()
	p := NewProblem()
	mustAdd := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	mustAdd(p.AddVariable("a", rangeInts(1, 40)))
	mustAdd(p.AddVariable("bb", rangeInts(1, 40)))
	mustAdd(p.AddVariable("c", rangeInts(1, 20)))
	mustAdd(p.AddVariable("d", rangeInts(1, 10)))
	mustAdd(p.AddConstraintString("a * bb <= 800"))
	mustAdd(p.AddConstraintString("a % c == 0"))
	mustAdd(p.AddConstraintString("c + d <= 25"))
	return p
}

// solveParallel is SolveColumnarExec with only a worker count.
func solveParallel(c *Compiled, workers int) *Columnar {
	col, _, _ := c.SolveColumnarExec(Exec{Workers: workers})
	return col
}
