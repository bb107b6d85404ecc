package core

import (
	"fmt"
	"math/rand"
	"testing"

	"searchspace/internal/value"
)

func TestAllDifferent(t *testing.T) {
	p := NewProblem()
	for _, name := range []string{"a", "b", "c"} {
		if err := p.AddVariable(name, rangeInts(1, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AllDifferent([]string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	got := p.SolveTuples()
	// 4*3*2 ordered triples of distinct values.
	if len(got) != 24 {
		t.Fatalf("got %d solutions, want 24", len(got))
	}
	for _, row := range got {
		if value.Equal(row[0], row[1]) || value.Equal(row[0], row[2]) || value.Equal(row[1], row[2]) {
			t.Fatalf("non-distinct solution %v", row)
		}
	}
}

func TestAllEqual(t *testing.T) {
	p := NewProblem()
	if err := p.AddVariable("a", ints(1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if err := p.AddVariable("b", ints(2, 4, 6)); err != nil {
		t.Fatal(err)
	}
	if err := p.AddVariable("c", ints(4, 2)); err != nil {
		t.Fatal(err)
	}
	if err := p.AllEqual([]string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	got := p.SolveTuples()
	// Common values: 2 and 4.
	if len(got) != 2 {
		t.Fatalf("got %d solutions, want 2: %v", len(got), got)
	}
}

func TestExactSum(t *testing.T) {
	p := NewProblem()
	for _, name := range []string{"a", "b", "c"} {
		if err := p.AddVariable(name, rangeInts(1, 6)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.ExactSum(10, []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	got := p.SolveTuples()
	want := 0
	for a := 1; a <= 6; a++ {
		for b := 1; b <= 6; b++ {
			for c := 1; c <= 6; c++ {
				if a+b+c == 10 {
					want++
				}
			}
		}
	}
	if len(got) != want {
		t.Fatalf("got %d solutions, want %d", len(got), want)
	}
	for _, row := range got {
		if row[0].Int()+row[1].Int()+row[2].Int() != 10 {
			t.Fatalf("bad sum in %v", row)
		}
	}
}

func TestInSetNotInSet(t *testing.T) {
	p := NewProblem()
	if err := p.AddVariable("a", rangeInts(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := p.AddVariable("b", rangeInts(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := p.InSet(ints(2, 4, 6, 8), []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := p.NotInSet(ints(4), []string{"a"}); err != nil {
		t.Fatal(err)
	}
	got := p.SolveTuples()
	// a in {2,6,8}, b in {2,4,6,8}.
	if len(got) != 3*4 {
		t.Fatalf("got %d solutions, want 12", len(got))
	}
}

func TestExtraConstraintErrors(t *testing.T) {
	p := NewProblem()
	if err := p.AddVariable("a", ints(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.AllDifferent([]string{"a"}); err == nil {
		t.Error("single-variable AllDifferent should fail")
	}
	if err := p.AllDifferent([]string{"a", "zzz"}); err == nil {
		t.Error("unknown variable should fail")
	}
	if err := p.AllDifferent([]string{"a", "a"}); err == nil {
		t.Error("duplicated variable should fail")
	}
	if err := p.InSet(ints(1), nil); err == nil {
		t.Error("empty membership should fail")
	}
	if err := p.InSet(ints(1), []string{"zzz"}); err == nil {
		t.Error("unknown membership variable should fail")
	}
}

func TestExactSumPreprocessingPrunes(t *testing.T) {
	p := NewProblem()
	if err := p.AddVariable("a", rangeInts(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := p.AddVariable("b", rangeInts(1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := p.ExactSum(6, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	// a can only be 3..5; preprocessing should shrink the search to 3
	// solutions without scanning all 300 pairs (verified by count only —
	// the pruning itself is internal).
	got := p.SolveTuples()
	if len(got) != 3 {
		t.Fatalf("got %d solutions, want 3", len(got))
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
