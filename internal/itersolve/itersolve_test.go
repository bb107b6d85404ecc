package itersolve

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"searchspace/internal/core"
	"searchspace/internal/model"
)

func keysOf(col *core.Columnar) []string {
	n := col.NumSolutions()
	out := make([]string, n)
	for r := 0; r < n; r++ {
		var sb strings.Builder
		for vi := range col.Cols {
			fmt.Fprintf(&sb, "%d|", col.Cols[vi][r])
		}
		out[r] = sb.String()
	}
	sort.Strings(out)
	return out
}

func TestMatchesDirectEnumeration(t *testing.T) {
	def := &model.Definition{
		Name: "iter",
		Params: []model.Param{
			model.IntsParam("a", 1, 2, 4, 8, 16),
			model.Pow2Param("b", 0, 4),
			model.RangeParam("c", 1, 3),
		},
		Constraints: []string{"a * b >= 8", "a * b * c <= 96"},
	}
	got, stats, err := Solve(def, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := def.ToProblem()
	if err != nil {
		t.Fatal(err)
	}
	want := p.Compile(core.DefaultOptions()).SolveColumnar()
	g, w := keysOf(got), keysOf(want)
	if len(g) != len(w) {
		t.Fatalf("itersolve %d solutions, direct %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("differ at %d", i)
		}
	}
	if stats.Queries != len(g)+1 {
		t.Errorf("queries = %d, want %d (one per solution plus final unsat)", stats.Queries, len(g)+1)
	}
	// The k-th query re-rejects the k-1 previously blocked solutions and
	// the final unsatisfiable query rejects all S of them: total blocked
	// probes are S*(S+1)/2 for S solutions.
	s := len(g)
	if want := s * (s + 1) / 2; stats.Blocked != want {
		t.Errorf("blocked = %d, want %d", stats.Blocked, want)
	}
	if str := stats.String(); !strings.Contains(str, "queries") {
		t.Errorf("Stats.String() = %q", str)
	}
}

func TestEmptySpace(t *testing.T) {
	def := &model.Definition{
		Name:        "empty",
		Params:      []model.Param{model.IntsParam("a", 1, 2)},
		Constraints: []string{"a > 100"},
	}
	col, stats, err := Solve(def, 0)
	if err != nil {
		t.Fatal(err)
	}
	if col.NumSolutions() != 0 || stats.Queries != 1 {
		t.Fatalf("solutions=%d queries=%d, want 0 and 1", col.NumSolutions(), stats.Queries)
	}
}

func TestErrorPropagation(t *testing.T) {
	def := &model.Definition{
		Name:        "bad",
		Params:      []model.Param{model.IntsParam("a", 1)},
		Constraints: []string{"a >"},
	}
	if _, _, err := Solve(def, 0); err == nil {
		t.Fatal("syntax error should propagate")
	}
}

// TestLimit checks that a limited run returns the unlimited run's first
// rows, one query per row and no final unsatisfiable query, and that a
// limit past the space's size changes nothing.
func TestLimit(t *testing.T) {
	def := &model.Definition{
		Name: "limit",
		Params: []model.Param{
			model.RangeParam("a", 1, 6),
			model.RangeParam("b", 1, 6),
		},
		Constraints: []string{"a * b <= 12"},
	}
	all, _, err := Solve(def, 0)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 5
	got, stats, err := Solve(def, limit)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSolutions() != limit || stats.Queries != limit {
		t.Fatalf("solutions=%d queries=%d, want %d and %d", got.NumSolutions(), stats.Queries, limit, limit)
	}
	for vi := range all.Cols {
		for r := 0; r < limit; r++ {
			if got.Cols[vi][r] != all.Cols[vi][r] {
				t.Fatalf("col %d row %d: limited %d, unlimited %d", vi, r, got.Cols[vi][r], all.Cols[vi][r])
			}
		}
	}
	past, _, err := Solve(def, all.NumSolutions()+1)
	if err != nil {
		t.Fatal(err)
	}
	if past.NumSolutions() != all.NumSolutions() {
		t.Fatalf("limit past the size: %d solutions, want %d", past.NumSolutions(), all.NumSolutions())
	}
}
