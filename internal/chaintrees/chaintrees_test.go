package chaintrees

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"searchspace/internal/bruteforce"
	"searchspace/internal/core"
	"searchspace/internal/model"
	"searchspace/internal/value"
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

func assertSame(t *testing.T, got, want *core.Columnar, label string) {
	t.Helper()
	g, w := keysOf(got), keysOf(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d solutions, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: differ at %d", label, i)
		}
	}
}

func hotspotLike() *model.Definition {
	return &model.Definition{
		Name: "hotspot-like",
		Params: []model.Param{
			model.IntsParam("bx", 1, 2, 4, 8, 16, 32, 64),
			model.Pow2Param("by", 0, 5),
			model.RangeParam("tx", 1, 4),
			model.RangeParam("ty", 1, 4),
			model.IntsParam("unroll", 1, 2, 4),
			model.IntsParam("mode", 0, 1),
		},
		Constraints: []string{
			"bx * by >= 32",
			"bx * by <= 256",
			"tx * ty <= 8",
		},
	}
}

func TestGroupsReflectInterdependence(t *testing.T) {
	def := hotspotLike()
	chain, err := BuildExec(def, ModeCompiled, core.Exec{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Groups: {bx, by}, {tx, ty}, {unroll}, {mode}.
	if chain.NumGroups() != 4 {
		t.Fatalf("groups = %d (%v), want 4", chain.NumGroups(), chain.GroupSizes())
	}
	sizes := chain.GroupSizes()
	product := 1
	for _, s := range sizes {
		product *= s
	}
	if chain.Count() != product {
		t.Errorf("Count %d != product of group sizes %d", chain.Count(), product)
	}
	if got := chain.String(); !strings.Contains(got, "groups: 4") {
		t.Errorf("String() = %q", got)
	}
}

func TestMatchesBruteForceBothModes(t *testing.T) {
	def := hotspotLike()
	want, _, err := bruteforce.Solve(def)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeCompiled, ModeInterpreted} {
		chain, err := BuildExec(def, mode, core.Exec{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := chain.ToColumnar()
		assertSame(t, got, want, "mode "+mode.String())
		if chain.Count() != want.NumSolutions() {
			t.Errorf("mode %v Count = %d, want %d", mode, chain.Count(), want.NumSolutions())
		}
	}
}

func TestIndependentParamsOnly(t *testing.T) {
	def := &model.Definition{
		Name: "free",
		Params: []model.Param{
			model.IntsParam("a", 1, 2, 3),
			model.IntsParam("b", 1, 2),
		},
	}
	chain, err := BuildExec(def, ModeCompiled, core.Exec{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if chain.NumGroups() != 2 || chain.Count() != 6 {
		t.Fatalf("groups=%d count=%d, want 2 groups 6 configs", chain.NumGroups(), chain.Count())
	}
}

func TestUnsatisfiableConstant(t *testing.T) {
	def := &model.Definition{
		Name:        "unsat",
		Params:      []model.Param{model.IntsParam("a", 1, 2)},
		Constraints: []string{"False"},
	}
	chain, err := BuildExec(def, ModeCompiled, core.Exec{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if chain.Count() != 0 {
		t.Fatalf("Count = %d, want 0", chain.Count())
	}
	if chain.ToColumnar().NumSolutions() != 0 {
		t.Fatal("enumeration of unsat chain must be empty")
	}
}

func TestEmptyGroupKillsChain(t *testing.T) {
	def := &model.Definition{
		Name: "empty-group",
		Params: []model.Param{
			model.IntsParam("a", 1, 2),
			model.IntsParam("b", 1, 2),
			model.IntsParam("c", 1, 2, 3),
		},
		Constraints: []string{"a * b > 100"},
	}
	chain, err := BuildExec(def, ModeCompiled, core.Exec{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if chain.Count() != 0 {
		t.Fatalf("Count = %d, want 0", chain.Count())
	}
	seen := 0
	chain.ForEach(func([]int32) bool { seen++; return true })
	if seen != 0 {
		t.Fatalf("ForEach yielded %d configs from an empty chain", seen)
	}
}

func TestGoConstraints(t *testing.T) {
	def := &model.Definition{
		Name: "go",
		Params: []model.Param{
			model.RangeParam("x", 1, 5),
			model.RangeParam("y", 1, 5),
			model.IntsParam("z", 7, 8),
		},
		GoConstraints: []model.GoConstraint{{
			Vars: []string{"y", "x"},
			Fn: func(vals []value.Value) bool {
				return vals[0].Int() > vals[1].Int() // y > x
			},
		}},
	}
	chain, err := BuildExec(def, ModeCompiled, core.Exec{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if chain.Count() != 10*2 {
		t.Fatalf("Count = %d, want 20", chain.Count())
	}
	want, _, err := bruteforce.Solve(def)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, chain.ToColumnar(), want, "go constraints")
}

func TestEarlyStopEnumeration(t *testing.T) {
	def := hotspotLike()
	chain, err := BuildExec(def, ModeCompiled, core.Exec{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	chain.ForEach(func([]int32) bool {
		seen++
		return seen < 5
	})
	if seen != 5 {
		t.Errorf("early stop after %d, want 5", seen)
	}
}

func TestRandomCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	for trial := 0; trial < 25; trial++ {
		nvars := 2 + rng.Intn(4)
		def := &model.Definition{Name: fmt.Sprintf("rnd%d", trial)}
		names := make([]string, nvars)
		for i := 0; i < nvars; i++ {
			names[i] = fmt.Sprintf("v%d", i)
			size := 2 + rng.Intn(5)
			xs := make([]int, size)
			for k := range xs {
				xs[k] = rng.Intn(8) + 1
			}
			def.Params = append(def.Params, model.IntsParam(names[i], xs...))
		}
		tmpls := []string{
			"%s * %s <= 20",
			"%s + %s >= 5",
			"%s %% %s == 0",
			"%s >= %s",
		}
		for i := 0; i < 1+rng.Intn(3); i++ {
			tmpl := tmpls[rng.Intn(len(tmpls))]
			def.Constraints = append(def.Constraints,
				fmt.Sprintf(tmpl, names[rng.Intn(nvars)], names[rng.Intn(nvars)]))
		}
		want, _, err := bruteforce.Solve(def)
		if err != nil {
			t.Fatal(err)
		}
		chain, err := BuildExec(def, ModeCompiled, core.Exec{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		assertSame(t, chain.ToColumnar(), want, fmt.Sprintf("trial %d: %v", trial, def.Constraints))
	}
}

func TestValidationError(t *testing.T) {
	def := &model.Definition{
		Name:        "bad",
		Params:      []model.Param{model.IntsParam("a", 1)},
		Constraints: []string{"b > 1"},
	}
	if _, err := BuildExec(def, ModeCompiled, core.Exec{Workers: 1}); err == nil {
		t.Fatal("unknown parameter should fail")
	}
}

// TestBuildExecParity requires the parallel per-tree construction to
// produce exactly the sequential chain — group structure, leaf counts,
// and enumeration order — at several worker counts, in both modes.
func TestBuildExecParity(t *testing.T) {
	def := hotspotLike()
	for _, mode := range []Mode{ModeCompiled, ModeInterpreted} {
		seq, err := BuildExec(def, mode, core.Exec{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		seqCol := seq.ToColumnar()
		for _, workers := range []int{2, 7, 16} {
			par, err := BuildExec(def, mode, core.Exec{Workers: workers})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", mode, workers, err)
			}
			if got, want := par.GroupSizes(), seq.GroupSizes(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%v workers=%d: group sizes %v, want %v", mode, workers, got, want)
			}
			parCol := par.ToColumnar()
			if parCol.NumSolutions() != seqCol.NumSolutions() {
				t.Fatalf("%v workers=%d: %d solutions, want %d", mode, workers, parCol.NumSolutions(), seqCol.NumSolutions())
			}
			// Order-sensitive comparison: parallel construction must not
			// reorder roots.
			for vi := range seqCol.Cols {
				for r := range seqCol.Cols[vi] {
					if parCol.Cols[vi][r] != seqCol.Cols[vi][r] {
						t.Fatalf("%v workers=%d: col %d row %d differs", mode, workers, vi, r)
					}
				}
			}
		}
	}
}

// TestBuildExecCancellation fires the stop mid-construction and
// requires ErrCanceled instead of a chain.
func TestBuildExecCancellation(t *testing.T) {
	def := hotspotLike()
	var polls atomic.Int64
	_, err := BuildExec(def, ModeCompiled, core.Exec{
		Workers: 2,
		Stop:    func() bool { return polls.Add(1) > 2 },
	})
	if err != ErrCanceled {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	// A pre-start stop cancels before any tree work.
	_, err = BuildExec(def, ModeCompiled, core.Exec{
		Workers: 4,
		Stop:    func() bool { return true },
	})
	if err != ErrCanceled {
		t.Fatalf("pre-start stop: got %v, want ErrCanceled", err)
	}
}

// TestToColumnarMatchesForEach pins the bulk tiled ToColumnar against
// the per-row ForEach walk, order-sensitively: the tiled fill must
// reproduce the nested walk's row order byte for byte, including
// multi-group chains and single-parameter trees.
func TestToColumnarMatchesForEach(t *testing.T) {
	defs := []*model.Definition{
		hotspotLike(),
		{
			Name: "single-group",
			Params: []model.Param{
				model.RangeParam("x", 1, 6),
				model.RangeParam("y", 1, 6),
			},
			Constraints: []string{"x * y <= 18"},
		},
		{
			Name: "free-only",
			Params: []model.Param{
				model.IntsParam("a", 3, 1, 2),
				model.IntsParam("b", 5, 4),
				model.IntsParam("c", 9),
			},
		},
	}
	for _, def := range defs {
		for _, mode := range []Mode{ModeCompiled, ModeInterpreted} {
			chain, err := BuildExec(def, mode, core.Exec{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := &core.Columnar{Cols: make([][]int32, len(def.Params))}
			chain.ForEach(func(idx []int32) bool {
				for vi, di := range idx {
					want.Cols[vi] = append(want.Cols[vi], di)
				}
				return true
			})
			got := chain.ToColumnar()
			if got.NumSolutions() != len(want.Cols[0]) {
				t.Fatalf("%s/%v: %d rows, want %d", def.Name, mode, got.NumSolutions(), len(want.Cols[0]))
			}
			for vi := range want.Cols {
				for r := range want.Cols[vi] {
					if got.Cols[vi][r] != want.Cols[vi][r] {
						t.Fatalf("%s/%v: col %d row %d: got %d want %d (bulk fill must keep walk order)",
							def.Name, mode, vi, r, got.Cols[vi][r], want.Cols[vi][r])
					}
				}
			}
		}
	}
}
