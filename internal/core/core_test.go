package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"searchspace/internal/expr"
	"searchspace/internal/value"
)

// ints converts a list of Go ints into domain values.
func ints(xs ...int) []value.Value {
	out := make([]value.Value, len(xs))
	for i, x := range xs {
		out[i] = value.OfInt(int64(x))
	}
	return out
}

func rangeInts(lo, hi int) []value.Value {
	var out []value.Value
	for x := lo; x <= hi; x++ {
		out = append(out, value.OfInt(int64(x)))
	}
	return out
}

type varDef struct {
	name string
	dom  []value.Value
}

func buildProblem(t *testing.T, vars []varDef, constraints []string) *Problem {
	t.Helper()
	p := NewProblem()
	for _, v := range vars {
		if err := p.AddVariable(v.name, v.dom); err != nil {
			t.Fatalf("AddVariable(%s): %v", v.name, err)
		}
	}
	for _, c := range constraints {
		if err := p.AddConstraintString(c); err != nil {
			t.Fatalf("AddConstraintString(%q): %v", c, err)
		}
	}
	return p
}

// solveTuples compiles p with opt and enumerates it through the plain
// walk (ForEach), returning each row as values in definition order.
func solveTuples(p *Problem, opt Options) [][]value.Value {
	var out [][]value.Value
	p.Compile(opt).ForEach(func(idx []int32) bool {
		row := make([]value.Value, len(idx))
		for vi, di := range idx {
			row[vi] = p.domains[vi][di]
		}
		out = append(out, row)
		return true
	})
	return out
}

// bruteRef enumerates the Cartesian product and evaluates the raw
// constraint expressions with the tree-walking interpreter: an
// implementation completely independent of the solver under test.
func bruteRef(t *testing.T, vars []varDef, constraints []string) [][]value.Value {
	t.Helper()
	nodes := make([]expr.Node, len(constraints))
	for i, c := range constraints {
		n, err := expr.Parse(c)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c, err)
		}
		nodes[i] = n
	}
	var out [][]value.Value
	counters := make([]int, len(vars))
	env := expr.MapEnv{}
	for {
		ok := true
		for i, v := range vars {
			env[v.name] = v.dom[counters[i]]
		}
		for _, n := range nodes {
			valid, err := expr.EvalBool(n, env)
			if err != nil || !valid {
				ok = false
				break
			}
		}
		if ok {
			row := make([]value.Value, len(vars))
			for i, v := range vars {
				row[i] = v.dom[counters[i]]
			}
			out = append(out, row)
		}
		// Odometer increment.
		k := len(vars) - 1
		for k >= 0 {
			counters[k]++
			if counters[k] < len(vars[k].dom) {
				break
			}
			counters[k] = 0
			k--
		}
		if k < 0 {
			return out
		}
	}
}

func canonical(rows [][]value.Value) []string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.Key()
		}
		keys[i] = strings.Join(parts, "|")
	}
	sort.Strings(keys)
	return keys
}

func assertSameSolutions(t *testing.T, got, want [][]value.Value, label string) {
	t.Helper()
	g, w := canonical(got), canonical(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d solutions, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: solution sets differ at %d: %s vs %s", label, i, g[i], w[i])
		}
	}
}

// paperVars is Listing 3's Hotspot block-size space.
func paperVars() []varDef {
	xs := []int{1, 2, 4, 8, 16}
	for i := 1; i <= 32; i++ {
		xs = append(xs, 32*i)
	}
	ys := []int{1, 2, 4, 8, 16, 32}
	return []varDef{
		{"block_size_x", ints(xs...)},
		{"block_size_y", ints(ys...)},
	}
}

func TestPaperListing3(t *testing.T) {
	vars := paperVars()
	cons := []string{"32 <= block_size_x * block_size_y <= 1024"}
	p := buildProblem(t, vars, cons)
	got := solveTuples(p, DefaultOptions())
	want := bruteRef(t, vars, cons)
	assertSameSolutions(t, got, want, "listing3")
	if len(got) == 0 {
		t.Fatal("expected nonempty space")
	}
	if p.CartesianSize() != float64(37*6) {
		t.Errorf("CartesianSize = %v, want %v", p.CartesianSize(), 37*6)
	}
}

func TestOptionAblations(t *testing.T) {
	vars := []varDef{
		{"a", rangeInts(1, 12)},
		{"b", rangeInts(1, 10)},
		{"c", ints(1, 2, 4, 8)},
		{"d", rangeInts(0, 5)},
	}
	cons := []string{
		"a * b <= 40",
		"a * b >= 4",
		"a % c == 0",
		"d <= b",
		"a + b + d < 20",
		"(a + d) * c <= 64",
	}
	want := bruteRef(t, vars, cons)
	for mask := 0; mask < 8; mask++ {
		opt := Options{
			SortVariables: mask&1 != 0,
			Preprocess:    mask&2 != 0,
			PartialChecks: mask&4 != 0,
		}
		p := buildProblem(t, vars, cons)
		got := solveTuples(p, opt)
		assertSameSolutions(t, got, want, fmt.Sprintf("options %+v", opt))
	}
}

// TestSpecificConstraintBuilders checks that the language lowers
// products and sums compared against a constant into the specific
// kinds §4.3.2 preprocesses, and that they enumerate the brute-force
// rows.
func TestSpecificConstraintBuilders(t *testing.T) {
	vars := []varDef{{"x", rangeInts(1, 8)}, {"y", rangeInts(1, 8)}}
	cons := []string{"x * y >= 8", "x * y <= 32", "x + y >= 4", "x + y <= 12"}
	p := buildProblem(t, vars, cons)
	want := []conKind{conMinProd, conMaxProd, conMinSum, conMaxSum}
	if len(p.cons) != len(want) {
		t.Fatalf("%d constraints, want %d", len(p.cons), len(want))
	}
	for i, con := range p.cons {
		if con.kind != want[i] {
			t.Errorf("%q compiled to %v, want %v", cons[i], con.kind, want[i])
		}
	}
	assertSameSolutions(t, solveTuples(p, DefaultOptions()), bruteRef(t, vars, cons), "specific kinds")
}

func TestGoFuncConstraint(t *testing.T) {
	p := NewProblem()
	if err := p.AddVariable("x", rangeInts(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := p.AddVariable("y", rangeInts(1, 10)); err != nil {
		t.Fatal(err)
	}
	err := p.AddGoFunc([]string{"x", "y"}, func(vals []value.Value) bool {
		return vals[0].Int()+vals[1].Int() == 10
	})
	if err != nil {
		t.Fatal(err)
	}
	got := solveTuples(p, DefaultOptions())
	if len(got) != 9 {
		t.Fatalf("x+y==10 over 1..10²: got %d solutions, want 9", len(got))
	}
	if err := p.AddGoFunc([]string{"missing"}, func([]value.Value) bool { return true }); err == nil {
		t.Error("unknown variable should fail")
	}
	if err := p.AddGoFunc(nil, func([]value.Value) bool { return true }); err == nil {
		t.Error("empty variable list should fail")
	}
}

func TestUnsatisfiableAndEmpty(t *testing.T) {
	p := buildProblem(t, []varDef{{"a", ints(1, 2)}}, []string{"1 > 2"})
	if got := solveTuples(p, DefaultOptions()); len(got) != 0 {
		t.Fatalf("unsat problem returned %d solutions", len(got))
	}
	// Unary constraint that empties a domain.
	p = buildProblem(t, []varDef{{"a", ints(1, 2, 3)}, {"b", ints(1, 2)}},
		[]string{"a > 100", "a * b <= 6"})
	if got := solveTuples(p, DefaultOptions()); len(got) != 0 {
		t.Fatalf("emptied domain returned %d solutions", len(got))
	}
	if c := NewProblem().Compile(DefaultOptions()); c.Count() != 0 {
		t.Fatal("zero-variable problem should have no solutions")
	}
}

func TestProblemValidation(t *testing.T) {
	p := NewProblem()
	if err := p.AddVariable("", ints(1)); err == nil {
		t.Error("empty name should fail")
	}
	if err := p.AddVariable("a", nil); err == nil {
		t.Error("empty domain should fail")
	}
	if err := p.AddVariable("a", ints(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.AddVariable("a", ints(2)); err == nil {
		t.Error("duplicate name should fail")
	}
	if err := p.AddConstraintString("a *"); err == nil {
		t.Error("syntax error should surface")
	}
	if err := p.AddConstraintString("zzz > 1"); err == nil {
		t.Error("unknown variable should surface at add time")
	}
}

func TestDividesConstraint(t *testing.T) {
	vars := []varDef{
		{"n", ints(2, 3, 4, 6, 8, 12)},
		{"d", ints(0, 2, 3, 5, 12)},
	}
	cons := []string{"n % d == 0"}
	p := buildProblem(t, vars, cons)
	got := solveTuples(p, DefaultOptions())
	want := bruteRef(t, vars, cons)
	assertSameSolutions(t, got, want, "divides")
}

func TestVarCmpConstraints(t *testing.T) {
	for _, op := range []string{"<", "<=", ">", ">=", "==", "!="} {
		vars := []varDef{{"a", rangeInts(1, 6)}, {"b", ints(2, 4, 6)}}
		cons := []string{"a " + op + " b"}
		p := buildProblem(t, vars, cons)
		assertSameSolutions(t, solveTuples(p, DefaultOptions()), bruteRef(t, vars, cons), op)
	}
}

func TestStringDomains(t *testing.T) {
	vars := []varDef{
		{"layout", []value.Value{value.OfString("row"), value.OfString("col")}},
		{"size", ints(16, 32, 64)},
	}
	cons := []string{`layout == "row" or size <= 32`}
	p := buildProblem(t, vars, cons)
	assertSameSolutions(t, solveTuples(p, DefaultOptions()), bruteRef(t, vars, cons), "strings")
}

func TestBoolDomains(t *testing.T) {
	vars := []varDef{
		{"sh_power", []value.Value{value.OfBool(false), value.OfBool(true)}},
		{"bx", ints(16, 32)},
		{"tx", ints(1, 2, 4)},
	}
	cons := []string{"bx * tx * sh_power * 4 <= 128"}
	p := buildProblem(t, vars, cons)
	assertSameSolutions(t, solveTuples(p, DefaultOptions()), bruteRef(t, vars, cons), "bool product")
}

func TestFirstAndCount(t *testing.T) {
	vars := []varDef{{"a", rangeInts(1, 5)}, {"b", rangeInts(1, 5)}}
	cons := []string{"a * b >= 20"}
	p := buildProblem(t, vars, cons)
	c := p.Compile(DefaultOptions())
	if n := c.Count(); n != 3 { // (4,5), (5,4), (5,5)
		t.Fatalf("Count = %d, want 3", n)
	}
	if _, ok := c.First(); !ok {
		t.Fatal("First should find a solution")
	}
	p2 := buildProblem(t, vars, []string{"a * b > 25"})
	if _, ok := p2.Compile(DefaultOptions()).First(); ok {
		t.Fatal("First on empty space should report ok=false")
	}
}

func TestColumnarRoundTrip(t *testing.T) {
	vars := []varDef{{"a", ints(1, 2, 3)}, {"b", ints(4, 5)}}
	cons := []string{"a + b != 7"}
	p := buildProblem(t, vars, cons)
	col := p.Compile(DefaultOptions()).SolveColumnar()
	rows := make([][]value.Value, col.NumSolutions())
	for r := range rows {
		rows[r] = make([]value.Value, len(col.Cols))
		for vi, c := range col.Cols {
			rows[r][vi] = p.domains[vi][c[r]]
		}
	}
	assertSameSolutions(t, rows, bruteRef(t, vars, cons), "columnar")
	if col.NumSolutions() != len(rows) {
		t.Errorf("NumSolutions = %d, want %d", col.NumSolutions(), len(rows))
	}
	if (&Columnar{}).NumSolutions() != 0 {
		t.Error("empty Columnar should have 0 solutions")
	}
}

func TestRepeatedVariableProduct(t *testing.T) {
	vars := []varDef{{"a", rangeInts(1, 10)}, {"b", rangeInts(1, 10)}}
	cons := []string{"a * a * b <= 50"}
	p := buildProblem(t, vars, cons)
	assertSameSolutions(t, solveTuples(p, DefaultOptions()), bruteRef(t, vars, cons), "a*a*b")
}

func TestNegativeDomainsProduct(t *testing.T) {
	// Negative values disable the positive-domain fast paths; the generic
	// full check must still give exact results.
	vars := []varDef{{"a", rangeInts(-5, 5)}, {"b", rangeInts(-5, 5)}}
	cons := []string{"a * b >= 6"}
	p := buildProblem(t, vars, cons)
	assertSameSolutions(t, solveTuples(p, DefaultOptions()), bruteRef(t, vars, cons), "negative product")
}

func TestFloatDomains(t *testing.T) {
	vars := []varDef{
		{"scale", []value.Value{value.OfFloat(0.25), value.OfFloat(0.5), value.OfFloat(1.0)}},
		{"n", ints(2, 4, 8)},
	}
	cons := []string{"scale * n >= 1 and scale * n <= 4"}
	p := buildProblem(t, vars, cons)
	assertSameSolutions(t, solveTuples(p, DefaultOptions()), bruteRef(t, vars, cons), "floats")
}

func TestMembershipAndChains(t *testing.T) {
	vars := []varDef{{"a", rangeInts(1, 16)}, {"b", rangeInts(1, 16)}}
	cons := []string{
		"a in [2, 4, 8, 16]",
		"2 <= b <= 8 <= a * b <= 64",
	}
	p := buildProblem(t, vars, cons)
	assertSameSolutions(t, solveTuples(p, DefaultOptions()), bruteRef(t, vars, cons), "chain+membership")
}

func TestDivisionByZeroInvalidates(t *testing.T) {
	vars := []varDef{{"a", ints(4, 8)}, {"b", ints(0, 2, 4)}}
	cons := []string{"a // b >= 2 or b == 0 and a == 100"}
	p := buildProblem(t, vars, cons)
	assertSameSolutions(t, solveTuples(p, DefaultOptions()), bruteRef(t, vars, cons), "div0")
}

// TestRandomProblems cross-validates the optimized solver against the
// independent brute-force reference on 60 randomly generated problems.
func TestRandomProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	pool := []string{
		"%s * %s <= %d",
		"%s * %s >= %d",
		"%s + %s <= %d",
		"%s + %s > %d",
		"%s %% %s == 0",
		"%s <= %s",
		"%s != %s",
		"%s * %s * %s <= %d",
		"(%s + %s) * %s <= %d",
		"%s * 2 + %s <= %d",
	}
	for trial := 0; trial < 60; trial++ {
		nvars := 2 + rng.Intn(3)
		vars := make([]varDef, nvars)
		names := make([]string, nvars)
		for i := range vars {
			names[i] = fmt.Sprintf("v%d", i)
			size := 2 + rng.Intn(8)
			dom := make([]value.Value, size)
			for k := range dom {
				dom[k] = value.OfInt(int64(rng.Intn(12) + 1))
			}
			vars[i] = varDef{names[i], dom}
		}
		ncons := 1 + rng.Intn(3)
		cons := make([]string, ncons)
		for i := range cons {
			tmpl := pool[rng.Intn(len(pool))]
			n := strings.Count(tmpl, "%s")
			args := make([]any, 0, n+1)
			for j := 0; j < n; j++ {
				args = append(args, names[rng.Intn(nvars)])
			}
			if strings.Contains(tmpl, "%d") {
				args = append(args, rng.Intn(100)+1)
			}
			cons[i] = fmt.Sprintf(tmpl, args...)
		}
		p := buildProblem(t, vars, cons)
		got := solveTuples(p, DefaultOptions())
		want := bruteRef(t, vars, cons)
		assertSameSolutions(t, got, want, fmt.Sprintf("random trial %d: %v", trial, cons))
	}
}

func TestDomainAccessors(t *testing.T) {
	p := buildProblem(t, []varDef{{"a", ints(1, 2)}}, nil)
	if d, ok := p.Domain("a"); !ok || len(d) != 2 {
		t.Errorf("Domain(a) = %v, %v", d, ok)
	}
	if _, ok := p.Domain("zzz"); ok {
		t.Error("Domain(zzz) should not exist")
	}
	if names := p.Names(); len(names) != 1 || names[0] != "a" {
		t.Errorf("Names = %v", names)
	}
	if p.NumConstraints() != 0 {
		t.Errorf("NumConstraints = %d, want 0", p.NumConstraints())
	}
}
