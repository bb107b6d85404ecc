package model

import (
	"testing"

	"searchspace/internal/core"
	"searchspace/internal/value"
)

func TestValidate(t *testing.T) {
	good := &Definition{
		Name: "ok",
		Params: []Param{
			IntsParam("a", 1, 2),
			RangeParam("b", 1, 3),
		},
		Constraints: []string{"a < b"},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid definition rejected: %v", err)
	}
	cases := []*Definition{
		{Name: "emptyname", Params: []Param{{Name: "", Values: ints(1)}}},
		{Name: "dup", Params: []Param{IntsParam("a", 1), IntsParam("a", 2)}},
		{Name: "novalues", Params: []Param{{Name: "a"}}},
		{Name: "badsyntax", Params: []Param{IntsParam("a", 1)}, Constraints: []string{"a +"}},
		{Name: "unknownvar", Params: []Param{IntsParam("a", 1)}, Constraints: []string{"b > 0"}},
		{Name: "badgo", Params: []Param{IntsParam("a", 1)},
			GoConstraints: []GoConstraint{{Vars: nil, Fn: nil}}},
		{Name: "gounknown", Params: []Param{IntsParam("a", 1)},
			GoConstraints: []GoConstraint{{Vars: []string{"zz"}, Fn: func([]value.Value) bool { return true }}}},
	}
	for _, def := range cases {
		if err := def.Validate(); err == nil {
			t.Errorf("%s: expected validation error", def.Name)
		}
	}
}

func ints(xs ...int) []value.Value {
	out := make([]value.Value, len(xs))
	for i, x := range xs {
		out[i] = value.OfInt(int64(x))
	}
	return out
}

func TestCartesianSizeAndCounts(t *testing.T) {
	def := &Definition{
		Name: "sizes",
		Params: []Param{
			IntsParam("a", 1, 2, 3),
			Pow2Param("b", 0, 3), // 1,2,4,8
		},
		Constraints: []string{"a <= b"},
	}
	if got := def.CartesianSize(); got != 12 {
		t.Errorf("CartesianSize = %v, want 12", got)
	}
	if def.NumParams() != 2 || def.NumConstraints() != 1 {
		t.Errorf("counts: %d params, %d constraints", def.NumParams(), def.NumConstraints())
	}
	if i, ok := def.ParamIndex("b"); !ok || i != 1 {
		t.Errorf("ParamIndex(b) = %d, %v", i, ok)
	}
	if _, ok := def.ParamIndex("zz"); ok {
		t.Error("ParamIndex(zz) should fail")
	}
}

func TestToProblem(t *testing.T) {
	def := &Definition{
		Name:        "prob",
		Params:      []Param{IntsParam("a", 1, 2, 3, 4), IntsParam("b", 2, 4)},
		Constraints: []string{"a % b == 0"},
		GoConstraints: []GoConstraint{{
			Vars: []string{"a"},
			Fn:   func(vals []value.Value) bool { return vals[0].Int() > 1 },
		}},
	}
	p, err := def.ToProblem()
	if err != nil {
		t.Fatal(err)
	}
	// a in {2,4} with a%b==0 and a>1: (2,2), (4,2), (4,4).
	if n := p.Compile(core.DefaultOptions()).Count(); n != 3 {
		t.Fatalf("got %d solutions, want 3", n)
	}
	bad := &Definition{
		Name:        "bad",
		Params:      []Param{IntsParam("a", 1)},
		Constraints: []string{"zzz > 0"},
	}
	if _, err := bad.ToProblem(); err == nil {
		t.Error("unknown variable should fail")
	}
}

func TestParsedConstraints(t *testing.T) {
	def := &Definition{
		Name:        "parsed",
		Params:      []Param{IntsParam("a", 1)},
		Constraints: []string{"a > 0", "a < 10"},
	}
	nodes, err := def.ParsedConstraints()
	if err != nil || len(nodes) != 2 {
		t.Fatalf("ParsedConstraints: %v, %v", nodes, err)
	}
	def.Constraints = append(def.Constraints, "a +")
	if _, err := def.ParsedConstraints(); err == nil {
		t.Error("syntax error should propagate")
	}
}

func TestParamConstructors(t *testing.T) {
	p := RangeParam("r", 3, 6)
	if len(p.Values) != 4 || p.Values[0].Int() != 3 || p.Values[3].Int() != 6 {
		t.Errorf("RangeParam = %v", p.Values)
	}
	p = Pow2Param("p", 2, 5)
	want := []int64{4, 8, 16, 32}
	for i, w := range want {
		if p.Values[i].Int() != w {
			t.Errorf("Pow2Param[%d] = %v, want %d", i, p.Values[i], w)
		}
	}
	p = IntsParam("i", 9, 7)
	if len(p.Values) != 2 || p.Values[0].Int() != 9 {
		t.Errorf("IntsParam = %v", p.Values)
	}
}

func TestClone(t *testing.T) {
	orig := &Definition{
		Name: "clone",
		Params: []Param{
			IntsParam("a", 1, 2, 3),
			{Name: "s", Values: []value.Value{value.OfString("x")}},
		},
		Constraints: []string{"a < 3"},
		GoConstraints: []GoConstraint{
			{Vars: []string{"a"}, Fn: func([]value.Value) bool { return true }},
		},
	}
	c := orig.Clone()
	// Mutating the clone must not reach the original.
	c.Name = "mutated"
	c.Params[0].Name = "zz"
	c.Params[0].Values[0] = value.OfInt(99)
	c.Constraints[0] = "a > 100"
	c.GoConstraints[0].Vars[0] = "zz"
	if orig.Name != "clone" || orig.Params[0].Name != "a" {
		t.Errorf("clone shares param headers: %+v", orig.Params[0])
	}
	if orig.Params[0].Values[0].Int() != 1 {
		t.Error("clone shares value storage")
	}
	if orig.Constraints[0] != "a < 3" {
		t.Error("clone shares constraint slice")
	}
	if orig.GoConstraints[0].Vars[0] != "a" {
		t.Error("clone shares Go-constraint vars")
	}
}

func TestCanonicalConstraints(t *testing.T) {
	d := &Definition{
		Name:        "canon",
		Params:      []Param{IntsParam("a", 1), IntsParam("b", 2)},
		Constraints: []string{"b > 1", "a < 2"},
	}
	got := d.CanonicalConstraints()
	if got[0] != "a < 2" || got[1] != "b > 1" {
		t.Errorf("not sorted: %v", got)
	}
	// The original order is untouched (it is part of the user's input).
	if d.Constraints[0] != "b > 1" {
		t.Errorf("CanonicalConstraints mutated the definition: %v", d.Constraints)
	}
}

func TestCanonicalConstraintsDedup(t *testing.T) {
	d := &Definition{
		Name:        "dedup",
		Params:      []Param{IntsParam("a", 1), IntsParam("b", 2)},
		Constraints: []string{"b > 1", "a < 2", "b > 1", "a < 2", "a < 2"},
	}
	got := d.CanonicalConstraints()
	if len(got) != 2 || got[0] != "a < 2" || got[1] != "b > 1" {
		t.Errorf("dedup failed: %v", got)
	}
	if len(d.Constraints) != 5 {
		t.Errorf("CanonicalConstraints mutated the definition: %v", d.Constraints)
	}
}

func TestSameParams(t *testing.T) {
	a := &Definition{Params: []Param{IntsParam("x", 1, 2), IntsParam("y", 3)}}
	b := &Definition{Params: []Param{IntsParam("x", 1, 2), IntsParam("y", 3)}}
	if !SameParams(a, b) {
		t.Error("identical params compare unequal")
	}
	// Parameter order is semantic.
	c := &Definition{Params: []Param{IntsParam("y", 3), IntsParam("x", 1, 2)}}
	if SameParams(a, c) {
		t.Error("reordered params compare equal")
	}
	// Value kind is semantic: int 2 != float 2.0.
	d := &Definition{Params: []Param{
		{Name: "x", Values: []value.Value{value.OfInt(1), value.OfFloat(2)}},
		IntsParam("y", 3),
	}}
	if SameParams(a, d) {
		t.Error("int vs float domain compares equal")
	}
	e := &Definition{Params: []Param{IntsParam("x", 1, 2, 3), IntsParam("y", 3)}}
	if SameParams(a, e) {
		t.Error("wider domain compares equal")
	}
}

func TestConstraintDelta(t *testing.T) {
	parent := &Definition{Constraints: []string{"b > 1", "a < 2"}}
	child := &Definition{Constraints: []string{"a < 2", "c == 3", "b > 1", "b > 1"}}
	delta, ok := ConstraintDelta(parent, child)
	if !ok || len(delta) != 1 || delta[0] != "c == 3" {
		t.Errorf("delta = %v ok=%v, want [c == 3] true", delta, ok)
	}
	// Equal sets: empty delta, still a subset.
	delta, ok = ConstraintDelta(parent, &Definition{Constraints: []string{"a < 2", "b > 1"}})
	if !ok || len(delta) != 0 {
		t.Errorf("equal sets: delta = %v ok=%v", delta, ok)
	}
	// Parent carries a constraint the child lacks: not a subset.
	if _, ok := ConstraintDelta(parent, &Definition{Constraints: []string{"a < 2"}}); ok {
		t.Error("missing parent constraint reported as subset")
	}
}
