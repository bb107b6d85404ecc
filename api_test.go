package searchspace

import (
	"math/rand"
	"testing"
)

func paperProblem() *Problem {
	p := NewProblem("listing3")
	xs := []int{1, 2, 4, 8, 16}
	for i := 1; i <= 32; i++ {
		xs = append(xs, 32*i)
	}
	p.AddParamInts("block_size_x", xs)
	p.AddParam("block_size_y", 1, 2, 4, 8, 16, 32)
	p.AddConstraint("32 <= block_size_x * block_size_y <= 1024")
	return p
}

func TestBuildAllMethodsAgree(t *testing.T) {
	base, err := paperProblem().Build(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if base.Size() == 0 {
		t.Fatal("expected nonempty space")
	}
	for _, m := range Methods() {
		ss, stats, err := paperProblem().BuildTimed(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if ss.Size() != base.Size() {
			t.Errorf("%v: size %d, want %d", m, ss.Size(), base.Size())
		}
		if stats.Valid != ss.Size() || stats.Cartesian != 37*6 {
			t.Errorf("%v: stats %+v inconsistent", m, stats)
		}
		// Cross-check a handful of configurations for membership parity.
		rng := rand.New(rand.NewSource(5))
		for _, r := range ss.SampleUniform(rng, 10) {
			if !base.Contains(ss.Get(r)) {
				t.Errorf("%v: config %v missing from optimized space", m, ss.Get(r))
			}
		}
	}
}

func TestMethodString(t *testing.T) {
	if Optimized.String() != "optimized" {
		t.Error("Optimized label")
	}
	if Method(99).String() == "" {
		t.Error("unknown method should render")
	}
	if len(Methods()) != 6 {
		t.Errorf("Methods() = %d entries, want 6", len(Methods()))
	}
}

func TestProblemErrorDeferral(t *testing.T) {
	p := NewProblem("bad").AddParam("a") // no values
	p.AddParam("b", 1)                   // subsequent calls are no-ops
	if _, err := p.Build(Optimized); err == nil {
		t.Fatal("expected deferred error")
	}
	// Error deferral carries through a parallel build too.
	if _, _, err := p.BuildWith(BuildOpts{Method: Optimized, Workers: 2}); err == nil {
		t.Fatal("expected deferred error from a parallel build")
	}
	p = NewProblem("badtype").AddParam("a", struct{}{})
	if _, err := p.Build(Optimized); err == nil {
		t.Fatal("unsupported type should fail")
	}
	p = NewProblem("badexpr").AddParam("a", 1).AddConstraint("a +")
	if _, err := p.Build(Optimized); err == nil {
		t.Fatal("syntax error should fail at build")
	}
	p = NewProblem("nilfn").AddParam("a", 1).AddConstraintFunc([]string{"a"}, nil)
	if _, err := p.Build(Optimized); err == nil {
		t.Fatal("nil func should fail")
	}
	if _, err := NewProblem("x").AddParam("a", 1).Build(Method(42)); err == nil {
		t.Fatal("unknown method should fail")
	}
}

func TestConfigOperations(t *testing.T) {
	ss, err := paperProblem().Build(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ss.Get(0)
	if len(cfg) != 2 {
		t.Fatalf("config has %d entries", len(cfg))
	}
	i, ok := ss.IndexOf(cfg)
	if !ok || i != 0 {
		t.Fatalf("IndexOf(Get(0)) = %d, %v", i, ok)
	}
	if !ss.Contains(Config{"block_size_x": 32, "block_size_y": 1}) {
		t.Error("32x1 = 32 should be valid")
	}
	if ss.Contains(Config{"block_size_x": 1, "block_size_y": 1}) {
		t.Error("1x1 < 32 should be invalid")
	}
	if ss.Contains(Config{"block_size_x": 32}) {
		t.Error("partial config should be invalid")
	}
	if ss.Contains(Config{"block_size_x": 32, "block_size_y": struct{}{}}) {
		t.Error("bad type should be invalid")
	}
	vals := ss.GetValues(0)
	if len(vals) != 2 {
		t.Fatalf("GetValues = %v", vals)
	}
}

func TestTrueBoundsAndActiveValues(t *testing.T) {
	ss, err := paperProblem().Build(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	bounds := ss.TrueBounds()
	if len(bounds) != 2 {
		t.Fatal("want 2 bounds")
	}
	// block_size_x = 1 requires block_size_y >= 32 → valid; max 1024.
	if bounds[0].Min != 1 || bounds[0].Max != 1024 {
		t.Errorf("x bounds [%v, %v], want [1, 1024]", bounds[0].Min, bounds[0].Max)
	}
	active, err := ss.ActiveValues("block_size_y")
	if err != nil || len(active) == 0 {
		t.Fatalf("ActiveValues: %v, %v", active, err)
	}
	if _, err := ss.ActiveValues("zzz"); err == nil {
		t.Error("unknown parameter should error")
	}
}

func TestNeighborAndSamplingDelegation(t *testing.T) {
	ss, err := paperProblem().Build(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	rows := ss.SampleUniform(rng, 5)
	if len(rows) != 5 {
		t.Fatalf("SampleUniform = %d rows", len(rows))
	}
	if len(ss.SampleStratified(rng, 4)) != 4 {
		t.Error("SampleStratified size")
	}
	if len(ss.SampleLHS(rng, 4)) != 4 {
		t.Error("SampleLHS size")
	}
	r := rows[0]
	nb := ss.HammingNeighbors(r)
	for _, q := range nb {
		if q == r {
			t.Error("neighbor equals origin")
		}
	}
	_ = ss.AdjacentNeighbors(r)
	if _, ok := ss.RandomNeighbor(rng, r); !ok && len(nb) > 0 {
		t.Error("RandomNeighbor disagrees with HammingNeighbors")
	}
	if ss.NumParams() != 2 || len(ss.Names()) != 2 {
		t.Error("meta accessors")
	}
}

func TestAddConstraintFunc(t *testing.T) {
	p := NewProblem("gofn")
	p.AddParam("x", 1, 2, 3, 4, 5, 6)
	p.AddParam("y", 1, 2, 3, 4, 5, 6)
	p.AddConstraintFunc([]string{"x", "y"}, func(args []any) bool {
		return args[0].(int64)*args[1].(int64)%2 == 0
	})
	ss, err := p.Build(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for x := 1; x <= 6; x++ {
		for y := 1; y <= 6; y++ {
			if x*y%2 == 0 {
				want++
			}
		}
	}
	if ss.Size() != want {
		t.Fatalf("Size = %d, want %d", ss.Size(), want)
	}
	// Same predicate must behave identically under every method.
	for _, m := range Methods() {
		p2 := NewProblem("gofn2")
		p2.AddParam("x", 1, 2, 3, 4, 5, 6)
		p2.AddParam("y", 1, 2, 3, 4, 5, 6)
		p2.AddConstraintFunc([]string{"x", "y"}, func(args []any) bool {
			return args[0].(int64)*args[1].(int64)%2 == 0
		})
		ss2, err := p2.Build(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if ss2.Size() != want {
			t.Errorf("%v: size %d, want %d", m, ss2.Size(), want)
		}
	}
}

func TestDefinitionRoundTrip(t *testing.T) {
	p := NewProblem("export")
	p.AddParam("x", 1, 2, 4)
	p.AddParam("mode", "a", "b")
	p.AddConstraint("x <= 4")
	def := p.Definition()
	if def.Name != "export" || len(def.Params) != 2 || len(def.Constraints) != 1 {
		t.Fatalf("Definition() = %+v", def)
	}
	// FromDefinition must build the identical space.
	ss1, err := p.Build(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	ss2, err := FromDefinition(def.Clone()).Build(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if ss1.Size() != ss2.Size() {
		t.Fatalf("sizes differ: %d vs %d", ss1.Size(), ss2.Size())
	}
	for i := 0; i < ss1.Size(); i++ {
		if !ss2.Contains(ss1.Get(i)) {
			t.Fatalf("row %d missing after round trip", i)
		}
	}
}

func TestMethodByName(t *testing.T) {
	for _, m := range Methods() {
		got, ok := MethodByName(m.String())
		if !ok || got != m {
			t.Errorf("MethodByName(%q) = %v, %v", m.String(), got, ok)
		}
	}
	if _, ok := MethodByName("nope"); ok {
		t.Error("MethodByName accepted an unknown name")
	}
}
