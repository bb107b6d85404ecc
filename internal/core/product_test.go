package core

import (
	"fmt"
	"math/rand"
	"testing"

	"searchspace/internal/value"
)

// productDef is one random definition for the product-path tests.
type productDef struct {
	vars []varDef
	cons []string
	opt  Options
}

// randomProductDef draws a definition whose constraints fall into 2–4
// independent groups. Every group reads one of two one-value parameters,
// each shared by two groups (PRL's input sizes), which must not join
// the groups. With
// SortVariables off, the groups' parameters are declared round-robin,
// so their depths interleave in solve order, and unconstrained
// multi-value parameters can sit between them. Some definitions get a
// group no assignment satisfies, or a check over the constants alone
// that fails.
func randomProductDef(rng *rand.Rand) productDef {
	def := productDef{opt: DefaultOptions()}
	if rng.Intn(2) == 0 {
		def.opt.SortVariables = false
	}
	consts := []varDef{{"n0", ints(4 + 2*rng.Intn(3))}, {"n1", ints(6)}}
	groups := make([][]varDef, 2+rng.Intn(3))
	for g := range groups {
		// The first parameter, the one that reads the constant, starts
		// at 1, so that a divisibility check on the constant leaves it
		// values.
		groups[g] = []varDef{{fmt.Sprintf("g%d_0", g), rangeInts(1, 2+rng.Intn(5))}}
		if rng.Intn(2) == 0 {
			groups[g] = append(groups[g], varDef{fmt.Sprintf("g%d_1", g), randomDomain(rng, rng.Intn(2), 2+rng.Intn(4))})
		}
	}
	var free []varDef
	for i := 0; i < rng.Intn(3); i++ {
		free = append(free, varDef{fmt.Sprintf("f%d", i), rangeInts(0, 1+rng.Intn(2))})
	}
	def.vars = append(def.vars, consts[0])
	for i := 0; ; i++ {
		more := false
		for _, grp := range groups {
			if i < len(grp) {
				def.vars = append(def.vars, grp[i])
				more = true
			}
		}
		if i < len(free) {
			def.vars = append(def.vars, free[i])
			more = true
		}
		if !more {
			break
		}
	}
	def.vars = append(def.vars, consts[1])

	pair := []string{"%s * %s <= %d", "%s + %s >= %d", "%s %% %s == 0", "%s != %s", "%s < %s"}
	for g, grp := range groups {
		n := consts[g/2].name
		first := grp[0].name
		switch rng.Intn(3) {
		case 0:
			def.cons = append(def.cons, fmt.Sprintf("%s %% %s == 0", n, first))
		case 1:
			def.cons = append(def.cons, fmt.Sprintf("%s * %s <= %d", first, n, 40+rng.Intn(60)))
		default:
			def.cons = append(def.cons, fmt.Sprintf("%s + %s != %d", first, n, 6+rng.Intn(6)))
		}
		for i := 1; i < len(grp); i++ {
			f := pair[rng.Intn(len(pair))]
			a, b := grp[i-1].name, grp[i].name
			if rng.Intn(2) == 0 {
				a, b = b, a
			}
			switch f {
			case pair[0]:
				def.cons = append(def.cons, fmt.Sprintf(f, a, b, 4+rng.Intn(40)))
			case pair[1]:
				def.cons = append(def.cons, fmt.Sprintf(f, a, b, rng.Intn(12)))
			default:
				def.cons = append(def.cons, fmt.Sprintf(f, a, b))
			}
		}
		if len(grp) > 1 && rng.Intn(8) == 0 {
			// Sums of these domains stay below 97: the group is empty,
			// and no preprocessing pass can see it.
			def.cons = append(def.cons, fmt.Sprintf("(%s + %s) %% 97 == 96", grp[0].name, grp[len(grp)-1].name))
		}
	}
	if rng.Intn(10) == 0 {
		def.cons = append(def.cons, "(n0 + n1) % 97 == 96")
	}
	return def
}

// TestProductMatchesWalkAndBruteForce is the product path's differential
// test: on random multi-group definitions, the product emitter, the
// plain planned walk and brute force give the same rows in the same
// order, as do the 1-worker and 3-worker public entry points. EnumStats
// and the progress sink see every row, and the sink at least the
// walked nodes. The draw must take the product path on most
// definitions and exercise interleaved components, a fill below a
// split, multi-value tails, an empty component and a failing
// constant-only check.
func TestProductMatchesWalkAndBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var taken, emptied, interleaved, tails, empty, unsat int
	for iter := 0; iter < 120; iter++ {
		def := randomProductDef(rng)
		label := fmt.Sprintf("iter %d %v", iter, def.cons)
		p := buildProblem(t, def.vars, def.cons)
		c := p.Compile(def.opt)
		if c.product == nil {
			// Preprocessing emptied a domain, or pruned a group down to
			// constants and left one group.
			if c.empty {
				emptied++
			}
			continue
		}
		taken++
		if c.product.split > 0 {
			interleaved++
		}
		if c.tailStart < len(c.order) && len(c.doms[len(c.order)-1]) > 1 {
			tails++
		}
		if c.product.unsat {
			unsat++
		}

		want := bruteIndexRows(t, def.vars, def.cons, nil)
		walk, _, _ := c.solveWalk(nil, nil)
		assertRowOrder(t, c.order, want, walk, label+" walk")
		prod, es, canceled := c.solveProduct(Exec{Workers: 1})
		if canceled {
			t.Fatalf("%s: uncancelled run reported canceled", label)
		}
		assertSameColumnar(t, walk, prod)
		if prod.NumSolutions() == 0 && !c.product.unsat {
			empty++
		}
		if es.BlockRows != int64(prod.NumSolutions()) {
			t.Fatalf("%s: stats %+v for %d rows", label, es, prod.NumSolutions())
		}

		var ps ProgressSink
		seq, ses, _ := c.SolveColumnarStatsSink(nil, &ps)
		assertSameColumnar(t, walk, seq)
		if ses != es || ps.Rows.Load() != int64(seq.NumSolutions()) || ps.Nodes.Load() < es.Nodes {
			t.Fatalf("%s: stats %+v, sink %d nodes %d rows; product run %+v", label, ses, ps.Nodes.Load(), ps.Rows.Load(), es)
		}
		var pps ProgressSink
		par, _ := c.SolveColumnarExec(Exec{Workers: 3, Sink: &pps})
		assertSameColumnar(t, walk, par)
		if pps.Rows.Load() != int64(par.NumSolutions()) {
			t.Fatalf("%s: 3-worker sink saw %d rows of %d", label, pps.Rows.Load(), par.NumSolutions())
		}
	}
	t.Logf("emptied %d, product path %d, interleaved %d, multi-value tails %d, empty components %d, failing constant checks %d",
		emptied, taken, interleaved, tails, empty, unsat)
	if taken < 80 || interleaved == 0 || tails == 0 || empty == 0 || unsat == 0 {
		t.Fatal("the draw missed a case the test must cover")
	}
}

// TestProductGoFuncStaysOnWalk: a native Go function is opaque and may
// be impure, so a definition that has one keeps the joint walk even
// when its groups are independent.
func TestProductGoFuncStaysOnWalk(t *testing.T) {
	vars := []varDef{{"a", rangeInts(1, 6)}, {"b", rangeInts(1, 6)}, {"x", rangeInts(1, 6)}, {"y", rangeInts(1, 6)}}
	cons := []string{"a * b <= 12", "x + y >= 5"}
	if c := buildProblem(t, vars, cons).Compile(DefaultOptions()); c.product == nil || len(c.product.comps) != 2 {
		t.Fatal("two independent groups did not split")
	}
	p := buildProblem(t, vars, cons)
	if err := p.AddGoFunc([]string{"x"}, func(v []value.Value) bool { return v[0].Int() != 3 }); err != nil {
		t.Fatal(err)
	}
	c := p.Compile(DefaultOptions())
	if c.product != nil {
		t.Fatal("a definition with a Go function took the product path")
	}
	got := c.SolveColumnar()
	want := bruteIndexRows(t, vars, cons, func(row []value.Value) bool { return row[2].Int() != 3 })
	assertRowOrder(t, c.order, want, got, "gofunc")
}

// TestProductCancellation fires stop at every poll of a product solve
// in turn — the first poll, before any component is solved, through the
// last, inside the fill — and requires each run to report cancellation
// with no rows, sequential and under Exec.
func TestProductCancellation(t *testing.T) {
	vars := []varDef{
		{"n", ints(8)},
		{"a", rangeInts(1, 8)}, {"x", rangeInts(1, 8)},
		{"b", rangeInts(1, 8)}, {"y", rangeInts(1, 8)},
		{"t", rangeInts(0, 3)},
	}
	cons := []string{"n % a == 0", "a % b == 0", "n % x == 0", "x * y <= 16"}
	opt := DefaultOptions()
	opt.SortVariables = false
	c := buildProblem(t, vars, cons).Compile(opt)
	if c.product == nil || c.product.split == 0 {
		t.Fatal("want interleaved components")
	}
	polls := 0
	full, _, _ := c.SolveColumnarStatsSink(func() bool { polls++; return false }, nil)
	if full.NumSolutions() == 0 || polls < 3 {
		t.Fatalf("%d rows after %d polls", full.NumSolutions(), polls)
	}
	for fire := 1; fire <= polls; fire++ {
		n := 0
		col, _, canceled := c.SolveColumnarStatsSink(func() bool { n++; return n >= fire }, nil)
		if !canceled || col.NumSolutions() != 0 {
			t.Fatalf("stop at poll %d of %d: canceled %v, %d rows", fire, polls, canceled, col.NumSolutions())
		}
	}
	col, canceled := c.SolveColumnarExec(Exec{Workers: 2, Stop: func() bool { return true }})
	if !canceled || col.NumSolutions() != 0 {
		t.Fatalf("pre-fired stop under Exec: canceled %v, %d rows", canceled, col.NumSolutions())
	}
}
