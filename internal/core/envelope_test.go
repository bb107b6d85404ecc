package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"searchspace/internal/value"
)

// assertKernelPaths requires every enumeration path of c to return
// exactly the brute-force rows of vars under cons, in solve order:
// the sequential planned walk (SolveColumnarStatsSink), SolveColumnarExec
// on 3 and 7 workers, and ForEachStop on the plain walk. A run whose stop
// fires at its first poll must report canceled with no rows, and a
// sequential solve after it must still match.
func assertKernelPaths(t *testing.T, c *Compiled, vars []varDef, cons []string, label string) {
	t.Helper()
	want := bruteIndexRows(t, vars, cons, nil)
	seq, _, canceled := c.SolveColumnarStatsSink(nil, nil)
	if canceled {
		t.Fatalf("%s: uncancelled run reported canceled", label)
	}
	assertRowOrder(t, c.Order(), want, seq, label)
	for _, workers := range []int{3, 7} {
		par, _, canceled := c.SolveColumnarExec(Exec{Workers: workers})
		if canceled {
			t.Fatalf("%s: uncancelled %d-worker run reported canceled", label, workers)
		}
		assertRowOrder(t, c.Order(), want, par, fmt.Sprintf("%s (%d workers)", label, workers))
	}
	stopped, _, canceled := c.SolveColumnarStatsSink(func() bool { return true }, nil)
	if canceled == c.empty || stopped.NumSolutions() != 0 {
		t.Fatalf("%s: stop at the first poll: canceled %v with %d rows", label, canceled, stopped.NumSolutions())
	}
	again, _, canceled := c.SolveColumnarStatsSink(nil, nil)
	if canceled {
		t.Fatalf("%s: run after a canceled one reported canceled", label)
	}
	assertRowOrder(t, c.Order(), want, again, label+" (after a canceled run)")
	each := &Columnar{Cols: make([][]int32, len(vars))}
	c.ForEachStop(nil, func(idx []int32) bool {
		for vi, di := range idx {
			each.Cols[vi] = append(each.Cols[vi], di)
		}
		return true
	})
	assertRowOrder(t, c.Order(), want, each, label+" (ForEachStop)")
}

// stripEnvelopes removes the envelope cut-offs from c's walk plans, its
// components' included, and recomputes the product depths: the plan as
// it would be without the envelope move.
func stripEnvelopes(c *Compiled) {
	for d := range c.plan {
		pl := &c.plan[d]
		pl.cut = pl.cut[:len(pl.cut)-pl.envelopes]
		pl.envelopes = 0
	}
	c.prodFrom = c.productFrom()
	if c.product != nil {
		for _, sub := range c.product.comps {
			stripEnvelopes(sub)
		}
	}
}

// envelopeTaken reports whether compiling p with envelope cut-offs
// walks fewer nodes than the same plan without them: some envelope
// dropped a candidate whose subtree the walk would otherwise enter.
func envelopeTaken(p *Problem) bool {
	c := p.Compile(DefaultOptions())
	_, with, _ := c.SolveColumnarStatsSink(nil, nil)
	stripEnvelopes(c)
	_, without, _ := c.SolveColumnarStatsSink(nil, nil)
	return with.Nodes < without.Nodes
}

// walkTallies runs c's planned walk once and returns how many depth
// entries it emitted as product blocks, how many of those spanned more
// than one constrained depth, and how many it declined at a poll point.
func walkTallies(c *Compiled) (products, deep, declined int) {
	if c.empty || c.tailStart == 0 {
		return 0, 0, 0
	}
	st := c.newState()
	snk := newSink(c.tailStart)
	defer snk.reset()
	c.enumColumnar(snk, nil, st, nil, nil, nil)
	return st.products, st.deep, st.declined
}

// envelopeDomain draws one domain of the requested shape: ascending
// positive, ascending mixed-sign, unsorted with negatives, descending,
// integral floats, or non-integral floats.
func envelopeDomain(rng *rand.Rand, shape, size int) []value.Value {
	xs := rng.Perm(20)[:size]
	switch shape {
	case 0, 1, 3, 4:
		sort.Ints(xs)
	}
	if shape == 3 {
		for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
			xs[i], xs[j] = xs[j], xs[i]
		}
	}
	dom := make([]value.Value, size)
	for k, x := range xs {
		switch shape {
		case 0:
			dom[k] = value.OfInt(int64(x + 1))
		case 4:
			dom[k] = value.OfFloat(float64(x - 4))
		case 5:
			dom[k] = value.OfFloat(float64(x)*0.5 - 2.25)
		default:
			dom[k] = value.OfInt(int64(x - 8))
		}
	}
	return dom
}

// TestEnvelopeProductDifferential pins envelope cut-offs and product
// blocks to brute force on random definitions whose arithmetic
// comparisons read three or four variables, so a check lands at least
// two depths below the shallowest variable it reads. Domains mix signs
// and orders and include floats; the checks include chained links whose
// directions conflict, ==/!= links and % with a variable divisor. The
// test fails if no envelope cut ever drops a candidate or no product
// block spans two depths.
func TestEnvelopeProductDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tmpls := []string{
		"%s * %s + %s <= %d",
		"(%s + %s) * %s <= %d",
		"%s * %s - %s * %s >= %d",
		"%s - %s - %s > %d",
		"%s < %s + %s < %s",
		"%d <= %s * %s - %s <= %d",
		"%s + %s == %s",
		"%s * %s != %s + %d",
		"%s %% %s + %s <= %d",
		"(%s + %s) %% %s < %s",
		"%s * %s * %s >= %d",
		"%s <= %s * %s + %s",
		"-%s * %s + %s <= %d",
		"%s + 2 * %s <= %s * 3 <= %d",
	}
	var envelopes, taken, products, deep int
	for trial := 0; trial < 160; trial++ {
		nvars := 3 + rng.Intn(3)
		vars := make([]varDef, nvars)
		names := make([]string, nvars)
		for i := range vars {
			names[i] = fmt.Sprintf("v%d", i)
			shape := rng.Intn(6)
			if trial%2 == 0 && shape > 1 {
				shape = rng.Intn(2)
			}
			vars[i] = varDef{names[i], envelopeDomain(rng, shape, 2+rng.Intn(5))}
		}
		cons := make([]string, 1+rng.Intn(3))
		for i := range cons {
			tmpl := tmpls[rng.Intn(len(tmpls))]
			var args []any
			perm := rng.Perm(nvars)
			for k := 0; k+1 < len(tmpl); k++ {
				if tmpl[k] != '%' {
					continue
				}
				k++
				switch tmpl[k] {
				case 's':
					args = append(args, names[perm[len(args)%nvars]])
				case 'd':
					args = append(args, rng.Intn(60)-10)
				}
			}
			cons[i] = fmt.Sprintf(tmpl, args...)
		}
		p := buildProblem(t, vars, cons)
		c := p.Compile(DefaultOptions())
		for _, pl := range c.plan {
			envelopes += pl.envelopes
		}
		if envelopeTaken(p) {
			taken++
		}
		pr, dp, _ := walkTallies(c)
		products += pr
		deep += dp
		assertKernelPaths(t, c, vars, cons, fmt.Sprintf("trial %d: %v", trial, cons))
	}
	t.Logf("envelope cut-offs %d, problems where one dropped a candidate %d, product blocks %d (%d over several depths)",
		envelopes, taken, products, deep)
	if taken == 0 || deep == 0 {
		t.Fatal("the random problems no longer reach envelope cut-offs and multi-depth product blocks")
	}
}

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes struct {
	data []byte
	i    int
}

func (fb *fuzzBytes) next() int {
	if fb.i >= len(fb.data) {
		return 0
	}
	fb.i++
	return int(fb.data[fb.i-1])
}

// arith decodes an arithmetic expression over v0..v(nvars-1) and small
// integer literals, nested at most depth levels of + - * %.
func (fb *fuzzBytes) arith(nvars, depth int) string {
	b := fb.next()
	if depth == 0 || b%3 == 0 {
		if b%7 == 6 {
			return strconv.Itoa(fb.next()%9 - 2)
		}
		return "v" + strconv.Itoa(fb.next()%nvars)
	}
	op := []string{"+", "-", "*", "%"}[b%4]
	return "(" + fb.arith(nvars, depth-1) + " " + op + " " + fb.arith(nvars, depth-1) + ")"
}

// FuzzKernelPlan decodes a small definition — at most five variables
// with up to six distinct integer values in [-8, 24], and up to three
// comparisons (some chained) over + - * % of them — and requires the
// planned walk, a parallel run and ForEachStop to equal brute force.
// The bounds keep every intermediate far below 2^53, so the numeric
// fast path is exact wherever it is chosen.
//
// The seed corpus is under testdata/fuzz/FuzzKernelPlan: a budget over
// ascending domains, mixed signs with a chain pulling two ways, a
// remainder by a divisor that can be zero, a tail of two many-valued
// unconstrained columns (tail), and a unary constraint that leaves one
// value at declared index 2 in the tail (unary), which the output's
// zeroed memory does not already hold.
func FuzzKernelPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fb := &fuzzBytes{data: data}
		nvars := 1 + fb.next()%5
		vars := make([]varDef, nvars)
		for i := range vars {
			size := 1 + fb.next()%6
			seen := map[int]bool{}
			var dom []value.Value
			for len(dom) < size {
				x := fb.next()%33 - 8
				if seen[x] {
					if fb.i >= len(fb.data) {
						break
					}
					continue
				}
				seen[x] = true
				dom = append(dom, value.OfInt(int64(x)))
			}
			vars[i] = varDef{"v" + strconv.Itoa(i), dom}
		}
		cmps := []string{"<", "<=", ">", ">=", "==", "!="}
		cons := make([]string, fb.next()%4)
		for i := range cons {
			src := fb.arith(nvars, 2)
			for links := 1 + fb.next()%2; links > 0; links-- {
				src += " " + cmps[fb.next()%len(cmps)] + " " + fb.arith(nvars, 2)
			}
			cons[i] = src
		}
		p := NewProblem()
		for _, v := range vars {
			if err := p.AddVariable(v.name, v.dom); err != nil {
				t.Skip(err)
			}
		}
		for _, src := range cons {
			if err := p.AddConstraintString(src); err != nil {
				t.Skip(err)
			}
		}
		assertKernelPaths(t, p.Compile(DefaultOptions()), vars, cons, fmt.Sprintf("%v", cons))
	})
}
