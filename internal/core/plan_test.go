package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"searchspace/internal/expr"
	"searchspace/internal/value"
)

// bruteIndexRows enumerates the cartesian product in definition order
// with the tree-walking interpreter and returns the declared-index tuple
// of every configuration that satisfies all constraints and, when
// non-nil, keep (called with the full value row). It shares no code
// with the compiled kernel.
func bruteIndexRows(t *testing.T, vars []varDef, cons []string, keep func([]value.Value) bool) [][]int32 {
	t.Helper()
	nodes := make([]expr.Node, len(cons))
	for i, src := range cons {
		n, err := expr.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		nodes[i] = n
	}
	var out [][]int32
	at := make([]int32, len(vars))
	row := make([]value.Value, len(vars))
	env := expr.MapEnv{}
	for {
		for i, v := range vars {
			row[i] = v.dom[at[i]]
			env[v.name] = row[i]
		}
		ok := true
		for _, n := range nodes {
			if valid, err := expr.EvalBool(n, env); err != nil || !valid {
				ok = false
				break
			}
		}
		if ok && (keep == nil || keep(row)) {
			out = append(out, append([]int32(nil), at...))
		}
		k := len(vars) - 1
		for ; k >= 0; k-- {
			at[k]++
			if int(at[k]) < len(vars[k].dom) {
				break
			}
			at[k] = 0
		}
		if k < 0 {
			return out
		}
	}
}

// assertRowOrder requires got to hold exactly want's rows, in ascending
// lexicographic order of declared indices under the solve order.
func assertRowOrder(t *testing.T, order []int, want [][]int32, got *Columnar, label string) {
	t.Helper()
	sort.Slice(want, func(a, b int) bool {
		for _, vi := range order {
			if want[a][vi] != want[b][vi] {
				return want[a][vi] < want[b][vi]
			}
		}
		return false
	})
	if got.NumSolutions() != len(want) {
		t.Fatalf("%s: %d rows, brute force has %d", label, got.NumSolutions(), len(want))
	}
	for r, w := range want {
		for vi, di := range w {
			if got.Cols[vi][r] != di {
				t.Fatalf("%s: row %d col %d = %d, brute force order wants %d", label, r, vi, got.Cols[vi][r], di)
			}
		}
	}
}

// randomDomain draws one domain of the requested shape.
func randomDomain(rng *rand.Rand, shape, size int) []value.Value {
	perm := rng.Perm(24)[:size]
	switch shape {
	case 0: // strictly ascending positive integers: cut-offs may fire
		sort.Ints(perm)
		dom := make([]value.Value, size)
		for k, x := range perm {
			dom[k] = value.OfInt(int64(x + 1))
		}
		return dom
	case 1: // unsorted, with zero and negatives: cut-offs must not fire
		dom := make([]value.Value, size)
		for k, x := range perm {
			dom[k] = value.OfInt(int64(x - 8))
		}
		return dom
	default: // floats, ascending or not
		if rng.Intn(2) == 0 {
			sort.Ints(perm)
		}
		dom := make([]value.Value, size)
		for k, x := range perm {
			dom[k] = value.OfFloat(float64(x)*0.5 + 0.25)
		}
		return dom
	}
}

// TestPlanMatchesBruteForceRandom pins the walk plan to brute force:
// on random problems, SolveColumnar and a 7-worker SolveColumnarExec
// must return exactly the brute-force rows in solve order. The domains
// and constraints are drawn so that survivor tables, cut-offs, table
// fall-backs (3+ earlier variables, tuple spaces over memoTableMax), the
// expression-predicate escape hatch, a native Go function, envelope
// cut-offs that drop a candidate, product blocks (after a cut-off and
// over several depths) and product blocks declined at a poll point all
// occur; the test fails if any of them never does.
func TestPlanMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pool := []string{
		"%s * %s <= %d",
		"%s * %s * %s <= %d",
		"%s * %s >= %d",
		"%s + %s <= %d",
		"%s + 2 * %s > %d",
		"%s - %s >= %d",
		"%s + %s + %s <= %d",
		"%s + %s + %s + %s < %d",
		"(%s + %s) * %s <= %d",
		"%s * %s - %s <= %d",
		"%s %% %s == 0",
		"%s <= %s",
		"%s != %s",
		"%s ** 2 <= %s",
		"%s %% 3 <= %s",
	}
	// Checks over the three wide variables of a wide trial, with the
	// last operand's direction flipped in half of them, so cut-offs are
	// tried where they hold and where they must not.
	wideTmpls := []string{
		"%s + %s + %s <= %d",
		"%s + %s - %s >= %d",
		"%s + %s - %s <= %d",
		"%s - %s - %s > %d",
		"(%s + %s) * %s <= %d",
		"%s * %s - %s >= %d",
		"%s * %s - %s <= %d",
		"%s * %s * %s <= %d",
	}
	var cuts, tables, fallbacks, preds, goFuncs, envelopes, products, cutProducts, deep, declined int
	for trial := 0; trial < 132; trial++ {
		nvars := 3 + rng.Intn(3)
		// The last trials draw four domains of 10 to 15 values: their
		// walks charge more than one poll window, so product blocks
		// meet poll points and some are declined.
		long := trial >= 120
		wide := trial%3 == 0 && !long
		if wide || long {
			nvars = 4
		}
		vars := make([]varDef, nvars)
		names := make([]string, nvars)
		for i := range vars {
			names[i] = fmt.Sprintf("v%d", i)
			size, shape := 2+rng.Intn(7), rng.Intn(3)
			if long {
				size = 16 + rng.Intn(6)
			}
			if wide {
				// Domains of 17, 18 and 19 values: a check at one of
				// them keyed on the two others exceeds memoTableMax,
				// and v2, the largest, tends to be solved last. Every
				// other wide trial keeps them ascending so cut-offs
				// are considered.
				size = 17 + i
				if trial%6 == 0 {
					shape = 0
				}
				if i == 3 {
					size, shape = 2+rng.Intn(2), rng.Intn(3)
				}
			}
			vars[i] = varDef{names[i], randomDomain(rng, shape, size)}
		}
		ncons := 1 + rng.Intn(3)
		cons := make([]string, ncons)
		for i := range cons {
			tmpl := pool[rng.Intn(len(pool))]
			n := strings.Count(tmpl, "%s")
			perm := rng.Perm(nvars)
			if wide && i == 0 {
				tmpl, n, perm = wideTmpls[rng.Intn(len(wideTmpls))], 3, []int{0, 1, 2}
			}
			args := make([]any, 0, n+1)
			for j := 0; j < n; j++ {
				args = append(args, names[perm[j%nvars]])
			}
			if strings.Contains(tmpl, "%d") {
				args = append(args, rng.Intn(50)-5)
			}
			cons[i] = fmt.Sprintf(tmpl, args...)
		}
		p := buildProblem(t, vars, cons)
		var keep func([]value.Value) bool
		if trial%3 == 0 {
			a, b := rng.Intn(nvars), rng.Intn(nvars)
			fn := func(vals []value.Value) bool {
				return int64(math.Floor(vals[0].Float()+2*vals[1].Float()))%3 != 0
			}
			if err := p.AddGoFunc([]string{names[a], names[b]}, fn); err != nil {
				t.Fatal(err)
			}
			keep = func(row []value.Value) bool { return fn([]value.Value{row[a], row[b]}) }
		}
		label := fmt.Sprintf("trial %d: %v", trial, cons)
		c := p.Compile(DefaultOptions())
		for _, pl := range c.plan {
			cuts += len(pl.cut)
			if len(pl.keys) > 0 {
				tables++
			}
			for _, ins := range append(append([]instr(nil), pl.cut...), pl.prog...) {
				if ins.op == opGoFunc {
					goFuncs++
				} else {
					fallbacks++
				}
			}
		}
		if hasOp(c, opPred) {
			preds++
		}
		pr, dp, dc := walkTallies(c)
		products += pr
		if !c.empty && c.tailStart > 0 && len(c.plan[c.tailStart-1].cut) != 0 {
			cutProducts += pr
		}
		deep += dp
		declined += dc
		if envelopeTaken(p) {
			envelopes++
		}
		want := bruteIndexRows(t, vars, cons, keep)
		assertRowOrder(t, c.Order(), want, c.SolveColumnar(), label)
		par, _, canceled := c.SolveColumnarExec(Exec{Workers: 7})
		if canceled {
			t.Fatalf("%s: uncancelled parallel run reported canceled", label)
		}
		assertRowOrder(t, c.Order(), want, par, label+" (7 workers)")
	}
	t.Logf("cut instructions %d, keyed tables %d, untabled instructions %d, problems with predicates %d, Go funcs %d, "+
		"problems where an envelope cut dropped a candidate %d, product blocks %d (%d after cut-offs, %d over several depths), "+
		"product blocks declined at a poll point %d",
		cuts, tables, fallbacks, preds, goFuncs, envelopes, products, cutProducts, deep, declined)
	if cuts == 0 || tables == 0 || fallbacks == 0 || preds == 0 || goFuncs == 0 ||
		envelopes == 0 || products == 0 || cutProducts == 0 || deep == 0 || declined == 0 {
		t.Fatal("the random problems no longer reach every walk-plan path")
	}
}

// lowerForTest lowers src the way Compile would for a runtime check:
// through the specific-constraint analysis when it yields one
// multi-variable constraint, otherwise (single-variable expressions,
// unsplit comparison chains) straight through the numeric compiler.
func lowerForTest(t *testing.T, p *Problem, c *Compiled, src string) instr {
	t.Helper()
	byVar := make([][]entry, len(c.order))
	for vi := range byVar {
		byVar[vi] = c.doms[c.pos[vi]]
	}
	specs, err := expr.AnalyzeString(src)
	if err != nil {
		t.Fatalf("AnalyzeString(%q): %v", src, err)
	}
	if len(specs) == 1 && specs[0].Kind != expr.SpecUnary {
		con, _, err := p.specToConstraint(specs[0])
		if err != nil {
			t.Fatal(err)
		}
		return fullInstr(con, byVar, p.nameIdx)
	}
	node, err := expr.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ins, ok := tryNumCmp(node, p.nameIdx, byVar)
	if !ok {
		t.Fatalf("%q does not lower to opNumCmp", src)
	}
	return ins
}

// TestFailsUpward pins the cut-off eligibility analysis shape by shape:
// a cut-off is sound only where a failing value proves every larger
// value fails too.
func TestFailsUpward(t *testing.T) {
	hotspot := []varDef{
		{"bx", ints(1, 2, 4, 8, 16, 32)}, {"tx", rangeInts(1, 10)},
		{"by", ints(1, 2, 4, 8, 16, 32)}, {"ty", rangeInts(1, 10)},
		{"ttf", rangeInts(1, 10)}, {"sh", ints(0, 1)},
	}
	cases := []struct {
		name   string
		vars   []varDef
		src    string
		target string
		op     opCode
		want   bool
	}{
		{"product of sums", hotspot,
			"(bx * tx + ttf * 2) * (by * ty + ttf * 2) * (2 + sh) * 4 <= 40960", "ty", opNumCmp, true},
		{"square, x >= 0", []varDef{{"x", rangeInts(0, 9)}}, "x * x <= 50", "x", opNumCmp, true},
		{"product with zero factor", []varDef{
			{"bx", ints(1, 2, 4, 8)}, {"by", ints(1, 2, 4)}, {"bps", rangeInts(0, 4)},
		}, "bx * by * bps <= 2048", "bps", opProdMax, true},
		{"max sum", []varDef{{"a", rangeInts(1, 5)}, {"b", rangeInts(1, 5)}}, "a + 2 * b <= 9", "b", opSumMax, true},
		{"min sum, negative coefficient", []varDef{{"a", rangeInts(1, 5)}, {"b", rangeInts(1, 5)}}, "a - b >= 1", "b", opSumMin, true},

		{"product, negative factor", []varDef{{"x", rangeInts(1, 5)}, {"y", ints(-1, 2)}}, "x * y <= 10", "x", opProdMax, false},
		{"modulo", []varDef{{"x", rangeInts(0, 9)}}, "x % 3 <= 1", "x", opNumCmp, false},
		{"decreasing difference", []varDef{{"x", rangeInts(0, 9)}}, "10 - x <= 3", "x", opNumCmp, false},
		{"min sum, positive coefficient", []varDef{{"a", rangeInts(1, 5)}, {"b", rangeInts(1, 5)}}, "a - b >= 1", "a", opSumMin, false},
		{"chain mixing directions", []varDef{{"x", rangeInts(1, 5)}, {"y", rangeInts(1, 5)}}, "1 <= x * y <= 10", "x", opNumCmp, false},
		{"descending domain", []varDef{{"x", ints(8, 4, 2, 1)}, {"y", ints(1, 2)}}, "x * y <= 10", "x", opProdMax, false},
	}
	for _, tc := range cases {
		p := buildProblem(t, tc.vars, nil)
		c := p.Compile(DefaultOptions())
		ins := lowerForTest(t, p, c, tc.src)
		if ins.op != tc.op {
			t.Fatalf("%s: %q lowered to op %d, want %d", tc.name, tc.src, ins.op, tc.op)
		}
		if got := c.failsUpward(&ins, c.pos[p.nameIdx[tc.target]]); got != tc.want {
			t.Errorf("%s: failsUpward(%q in %s) = %v, want %v", tc.name, tc.src, tc.target, got, tc.want)
		}
	}
}

// hotspotProblem is the Hotspot space of internal/workloads, built
// directly so this package's tests can reach the compiled plan.
func hotspotProblem(t *testing.T) *Problem {
	t.Helper()
	bx := []int{1, 2, 4, 8, 16}
	for i := 1; i <= 32; i++ {
		bx = append(bx, 32*i)
	}
	return buildProblem(t, []varDef{
		{"block_size_x", ints(bx...)},
		{"block_size_y", ints(1, 2, 4, 8, 16, 32)},
		{"tile_size_x", rangeInts(1, 10)},
		{"tile_size_y", rangeInts(1, 10)},
		{"temporal_tiling_factor", rangeInts(1, 10)},
		{"loop_unroll_factor_t", rangeInts(1, 10)},
		{"sh_power", ints(0, 1)},
		{"blocks_per_sm", ints(0, 1, 2, 3, 4)},
		{"use_double_buffer", ints(0)},
		{"power_scale", ints(1)},
		{"version", ints(0)},
	}, []string{
		"temporal_tiling_factor % loop_unroll_factor_t == 0",
		"block_size_x * block_size_y >= 32",
		"block_size_x * block_size_y <= 1024",
		"(block_size_x * tile_size_x + temporal_tiling_factor * 2) * " +
			"(block_size_y * tile_size_y + temporal_tiling_factor * 2) * " +
			"(2 + sh_power) * 4 <= 40960",
		"block_size_x * block_size_y * blocks_per_sm <= 2048",
	})
}

// TestHotspotPlanShape pins the walk-plan moves on Hotspot's hottest
// depths: the divisibility check at loop_unroll_factor_t becomes a
// survivor table keyed on temporal_tiling_factor, the shared-memory
// product becomes a cut-off at tile_size_y and an envelope cut-off at
// tile_size_x, and the product block starts at tile_size_y.
func TestHotspotPlanShape(t *testing.T) {
	p := hotspotProblem(t)
	c := p.Compile(DefaultOptions())
	depth := func(name string) int { return c.pos[p.nameIdx[name]] }

	luf := c.plan[depth("loop_unroll_factor_t")]
	if len(luf.keys) != 1 || luf.keys[0] != depth("temporal_tiling_factor") || len(luf.cut)+len(luf.prog) != 0 {
		t.Fatalf("loop_unroll_factor_t plan: keys %v, %d cut, %d per candidate; want one table keyed on temporal_tiling_factor",
			luf.keys, len(luf.cut), len(luf.prog))
	}
	ty := c.plan[depth("tile_size_y")]
	if len(ty.cut) != 1 || ty.cut[0].op != opNumCmp || len(ty.prog) != 0 {
		t.Fatalf("tile_size_y plan: %d cut, %d per candidate; want the shared-memory opNumCmp as its one cut-off",
			len(ty.cut), len(ty.prog))
	}
	tx := c.plan[depth("tile_size_x")]
	if tx.envelopes != 1 || len(tx.cut) != 1 || tx.cut[0].op != opNumCmp || len(tx.prog) != 0 {
		t.Fatalf("tile_size_x plan: %d cut (%d envelopes), %d per candidate; want the shared-memory envelope as its one cut-off",
			len(tx.cut), tx.envelopes, len(tx.prog))
	}
	for _, vi := range tx.cut[0].vars {
		if c.pos[vi] > depth("tile_size_x") {
			t.Fatalf("tile_size_x's envelope reads %s, which is assigned later", c.names[vi])
		}
	}
	if c.prodFrom != depth("tile_size_y") {
		t.Fatalf("product depth %d, want tile_size_y's %d", c.prodFrom, depth("tile_size_y"))
	}
	assertColumnarEqualRef(t, c, "hotspot")
}

// chargedTailNodes is the node charge of one bulk block: the loop
// iterations a per-node walk would spend below the deepest constrained
// depth.
func chargedTailNodes(c *Compiled) int64 {
	tail := int64(0)
	for d := len(c.order) - 1; d >= c.tailStart; d-- {
		tail = int64(len(c.doms[d])) * (1 + tail)
	}
	return tail
}

// TestPlanStopAndProgress checks that a walk made mostly of survivor
// iterations still polls stop every window, stops at the first true
// poll, and that a completed run's progress totals equal the charged
// nodes and the rows.
func TestPlanStopAndProgress(t *testing.T) {
	c := hotspotProblem(t).Compile(DefaultOptions())
	tail := chargedTailNodes(c)

	var ps ProgressSink
	col, es, canceled := c.SolveColumnarStatsSink(nil, &ps)
	if canceled {
		t.Fatal("uncancelled run reported canceled")
	}
	if got, want := ps.Nodes.Load(), es.Nodes+es.Blocks*tail; got != want {
		t.Fatalf("progress sink saw %d nodes, run charged %d", got, want)
	}
	if got, want := ps.Rows.Load(), int64(col.NumSolutions()); got != want {
		t.Fatalf("progress sink saw %d rows, run emitted %d", got, want)
	}

	const firePoll = 40
	var live ProgressSink
	var seen []int64
	_, _, canceled = c.SolveColumnarStatsSink(func() bool {
		seen = append(seen, live.Nodes.Load())
		return len(seen) > firePoll
	}, &live)
	if !canceled {
		t.Fatal("firing stop did not cancel")
	}
	if len(seen) != firePoll+1 {
		t.Fatalf("stop polled %d times after firing at poll %d", len(seen), firePoll+1)
	}
	if seen[firePoll] >= ps.Nodes.Load() {
		t.Fatalf("stop fired only after the whole walk (%d of %d nodes)", seen[firePoll], ps.Nodes.Load())
	}
	for i := 1; i < len(seen); i++ {
		if gap := seen[i] - seen[i-1]; gap > stopCheckMask+1+tail {
			t.Fatalf("polls %d and %d are %d charged nodes apart; the window is %d", i-1, i, gap, stopCheckMask+1)
		}
	}
	if got := live.Nodes.Load(); got != seen[firePoll] {
		t.Fatalf("%d nodes charged after the firing poll", got-seen[firePoll])
	}
}
