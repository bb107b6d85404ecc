package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"searchspace/internal/value"
)

// assertColumnarEqualRef pins the kernel's columnar output cell-for-cell
// against the retired closure-based reference enumerator.
func assertColumnarEqualRef(t *testing.T, c *Compiled, label string) int64 {
	t.Helper()
	ref, refNodes, canceled := c.SolveColumnarRef(nil)
	if canceled {
		t.Fatalf("%s: reference run canceled without a stop", label)
	}
	got := c.SolveColumnar()
	assertSameColumnar(t, ref, got)
	return refNodes
}

// TestKernelMatchesReferenceRandom cross-validates the instruction-table
// kernel against the closure reference on randomly generated problems
// covering every compiled shape (products, sums, divides, comparisons,
// repeated variables) — output must be byte-identical, not just
// set-equal.
func TestKernelMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pool := []string{
		"%s * %s <= %d",
		"%s * %s >= %d",
		"%s + %s <= %d",
		"%s + %s > %d",
		"%s %% %s == 0",
		"%s <= %s",
		"%s != %s",
		"%s == %s",
		"%s * %s * %s <= %d",
		"%s * 2 + %s <= %d",
	}
	for trial := 0; trial < 40; trial++ {
		nvars := 2 + rng.Intn(4)
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
		// Leave some variables unconstrained on purpose so the bulk tail
		// path triggers on a fraction of the trials.
		ncons := 1 + rng.Intn(2)
		cons := make([]string, ncons)
		for i := range cons {
			tmpl := pool[rng.Intn(len(pool))]
			n := strings.Count(tmpl, "%s")
			args := make([]any, 0, n+1)
			for j := 0; j < n; j++ {
				args = append(args, names[rng.Intn(nvars)])
			}
			if strings.Contains(tmpl, "%d") {
				args = append(args, rng.Intn(60)+1)
			}
			cons[i] = fmt.Sprintf(tmpl, args...)
		}
		p := buildProblem(t, vars, cons)
		assertColumnarEqualRef(t, p.Compile(DefaultOptions()), fmt.Sprintf("trial %d: %v", trial, cons))
	}
}

// TestKernelMatchesReferenceAblations runs the kernel-vs-reference
// parity under every Options combination, since partial-check and
// ordering toggles change which instructions exist at which depth.
func TestKernelMatchesReferenceAblations(t *testing.T) {
	vars := []varDef{
		{"a", rangeInts(1, 12)},
		{"b", rangeInts(1, 10)},
		{"c", ints(1, 2, 4, 8)},
		{"d", rangeInts(0, 5)},
		{"e", ints(3, 7)}, // unconstrained: exercises the tail
	}
	cons := []string{
		"a * b <= 40",
		"a % c == 0",
		"d <= b",
		"a + b + d < 20",
	}
	for mask := 0; mask < 8; mask++ {
		opt := Options{
			SortVariables: mask&1 != 0,
			Preprocess:    mask&2 != 0,
			PartialChecks: mask&4 != 0,
		}
		p := buildProblem(t, vars, cons)
		assertColumnarEqualRef(t, p.Compile(opt), fmt.Sprintf("options %+v", opt))
	}
}

// TestKernelExtraConstraints covers the instruction shapes the random
// expression pool cannot produce: AllDifferent, AllEqual, ExactSum, and
// the Go-func escape hatch.
func TestKernelExtraConstraints(t *testing.T) {
	mk := func() *Problem {
		p := NewProblem()
		for _, v := range []varDef{
			{"w", rangeInts(1, 6)}, {"x", rangeInts(1, 6)},
			{"y", rangeInts(1, 6)}, {"z", rangeInts(1, 6)},
			{"free", ints(0, 1, 2)},
		} {
			if err := p.AddVariable(v.name, v.dom); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}

	p := mk()
	if err := p.AllDifferent([]string{"w", "x", "y"}); err != nil {
		t.Fatal(err)
	}
	assertColumnarEqualRef(t, p.Compile(DefaultOptions()), "alldiff")

	p = mk()
	if err := p.AllEqual([]string{"x", "y", "z"}); err != nil {
		t.Fatal(err)
	}
	assertColumnarEqualRef(t, p.Compile(DefaultOptions()), "allequal")

	p = mk()
	if err := p.ExactSum(9, []string{"w", "x", "y", "z"}); err != nil {
		t.Fatal(err)
	}
	assertColumnarEqualRef(t, p.Compile(DefaultOptions()), "exactsum")

	p = mk()
	if err := p.AddGoFunc([]string{"w", "z"}, func(vals []value.Value) bool {
		return (vals[0].Int()+vals[1].Int())%3 != 0
	}); err != nil {
		t.Fatal(err)
	}
	assertColumnarEqualRef(t, p.Compile(DefaultOptions()), "gofunc")
}

// TestKernelDividesValueFallback forces the generic value.Mod divides
// path: a float domain with non-integral values cannot use the exact
// integer views.
func TestKernelDividesValueFallback(t *testing.T) {
	p := NewProblem()
	if err := p.AddVariable("n", []value.Value{
		value.OfFloat(6), value.OfFloat(6.5), value.OfFloat(12),
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddVariable("d", []value.Value{
		value.OfFloat(2), value.OfFloat(3.25), value.OfFloat(0),
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraintString("n % d == 0"); err != nil {
		t.Fatal(err)
	}
	c := p.Compile(DefaultOptions())
	found := false
	for _, prog := range c.prog {
		for _, ins := range prog {
			if ins.op == opDividesVal {
				found = true
			}
			if ins.op == opDividesInt {
				t.Fatal("non-integral float domains must not take the integer divides path")
			}
		}
	}
	if !found {
		t.Fatal("expected an opDividesVal instruction")
	}
	assertColumnarEqualRef(t, c, "divides-float")
}

// TestTailExpansion pins the bulk path: with the last k solve-order
// variables unconstrained, the kernel must emit whole cartesian blocks
// (Blocks > 0, BlockRows == all rows), visit far fewer nodes than the
// per-node reference, and still match it byte for byte.
func TestTailExpansion(t *testing.T) {
	vars := []varDef{
		{"a", rangeInts(1, 6)},
		{"b", rangeInts(1, 5)},
		{"c", ints(10, 20, 30)},
		{"d", rangeInts(1, 4)},
		{"e", rangeInts(0, 4)},
	}
	p := buildProblem(t, vars, []string{"a * b <= 15"})
	c := p.Compile(DefaultOptions())
	if c.tailStart != 2 {
		t.Fatalf("tailStart = %d, want 2 (a and b constrained, c/d/e free)", c.tailStart)
	}
	refNodes := assertColumnarEqualRef(t, c, "tail")

	col, es, canceled := c.SolveColumnarStatsSink(nil, nil)
	if canceled {
		t.Fatal("uncancelled run reported canceled")
	}
	rows := int64(col.NumSolutions())
	if es.Blocks == 0 || es.BlockRows != rows {
		t.Fatalf("stats = %+v; every row should arrive via bulk blocks (rows=%d)", es, rows)
	}
	// Each surviving (a,b) prefix would have cost the per-node walk a
	// 3*4*5-node subtree (plus pops); the kernel pays one block.
	if es.Nodes+es.Blocks >= refNodes {
		t.Fatalf("kernel visited %d nodes + %d blocks, reference visited %d; tail expansion should slash visits",
			es.Nodes, es.Blocks, refNodes)
	}
}

// TestTailExpansionUnconstrainedSpace covers the degenerate tail: no
// runtime constraints at all, so the whole space is one cartesian block.
func TestTailExpansionUnconstrainedSpace(t *testing.T) {
	p := buildProblem(t, []varDef{
		{"x", ints(1, 2, 3)}, {"y", ints(4, 5)}, {"z", ints(6, 7)},
	}, nil)
	c := p.Compile(DefaultOptions())
	if c.tailStart != 0 {
		t.Fatalf("tailStart = %d, want 0", c.tailStart)
	}
	assertColumnarEqualRef(t, c, "fully-unconstrained")
	_, es, _ := c.SolveColumnarStatsSink(nil, nil)
	if es.Blocks != 1 || es.BlockRows != 12 || es.Nodes != 0 {
		t.Fatalf("stats = %+v; want exactly one 12-row block and zero walked nodes", es)
	}
}

// TestTailExpansionCancellation fires stop against a bulk-heavy space
// and requires prompt cancellation through both the walk and the
// block-emission path.
func TestTailExpansionCancellation(t *testing.T) {
	vars := []varDef{
		{"a", rangeInts(1, 20)},
		{"b", rangeInts(1, 20)},
		{"c", rangeInts(1, 20)},
		{"d", rangeInts(1, 20)},
	}
	p := buildProblem(t, vars, []string{"a + b <= 21"})
	c := p.Compile(DefaultOptions())

	polls := 0
	_, canceled := c.SolveColumnarStop(func() bool { polls++; return polls > 2 })
	if !canceled {
		t.Fatal("firing stop did not cancel the bulk enumeration")
	}
	// Pre-fired stop on a fully unconstrained space: the single-block
	// path must also poll before emitting.
	p2 := buildProblem(t, vars, nil)
	_, canceled = p2.Compile(DefaultOptions()).SolveColumnarStop(func() bool { return true })
	if !canceled {
		t.Fatal("always-true stop did not cancel the single-block path")
	}
}

// TestSinkReuseAcrossTasks drives the exec path (which reuses each
// worker's sink across prefix tasks) on a tail-heavy space and checks
// byte parity with the sequential kernel and the reference.
func TestSinkReuseAcrossTasks(t *testing.T) {
	vars := []varDef{
		{"a", rangeInts(1, 9)},
		{"b", rangeInts(1, 8)},
		{"c", ints(1, 2, 3)},
		{"d", rangeInts(0, 6)},
	}
	p := buildProblem(t, vars, []string{"a * b <= 24"})
	c := p.Compile(DefaultOptions())
	ref, _, _ := c.SolveColumnarRef(nil)
	for _, workers := range []int{2, 5, 16} {
		par, canceled := c.SolveColumnarExec(Exec{Workers: workers})
		if canceled {
			t.Fatalf("workers=%d: uncancelled run reported canceled", workers)
		}
		assertSameColumnar(t, ref, par)
	}
}

// TestSinkChunkBoundaries writes rows through the chunked sink and reads
// them back with copyRows, whole and in ranges that cross chunk ends: a
// block that would straddle a chunk end opens the next chunk, a block
// larger than a chunk gets its own, many chunks keep their order, and a
// reset sink reused for new rows returns none of the old ones.
func TestSinkChunkBoundaries(t *testing.T) {
	const nvars = 3
	s := newSink(nvars)
	var want [][nvars]int32
	put := func(rows int, seed int32) {
		buf, stride, base := s.reserve(rows)
		for r := 0; r < rows; r++ {
			var row [nvars]int32
			for vi := range row {
				row[vi] = seed + int32(len(want))*int32(vi+1)
				buf[vi*stride+base+r] = row[vi]
			}
			want = append(want, row)
		}
	}
	check := func(label string) {
		t.Helper()
		if s.rows != len(want) {
			t.Fatalf("%s: sink holds %d rows, wrote %d", label, s.rows, len(want))
		}
		rng := rand.New(rand.NewSource(int64(len(want))))
		ranges := [][2]int{{0, len(want)}}
		for i := 0; i < 50; i++ {
			from := rng.Intn(len(want) + 1)
			ranges = append(ranges, [2]int{from, from + rng.Intn(len(want)-from+1)})
		}
		for _, rg := range ranges {
			cols := make([][]int32, nvars)
			for vi := range cols {
				cols[vi] = make([]int32, rg[1]-rg[0]+2)
				cols[vi][0], cols[vi][len(cols[vi])-1] = -7, -7
			}
			s.copyRows(cols, 1, rg[0], rg[1])
			for r := rg[0]; r < rg[1]; r++ {
				for vi := range cols {
					if got := cols[vi][1+r-rg[0]]; got != want[r][vi] {
						t.Fatalf("%s: rows %v: row %d col %d = %d, want %d", label, rg, r, vi, got, want[r][vi])
					}
				}
			}
			for vi := range cols {
				if cols[vi][0] != -7 || cols[vi][len(cols[vi])-1] != -7 {
					t.Fatalf("%s: rows %v: copy wrote outside its window", label, rg)
				}
			}
		}
	}

	put(s.chunkRows-5, 1)
	put(10, 1) // does not fit the 5 rows left: opens the second chunk
	if len(s.chunks) != 2 || s.chunks[0].rows != s.chunkRows-5 || s.chunks[1].start != s.chunkRows-5 {
		t.Fatalf("straddling block: chunks %d, first holds %d rows", len(s.chunks), s.chunks[0].rows)
	}
	check("straddle")
	put(3*s.chunkRows, 1) // larger than a chunk: its own exact chunk
	big := s.chunks[len(s.chunks)-1]
	if big.pooled != nil || big.stride != 3*s.chunkRows || len(big.buf) != nvars*3*s.chunkRows {
		t.Fatalf("oversize block: pooled %v, stride %d, %d cells", big.pooled != nil, big.stride, len(big.buf))
	}
	put(1, 1) // the oversize chunk is full: the next row opens a pooled one
	if last := s.chunks[len(s.chunks)-1]; last.pooled == nil || last.rows != 1 {
		t.Fatal("row after an oversize block did not open a pooled chunk")
	}
	for i := 0; i < 400; i++ {
		put(1+(i*7919)%997, 1)
	}
	if len(s.chunks) < 10 {
		t.Fatalf("only %d chunks after many blocks", len(s.chunks))
	}
	check("many chunks")

	s.reset()
	if s.rows != 0 || len(s.chunks) != 0 {
		t.Fatalf("reset left %d rows in %d chunks", s.rows, len(s.chunks))
	}
	want = want[:0]
	for i := 0; i < 60; i++ {
		put(1+(i*131)%2003, -1000)
	}
	check("reuse after reset")
}

// TestOutputExactBacking pins the output layout on Hotspot, sequential
// and with 7 workers: every column is a window of one nvars×rows
// backing array at stride rows, so a result holds exactly the bytes its
// rows need.
func TestOutputExactBacking(t *testing.T) {
	c := hotspotProblem(t).Compile(DefaultOptions())
	par, canceled := c.SolveColumnarExec(Exec{Workers: 7})
	if canceled {
		t.Fatal("uncancelled run reported canceled")
	}
	for label, col := range map[string]*Columnar{"sequential": c.SolveColumnar(), "7 workers": par} {
		n := col.NumSolutions()
		if n != 347628 {
			t.Fatalf("%s: %d rows, want Hotspot's 347628", label, n)
		}
		for i, colI := range col.Cols {
			if len(colI) != n || cap(colI) != n {
				t.Fatalf("%s: column %d has length %d, capacity %d; want %d", label, i, len(colI), cap(colI), n)
			}
			if i+1 == len(col.Cols) {
				break
			}
			next, want := unsafe.Pointer(&col.Cols[i+1][0]), unsafe.Add(unsafe.Pointer(&colI[0]), 4*n)
			if next != want {
				t.Fatalf("%s: column %d starts %d bytes after column %d; want stride %d rows in one backing of %d×%d",
					label, i+1, uintptr(next)-uintptr(unsafe.Pointer(&colI[0])), i, n, len(col.Cols), n)
			}
		}
	}
}

// hasOp reports whether any compiled depth carries an instruction of
// the given op.
func hasOp(c *Compiled, op opCode) bool {
	for _, prog := range c.prog {
		for _, ins := range prog {
			if ins.op == op {
				return true
			}
		}
	}
	return false
}

// TestNumCmpCompilesProductOfSums pins that Hotspot's shared-memory
// constraint shape — a comparison over a product of sums, which the
// specific-constraint analysis cannot claim — compiles to the numeric
// RPN instruction rather than the predicate escape hatch, and matches
// the reference byte for byte.
func TestNumCmpCompilesProductOfSums(t *testing.T) {
	vars := []varDef{
		{"bx", ints(1, 2, 4, 8, 16, 32)},
		{"tx", rangeInts(1, 6)},
		{"by", ints(1, 2, 4, 8)},
		{"ty", rangeInts(1, 6)},
		{"t", rangeInts(1, 4)},
	}
	cons := []string{"(bx * tx + t * 2) * (by * ty + t * 2) * 4 <= 2048"}
	p := buildProblem(t, vars, cons)
	c := p.Compile(DefaultOptions())
	if !hasOp(c, opNumCmp) {
		t.Fatal("product-of-sums comparison should compile to opNumCmp")
	}
	if hasOp(c, opPred) {
		t.Fatal("no predicate escape hatch expected here")
	}
	assertColumnarEqualRef(t, c, "product-of-sums")
}

// TestNumCmpModByZeroNe guards the NaN rejection: with a zero divisor
// in the domain, `a % b != 0` must reject the b == 0 rows (the value
// interpreter errors there), not accept them via NaN != 0.
func TestNumCmpModByZeroNe(t *testing.T) {
	vars := []varDef{
		{"a", ints(-7, -3, 0, 3, 7)},
		{"b", ints(-3, 0, 2, 5)},
		{"pad", ints(1, 2)},
	}
	for _, con := range []string{"a % b != 0", "a % b == 0", "a % b >= 1", "(a % b) + 1 != 1"} {
		p := buildProblem(t, vars, []string{con})
		c := p.Compile(DefaultOptions())
		// "a % b == 0" is claimed by the specific divides constraint;
		// the other shapes must land on the numeric RPN path.
		if !hasOp(c, opNumCmp) && !hasOp(c, opDividesInt) {
			t.Fatalf("%s: expected opNumCmp or opDividesInt", con)
		}
		assertColumnarEqualRef(t, c, con)
		// Independent ground truth, not just the closure reference.
		got := p.solveTuples(c)
		want := bruteRef(t, vars, []string{con})
		assertSameSolutions(t, got, want, con)
	}
}

// TestNumCmpChainedAndNegatives covers chained comparison links and
// negative-domain arithmetic on the RPN path.
func TestNumCmpChainedAndNegatives(t *testing.T) {
	vars := []varDef{
		{"x", ints(-6, -2, 0, 3, 5)},
		{"y", ints(-4, -1, 2, 6)},
		{"z", rangeInts(1, 5)},
	}
	cons := []string{"-10 <= x * y - z <= 12", "x + y != z - 4"}
	p := buildProblem(t, vars, cons)
	c := p.Compile(DefaultOptions())
	if !hasOp(c, opNumCmp) {
		t.Fatal("expected opNumCmp instructions")
	}
	assertColumnarEqualRef(t, c, "chained")
	assertSameSolutions(t, p.solveTuples(c), bruteRef(t, vars, cons), "chained ground truth")
}

// TestNumCmpFallbacks pins the eligibility fence: shapes where float64
// arithmetic cannot be proven exact (huge magnitudes, float literals or
// domains, division, boolean logic) must stay on the predicate escape
// hatch — correctness before speed.
func TestNumCmpFallbacks(t *testing.T) {
	big := int64(1) << 40 // (2^40)^2 = 2^80 overflows exact float range
	cases := []struct {
		name string
		vars []varDef
		con  string
	}{
		{"overflow", []varDef{
			{"a", []value.Value{value.OfInt(big), value.OfInt(big + 1)}},
			{"b", []value.Value{value.OfInt(big), value.OfInt(big + 3)}},
		}, "a * b >= 0"},
		{"float-literal", []varDef{
			{"a", ints(1, 2, 3)}, {"b", ints(1, 2)},
		}, "a * b <= 4.5"},
		{"float-domain", []varDef{
			{"a", []value.Value{value.OfFloat(0.5), value.OfFloat(1.5)}},
			{"b", ints(1, 2)},
		}, "a + b <= 2.5"},
		{"division", []varDef{
			{"a", ints(1, 2, 4)}, {"b", ints(1, 2)},
		}, "a // b >= 1"},
		{"boolop", []varDef{
			{"a", ints(1, 2, 4)}, {"b", ints(1, 2)},
		}, "a >= 2 or b == 1"},
	}
	for _, tc := range cases {
		p := buildProblem(t, tc.vars, []string{tc.con})
		c := p.Compile(DefaultOptions())
		if hasOp(c, opNumCmp) {
			t.Fatalf("%s: %q must not take the numeric fast path", tc.name, tc.con)
		}
		assertColumnarEqualRef(t, c, tc.name)
	}
}
