package core

import (
	"math"
	"sort"
	"sync"

	"searchspace/internal/expr"
	"searchspace/internal/value"
)

// entry is one remaining candidate value of a pruned domain.
type entry struct {
	val   value.Value
	num   float64 // float view; NaN when not numeric
	isNum bool
	isInt bool
	i     int64 // integer view when isInt
	orig  int32 // index into the originally declared domain
}

// state is the solver's mutable assignment: value, float, and integer
// views indexed by problem variable index, the reusable output row, the
// walk's trial stack, and a scratch buffer for Go-func constraints. pos
// and surv, indexed by depth, hold the columnar walk's assigned domain
// positions and the candidate lists it iterates (see depthPlan).
// batched and declined tally leaf-depth entries emitted as one batch and
// entries walked per node because a batch would have crossed a poll
// point; the plan tests read them.
type state struct {
	vals              []value.Value
	nums              []float64
	ints              []int64
	idx               []int32
	trial             []int
	pos               []int
	surv              [][]int32
	scratch           []value.Value
	batched, declined int
}

// newState allocates one enumeration's (or one worker's) scratch state.
// The value views are sized by the problem's variables and the walk
// stacks by the depths: a component's sub-Compiled (product.go) walks a
// subset of the depths but reads variables by their problem index.
func (c *Compiled) newState() *state {
	nv, n := len(c.names), len(c.order)
	return &state{
		vals:    make([]value.Value, nv),
		nums:    make([]float64, nv),
		ints:    make([]int64, nv),
		idx:     make([]int32, nv),
		trial:   make([]int, n),
		pos:     make([]int, n),
		surv:    make([][]int32, n),
		scratch: make([]value.Value, c.maxArgs),
	}
}

// Compiled is a problem prepared for solving: domains pruned by the
// preprocessing passes, variables ordered, and per-depth instruction
// tables built (§4.3). The retained runtime constraints and options
// back the closure-based reference enumerator (ref.go) that the parity
// suites compare against.
type Compiled struct {
	names []string
	order []int // position (depth) -> variable index
	pos   []int // variable index -> position
	doms  [][]entry
	// prog[d] is the instruction table run when depth d's variable is
	// assigned: partial-assignment rejections first, then the
	// constraints that become fully assigned exactly at depth d.
	prog [][]instr
	// tailStart is one past the deepest depth carrying any instruction;
	// every variable at depth >= tailStart is unconstrained, so the
	// kernel emits those depths as bulk cartesian blocks.
	tailStart int
	// plan[d], for each depth below tailStart, is how the columnar
	// kernel walks depth d: survivor tables and cut-offs derived from
	// prog[d] (plan.go).
	plan []depthPlan
	// product, when set, is the component split the columnar solvers
	// take instead of the joint walk (product.go).
	product *productPlan
	empty   bool
	maxArgs int
	cons    []*constraint
	opt     Options
	// Memoized closure form of the checks for the reference enumerator
	// (ref.go); never touched on the kernel's hot path.
	refOnce sync.Once
	ref     *refChecks
}

// Options tunes which optimizations Compile applies, so the evaluation can
// ablate them individually (the "optimized vs original" axis of §5).
type Options struct {
	// SortVariables orders variables by descending constraint degree
	// (§4.3.1); when false, definition order is kept.
	SortVariables bool
	// Preprocess runs the specific-constraint domain pruning of §4.3.2.
	Preprocess bool
	// PartialChecks registers early rejection checks for partially
	// assigned specific constraints.
	PartialChecks bool
}

// DefaultOptions enables every optimization; this is the configuration the
// paper calls "optimized".
func DefaultOptions() Options {
	return Options{SortVariables: true, Preprocess: true, PartialChecks: true}
}

// Compile prepares the problem for enumeration with the given options.
func (p *Problem) Compile(opt Options) *Compiled {
	n := len(p.names)
	c := &Compiled{
		names: append([]string(nil), p.names...),
		order: make([]int, n),
		pos:   make([]int, n),
		opt:   opt,
	}
	if p.unsat || n == 0 {
		c.empty = true
		return c
	}

	// Materialize working domains.
	doms := make([][]entry, n)
	for vi, d := range p.domains {
		es := make([]entry, len(d))
		for k, v := range d {
			es[k] = makeEntry(v, int32(k))
		}
		doms[vi] = es
	}

	// Unary constraints become domain prefilters; the rest are runtime
	// constraints.
	var runtime []*constraint
	st := &state{vals: make([]value.Value, n), nums: make([]float64, n)}
	for _, con := range p.cons {
		if con.kind == conUnary {
			vi := con.vars[0]
			doms[vi] = filterEntries(doms[vi], func(e entry) bool {
				st.vals[vi] = e.val
				ok, err := con.pred(st.vals)
				return err == nil && ok
			})
			continue
		}
		runtime = append(runtime, con)
	}

	if opt.Preprocess {
		preprocess(runtime, doms)
	}

	for _, d := range doms {
		if len(d) == 0 {
			c.empty = true
			return c
		}
	}

	// Variable ordering (§4.3.1): descending number of involved
	// constraints, then ascending domain size, then definition order.
	for i := range c.order {
		c.order[i] = i
	}
	if opt.SortVariables {
		degree := make([]int, n)
		for _, con := range runtime {
			for _, vi := range con.vars {
				degree[vi]++
			}
		}
		sort.SliceStable(c.order, func(a, b int) bool {
			va, vb := c.order[a], c.order[b]
			if degree[va] != degree[vb] {
				return degree[va] > degree[vb]
			}
			if len(doms[va]) != len(doms[vb]) {
				return len(doms[va]) < len(doms[vb])
			}
			return va < vb
		})
	}
	for d, vi := range c.order {
		c.pos[vi] = d
	}

	// Domains in solve order.
	c.doms = make([][]entry, n)
	for d, vi := range c.order {
		c.doms[d] = doms[vi]
	}
	c.cons = runtime

	// Lower every runtime constraint into per-depth instruction tables:
	// a constraint's full check lands at the solve position of its
	// deepest variable; partial checks land at the shallower positions
	// they can already reject at. Partials run before fulls at each
	// depth, matching the retired closure lists.
	partials := make([][]instr, n)
	fulls := make([][]instr, n)
	for _, con := range runtime {
		if len(con.argIdx) > c.maxArgs {
			c.maxArgs = len(con.argIdx)
		}
		last := 0
		for _, vi := range con.vars {
			if c.pos[vi] > last {
				last = c.pos[vi]
			}
		}
		fulls[last] = append(fulls[last], fullInstr(con, doms, p.nameIdx))
		if opt.PartialChecks {
			c.buildPartialInstrs(partials, con, doms)
		}
	}
	c.prog = make([][]instr, n)
	for d := 0; d < n; d++ {
		c.prog[d] = append(partials[d], fulls[d]...)
		if len(c.prog[d]) > 0 {
			c.tailStart = d + 1
		}
	}
	c.buildPlan()
	c.buildProduct()
	return c
}

// Order returns a copy of the solve-order permutation: position
// (depth) -> variable index, depth 0 slowest-varying in the emitted
// row order. The restrict path uses it as the target sort order when
// reproducing this compilation's emission order from filtered rows.
func (c *Compiled) Order() []int {
	return append([]int(nil), c.order...)
}

// Empty reports whether compilation proved the space empty (constant-
// false constraint or a domain pruned to nothing). When true, the
// order permutation is meaningless — there are no rows to order.
func (c *Compiled) Empty() bool { return c.empty }

func makeEntry(v value.Value, orig int32) entry {
	e := entry{val: v, orig: orig, num: math.NaN()}
	if v.IsNumeric() {
		e.isNum = true
		e.num = v.Float()
		if v.Kind() != value.Float {
			e.isInt = true
			e.i = v.Int()
		} else if f := v.Float(); f == math.Trunc(f) && math.Abs(f) < 1e15 {
			e.isInt = true
			e.i = int64(f)
		}
	}
	return e
}

func filterEntries(es []entry, keep func(entry) bool) []entry {
	out := es[:0]
	for _, e := range es {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// allNumeric reports whether every remaining value of each involved
// variable is numeric; allPositive additionally requires strictly positive.
func domainsNumeric(doms [][]entry, vars []int) (numeric, positive bool) {
	numeric, positive = true, true
	for _, vi := range vars {
		for _, e := range doms[vi] {
			if !e.isNum {
				return false, false
			}
			if e.num <= 0 {
				positive = false
			}
		}
	}
	return numeric, positive
}

func domainMinMax(dom []entry) (mn, mx float64) {
	mn, mx = math.Inf(1), math.Inf(-1)
	for _, e := range dom {
		if e.num < mn {
			mn = e.num
		}
		if e.num > mx {
			mx = e.num
		}
	}
	return mn, mx
}

// buildPartialInstrs lowers one specific constraint's early rejection
// checks into typed instructions. A partial check at depth d
// conservatively asks: given the operands assigned so far and the best
// possible completion from the remaining domains, can the constraint
// still hold?
func (c *Compiled) buildPartialInstrs(partials [][]instr, con *constraint, doms [][]entry) {
	switch con.kind {
	case conMaxProd, conMinProd:
		numeric, positive := domainsNumeric(doms, con.vars)
		if !numeric || !positive {
			return // interval reasoning needs all-positive domains
		}
		c.buildProdPartials(partials, con, doms)
	case conMaxSum, conMinSum:
		numeric, _ := domainsNumeric(doms, con.vars)
		if !numeric {
			return
		}
		c.buildSumPartials(partials, con, doms)
	case conExactSum:
		numeric, _ := domainsNumeric(doms, con.vars)
		if !numeric {
			return
		}
		c.buildExactSumPartials(partials, con, doms)
	case conAllDiff:
		c.buildAllDiffPartials(partials, con)
	case conAllEqual:
		c.buildAllEqualPartials(partials, con)
	}
}

// buildExactSumPartials registers the two-sided feasibility check: the
// partial sum plus the minimum (maximum) achievable completion must not
// already exceed (fall short of) the target.
func (c *Compiled) buildExactSumPartials(partials [][]instr, con *constraint, doms [][]entry) {
	depths, occs := c.argsByDepth(con)
	if len(depths) < 2 {
		return
	}
	minC := make([]float64, len(depths))
	maxC := make([]float64, len(depths))
	accMin, accMax := 0.0, 0.0
	for i := len(depths) - 1; i >= 0; i-- {
		minC[i], maxC[i] = accMin, accMax
		for _, k := range occs[i] {
			mn, mx := domainMinMax(doms[con.argIdx[k]])
			accMin += mn
			accMax += mx
		}
	}
	for i := 0; i < len(depths)-1; i++ {
		var prefix []int
		for j := 0; j <= i; j++ {
			for _, k := range occs[j] {
				prefix = append(prefix, con.argIdx[k])
			}
		}
		partials[depths[i]] = append(partials[depths[i]], instr{
			op: opSumFeas, vars: prefix, bound: con.bound, base: minC[i], hi: maxC[i],
		})
	}
}

// buildAllDiffPartials rejects as soon as two assigned variables collide.
func (c *Compiled) buildAllDiffPartials(partials [][]instr, con *constraint) {
	depths, occs := c.argsByDepth(con)
	if len(depths) < 2 {
		return
	}
	for i := 1; i < len(depths)-1; i++ {
		var prefix []int
		for j := 0; j <= i; j++ {
			for _, k := range occs[j] {
				prefix = append(prefix, con.argIdx[k])
			}
		}
		partials[depths[i]] = append(partials[depths[i]], instr{op: opAllDiff, vars: prefix})
	}
}

// buildAllEqualPartials rejects as soon as two assigned variables differ.
func (c *Compiled) buildAllEqualPartials(partials [][]instr, con *constraint) {
	depths, occs := c.argsByDepth(con)
	if len(depths) < 2 {
		return
	}
	for i := 1; i < len(depths)-1; i++ {
		var prefix []int
		for j := 0; j <= i; j++ {
			for _, k := range occs[j] {
				prefix = append(prefix, con.argIdx[k])
			}
		}
		partials[depths[i]] = append(partials[depths[i]], instr{op: opAllEqual, vars: prefix})
	}
}

// argsByDepth groups a constraint's operand occurrences by the solve
// position of their variable, ascending. Returned parallel slices hold the
// positions and, per position, the operand occurrence indexes.
func (c *Compiled) argsByDepth(con *constraint) (depths []int, occs [][]int) {
	byPos := make(map[int][]int)
	for k, vi := range con.argIdx {
		byPos[c.pos[vi]] = append(byPos[c.pos[vi]], k)
	}
	for d := range byPos {
		depths = append(depths, d)
	}
	sort.Ints(depths)
	occs = make([][]int, len(depths))
	for i, d := range depths {
		occs[i] = byPos[d]
	}
	return depths, occs
}

func (c *Compiled) buildProdPartials(partials [][]instr, con *constraint, doms [][]entry) {
	depths, occs := c.argsByDepth(con)
	if len(depths) < 2 {
		return
	}
	isMax := con.kind == conMaxProd
	// extreme[i] = product over occurrences at depths > depths[i] of the
	// per-variable min (for MaxProd) or max (for MinProd) remaining value.
	extreme := make([]float64, len(depths))
	acc := 1.0
	for i := len(depths) - 1; i >= 0; i-- {
		extreme[i] = acc
		for _, k := range occs[i] {
			mn, mx := domainMinMax(doms[con.argIdx[k]])
			if isMax {
				acc *= mn
			} else {
				acc *= mx
			}
		}
	}
	op := opProdMax
	if !isMax {
		op = opProdMin
	}
	// Register a check at every depth but the last (the last is covered by
	// the full check).
	for i := 0; i < len(depths)-1; i++ {
		prefixVars := make([]int, 0)
		for j := 0; j <= i; j++ {
			for _, k := range occs[j] {
				prefixVars = append(prefixVars, con.argIdx[k])
			}
		}
		partials[depths[i]] = append(partials[depths[i]], instr{
			op: op, vars: prefixVars, bound: con.bound, strict: con.strict, base: extreme[i],
		})
	}
}

func (c *Compiled) buildSumPartials(partials [][]instr, con *constraint, doms [][]entry) {
	depths, occs := c.argsByDepth(con)
	if len(depths) < 2 {
		return
	}
	isMax := con.kind == conMaxSum
	// contribution bounds per occurrence: min/max over the domain of
	// coeff*value. Unlike products, this is sign-safe.
	extreme := make([]float64, len(depths))
	acc := 0.0
	for i := len(depths) - 1; i >= 0; i-- {
		extreme[i] = acc
		for _, k := range occs[i] {
			dom := doms[con.argIdx[k]]
			best := math.Inf(1)
			if !isMax {
				best = math.Inf(-1)
			}
			for _, e := range dom {
				contrib := con.coeffs[k] * e.num
				if isMax && contrib < best {
					best = contrib
				}
				if !isMax && contrib > best {
					best = contrib
				}
			}
			acc += best
		}
	}
	op := opSumMax
	if !isMax {
		op = opSumMin
	}
	for i := 0; i < len(depths)-1; i++ {
		var prefixVars []int
		var prefixCoeffs []float64
		for j := 0; j <= i; j++ {
			for _, k := range occs[j] {
				prefixVars = append(prefixVars, con.argIdx[k])
				prefixCoeffs = append(prefixCoeffs, con.coeffs[k])
			}
		}
		partials[depths[i]] = append(partials[depths[i]], instr{
			op: op, vars: prefixVars, coeffs: prefixCoeffs,
			bound: con.bound, strict: con.strict, base: extreme[i],
		})
	}
}

// preprocess runs the specific-constraint domain pruning passes to a
// fixpoint (§4.3.2): values that cannot participate in any satisfying
// assignment of a single constraint are removed before search.
func preprocess(cons []*constraint, doms [][]entry) {
	for iter := 0; iter < 20; iter++ {
		changed := false
		for _, con := range cons {
			if pruneConstraint(con, doms) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

func pruneConstraint(con *constraint, doms [][]entry) bool {
	switch con.kind {
	case conMaxProd, conMinProd:
		return pruneProd(con, doms)
	case conMaxSum, conMinSum:
		return pruneSum(con, doms)
	case conVarCmp:
		return pruneVarCmp(con, doms)
	case conDivides:
		return pruneDivides(con, doms)
	case conAllEqual:
		return pruneAllEqual(con, doms)
	case conExactSum:
		return pruneExactSum(con, doms)
	}
	return false
}

// pruneAllEqual keeps only values present in every involved domain.
func pruneAllEqual(con *constraint, doms [][]entry) bool {
	counts := make(map[string]int)
	for _, vi := range con.vars {
		seen := make(map[string]struct{})
		for _, e := range doms[vi] {
			if _, dup := seen[e.val.Key()]; !dup {
				seen[e.val.Key()] = struct{}{}
				counts[e.val.Key()]++
			}
		}
	}
	changed := false
	for _, vi := range con.vars {
		before := len(doms[vi])
		doms[vi] = filterEntries(doms[vi], func(e entry) bool {
			return counts[e.val.Key()] == len(con.vars)
		})
		changed = changed || len(doms[vi]) != before
	}
	return changed
}

// pruneExactSum removes values that cannot be completed to the exact
// target by any choice of the remaining variables.
func pruneExactSum(con *constraint, doms [][]entry) bool {
	numeric, _ := domainsNumeric(doms, con.vars)
	if !numeric {
		return false
	}
	changed := false
	for _, vi := range con.vars {
		othersMin, othersMax := 0.0, 0.0
		for _, ui := range con.vars {
			if ui == vi {
				continue
			}
			mn, mx := domainMinMax(doms[ui])
			othersMin += mn
			othersMax += mx
		}
		before := len(doms[vi])
		target := con.bound
		doms[vi] = filterEntries(doms[vi], func(e entry) bool {
			return e.num+othersMin <= target && e.num+othersMax >= target
		})
		changed = changed || len(doms[vi]) != before
		if len(doms[vi]) == 0 {
			return true
		}
	}
	return changed
}

// exponents returns the multiplicity of each distinct variable in a
// product constraint.
func exponents(con *constraint) map[int]int {
	exp := make(map[int]int, len(con.vars))
	for _, vi := range con.argIdx {
		exp[vi]++
	}
	return exp
}

func pruneProd(con *constraint, doms [][]entry) bool {
	numeric, positive := domainsNumeric(doms, con.vars)
	if !numeric || !positive {
		return false
	}
	isMax := con.kind == conMaxProd
	exp := exponents(con)
	changed := false
	for _, vi := range con.vars {
		// Best completion by the other variables.
		others := 1.0
		for _, ui := range con.vars {
			if ui == vi {
				continue
			}
			mn, mx := domainMinMax(doms[ui])
			b := mn
			if !isMax {
				b = mx
			}
			others *= math.Pow(b, float64(exp[ui]))
		}
		before := len(doms[vi])
		e := float64(exp[vi])
		bound, strict := con.bound, con.strict
		doms[vi] = filterEntries(doms[vi], func(en entry) bool {
			p := math.Pow(en.num, e) * others
			if isMax {
				if strict {
					return p < bound
				}
				return p <= bound
			}
			if strict {
				return p > bound
			}
			return p >= bound
		})
		if len(doms[vi]) != before {
			changed = true
		}
		if len(doms[vi]) == 0 {
			return true
		}
	}
	return changed
}

func pruneSum(con *constraint, doms [][]entry) bool {
	numeric, _ := domainsNumeric(doms, con.vars)
	if !numeric {
		return false
	}
	isMax := con.kind == conMaxSum
	// Per distinct variable, total coefficient across occurrences.
	coef := make(map[int]float64, len(con.vars))
	for k, vi := range con.argIdx {
		coef[vi] += con.coeffs[k]
	}
	changed := false
	for _, vi := range con.vars {
		others := 0.0
		for _, ui := range con.vars {
			if ui == vi {
				continue
			}
			best := math.Inf(1)
			if !isMax {
				best = math.Inf(-1)
			}
			for _, e := range doms[ui] {
				contrib := coef[ui] * e.num
				if isMax && contrib < best {
					best = contrib
				}
				if !isMax && contrib > best {
					best = contrib
				}
			}
			others += best
		}
		before := len(doms[vi])
		cv, bound, strict := coef[vi], con.bound, con.strict
		doms[vi] = filterEntries(doms[vi], func(en entry) bool {
			s := cv*en.num + others
			if isMax {
				if strict {
					return s < bound
				}
				return s <= bound
			}
			if strict {
				return s > bound
			}
			return s >= bound
		})
		if len(doms[vi]) != before {
			changed = true
		}
		if len(doms[vi]) == 0 {
			return true
		}
	}
	return changed
}

func pruneVarCmp(con *constraint, doms [][]entry) bool {
	a, b := con.argIdx[0], con.argIdx[1]
	numeric, _ := domainsNumeric(doms, con.vars)
	changed := false
	switch con.cmpOp {
	case expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
		if !numeric {
			return false
		}
		op := con.cmpOp
		// Normalize to a OP b with OP in {<, <=}.
		if op == expr.OpGt || op == expr.OpGe {
			a, b = b, a
			op = op.Flip()
		}
		_, bMax := domainMinMax(doms[b])
		aMin, _ := domainMinMax(doms[a])
		before := len(doms[a])
		doms[a] = filterEntries(doms[a], func(e entry) bool {
			if op == expr.OpLt {
				return e.num < bMax
			}
			return e.num <= bMax
		})
		changed = changed || len(doms[a]) != before
		before = len(doms[b])
		doms[b] = filterEntries(doms[b], func(e entry) bool {
			if op == expr.OpLt {
				return e.num > aMin
			}
			return e.num >= aMin
		})
		changed = changed || len(doms[b]) != before
	case expr.OpEq:
		keysA := make(map[string]struct{}, len(doms[a]))
		for _, e := range doms[a] {
			keysA[e.val.Key()] = struct{}{}
		}
		keysB := make(map[string]struct{}, len(doms[b]))
		for _, e := range doms[b] {
			keysB[e.val.Key()] = struct{}{}
		}
		before := len(doms[a])
		doms[a] = filterEntries(doms[a], func(e entry) bool {
			_, ok := keysB[e.val.Key()]
			return ok
		})
		changed = changed || len(doms[a]) != before
		before = len(doms[b])
		doms[b] = filterEntries(doms[b], func(e entry) bool {
			_, ok := keysA[e.val.Key()]
			return ok
		})
		changed = changed || len(doms[b]) != before
	case expr.OpNe:
		// Only prunable when the other domain is a single value.
		if len(doms[b]) == 1 {
			key := doms[b][0].val.Key()
			before := len(doms[a])
			doms[a] = filterEntries(doms[a], func(e entry) bool { return e.val.Key() != key })
			changed = changed || len(doms[a]) != before
		}
		if len(doms[a]) == 1 {
			key := doms[a][0].val.Key()
			before := len(doms[b])
			doms[b] = filterEntries(doms[b], func(e entry) bool { return e.val.Key() != key })
			changed = changed || len(doms[b]) != before
		}
	}
	return changed
}

func pruneDivides(con *constraint, doms [][]entry) bool {
	a, b := con.argIdx[0], con.argIdx[1] // a % b == 0
	for _, vi := range con.vars {
		for _, e := range doms[vi] {
			if !e.isInt {
				return false // divisibility pruning only on integer domains
			}
		}
	}
	changed := false
	// b = 0 always errors (division by zero ⇒ invalid configuration).
	before := len(doms[b])
	doms[b] = filterEntries(doms[b], func(e entry) bool { return e.i != 0 })
	changed = changed || len(doms[b]) != before

	before = len(doms[a])
	doms[a] = filterEntries(doms[a], func(ea entry) bool {
		for _, eb := range doms[b] {
			if eb.i != 0 && ea.i%eb.i == 0 {
				return true
			}
		}
		return false
	})
	changed = changed || len(doms[a]) != before

	before = len(doms[b])
	doms[b] = filterEntries(doms[b], func(eb entry) bool {
		for _, ea := range doms[a] {
			if eb.i != 0 && ea.i%eb.i == 0 {
				return true
			}
		}
		return false
	})
	changed = changed || len(doms[b]) != before
	return changed
}
