package core

import (
	"math"

	"searchspace/internal/expr"
	"searchspace/internal/value"
)

// This file is the closure-free enumeration kernel. Compile lowers every
// constraint check — full checks and the §4.3 partial-assignment
// rejections — into a flat table of typed instructions, and runProg
// evaluates a depth's table with one switch loop over the solver state's
// nums/vals/ints arrays. Compared to the original per-check closure
// chains this removes an indirect call plus captured-variable loads per
// check per node, which is most of the interpreter overhead on
// constraint-dense spaces. Opaque constraints (compiled expression
// predicates and native Go functions) keep a function-pointer escape
// hatch inside the same table.
//
// The second half implements bulk tail expansion: once the walk passes
// the deepest depth that carries any instruction, the remaining
// variables are unconstrained, so the kernel emits the full cartesian
// block of their domains straight into columnar storage as
// repeated/tiled index runs instead of visiting every node; a one-row
// block writes one cell per column. The constrained depths above the
// tail follow the walk plan (plan.go): survivor tables and monotone
// cut-offs skip only values the instruction tables would reject.
// Emission order is exactly the order the per-node walk would have
// produced, so output stays byte-identical (the contract the golden
// parity suite and the service's compare checksums verify).

// opCode selects one typed instruction shape.
type opCode uint8

const (
	// opProdMax / opProdMin: prod := base; prod *= nums[v] for each v;
	// compare against bound. base is 1 for full checks and the
	// best-possible completion for partial checks.
	opProdMax opCode = iota
	opProdMin
	// opSumMax / opSumMin: sum := base; sum += coeffs[i]*nums[v];
	// compare against bound.
	opSumMax
	opSumMin
	// opSumEq: the exact-sum full check, sum(nums[v]) == bound.
	opSumEq
	// opSumFeas: the exact-sum partial check, sum+lo <= bound <= sum+hi
	// where lo/hi bound the best completion of the remaining operands.
	opSumFeas
	// opVarCmp: two-variable comparison via cmpOp on the value views.
	opVarCmp
	// opDividesInt: vars[0] % vars[1] == 0 on the exact integer views
	// (chosen at compile time when both domains are all-integer).
	opDividesInt
	// opDividesVal: the generic divisibility check through value.Mod.
	opDividesVal
	// opAllDiff / opAllEqual: pairwise distinctness / equality over the
	// value views.
	opAllDiff
	opAllEqual
	// opNumCmp: a (possibly chained) comparison over integer-domain
	// arithmetic, lowered to an RPN program evaluated in float64. Only
	// chosen when compile-time interval bounds prove every intermediate
	// stays exactly representable (|x| < 2^53), so results are
	// bit-identical to the value-semantics interpreter.
	opNumCmp
	// opPred / opGoFunc: the escape hatches for opaque constraints —
	// compiled expression predicates and native Go functions.
	opPred
	opGoFunc
)

// Numeric RPN micro-ops for opNumCmp.
const (
	nPushVar uint8 = iota
	nPushConst
	nAdd
	nSub
	nMul
	nMod
	nNeg
)

// numInstr is one micro-op of an opNumCmp program.
type numInstr struct {
	op   uint8
	slot int     // nPushVar: problem variable index into nums
	imm  float64 // nPushConst
}

// numStackMax bounds the RPN evaluation stack; expressions needing more
// fall back to the predicate escape hatch.
const numStackMax = 16

// maxExactFloat is 2^53: integers with magnitude below it are exactly
// representable in float64, so +, -, *, % on them are exact.
const maxExactFloat = float64(1 << 53)

// pymod is Python's % on float64 with mod-by-zero mapped to NaN: the
// value-semantics interpreter errors there (rejecting the
// configuration), and NaN makes every comparison link fail plus trips
// the explicit NaN rejection, so the outcomes agree.
func pymod(a, b float64) float64 {
	r := math.Mod(a, b)
	if r != 0 && ((r < 0) != (b < 0)) {
		r += b
	}
	return r
}

// instr is one typed check in a depth's instruction table. Field use
// depends on op; unused fields stay zero.
type instr struct {
	op     opCode
	strict bool
	cmpOp  expr.Op
	bound  float64
	hi     float64 // opSumFeas: upper completion bound (lo lives in base)
	base   float64 // accumulator seed: completion term, 1 for products, lo for opSumFeas
	vars   []int   // problem variable indices read by the instruction (every op)
	coeffs []float64
	num    []numInstr // opNumCmp: RPN program leaving the chain operands on the stack
	cmpOps []expr.Op  // opNumCmp: comparison links between adjacent operands
	pred   expr.Pred
	goFn   func([]value.Value) bool
}

// runProg evaluates one depth's instruction table against the current
// assignment; false rejects the partial assignment. Semantics of every
// arm mirror the retired closure implementations exactly (including NaN
// propagation through nums for non-numeric values, which rejects all
// numeric comparisons), so accept/reject decisions are unchanged.
func runProg(prog []instr, st *state) bool {
	for i := range prog {
		ins := &prog[i]
		switch ins.op {
		case opProdMax:
			prod := ins.base
			for _, vi := range ins.vars {
				prod *= st.nums[vi]
			}
			if ins.strict {
				if !(prod < ins.bound) {
					return false
				}
			} else if !(prod <= ins.bound) {
				return false
			}

		case opProdMin:
			prod := ins.base
			for _, vi := range ins.vars {
				prod *= st.nums[vi]
			}
			if ins.strict {
				if !(prod > ins.bound) {
					return false
				}
			} else if !(prod >= ins.bound) {
				return false
			}

		case opSumMax:
			sum := ins.base
			for i, vi := range ins.vars {
				sum += ins.coeffs[i] * st.nums[vi]
			}
			if ins.strict {
				if !(sum < ins.bound) {
					return false
				}
			} else if !(sum <= ins.bound) {
				return false
			}

		case opSumMin:
			sum := ins.base
			for i, vi := range ins.vars {
				sum += ins.coeffs[i] * st.nums[vi]
			}
			if ins.strict {
				if !(sum > ins.bound) {
					return false
				}
			} else if !(sum >= ins.bound) {
				return false
			}

		case opSumEq:
			sum := 0.0
			for _, vi := range ins.vars {
				sum += st.nums[vi]
			}
			if !(sum == ins.bound) {
				return false
			}

		case opSumFeas:
			sum := 0.0
			for _, vi := range ins.vars {
				sum += st.nums[vi]
			}
			if !(sum+ins.base <= ins.bound && sum+ins.hi >= ins.bound) {
				return false
			}

		case opVarCmp:
			a, b := st.vals[ins.vars[0]], st.vals[ins.vars[1]]
			switch ins.cmpOp {
			case expr.OpEq:
				if !value.Equal(a, b) {
					return false
				}
			case expr.OpNe:
				if value.Equal(a, b) {
					return false
				}
			default:
				cmp, err := value.Compare(a, b)
				if err != nil {
					return false
				}
				switch ins.cmpOp {
				case expr.OpLt:
					if cmp >= 0 {
						return false
					}
				case expr.OpLe:
					if cmp > 0 {
						return false
					}
				case expr.OpGt:
					if cmp <= 0 {
						return false
					}
				case expr.OpGe:
					if cmp < 0 {
						return false
					}
				default:
					return false
				}
			}

		case opDividesInt:
			d := st.ints[ins.vars[1]]
			if d == 0 || st.ints[ins.vars[0]]%d != 0 {
				return false
			}

		case opDividesVal:
			rem, err := value.Mod(st.vals[ins.vars[0]], st.vals[ins.vars[1]])
			if err != nil || rem.Float() != 0 {
				return false
			}

		case opAllDiff:
			for a := 0; a < len(ins.vars); a++ {
				for b := a + 1; b < len(ins.vars); b++ {
					if value.Equal(st.vals[ins.vars[a]], st.vals[ins.vars[b]]) {
						return false
					}
				}
			}

		case opAllEqual:
			first := st.vals[ins.vars[0]]
			for _, vi := range ins.vars[1:] {
				if !value.Equal(first, st.vals[vi]) {
					return false
				}
			}

		case opNumCmp:
			var stack [numStackMax]float64
			sp := 0
			for j := range ins.num {
				ni := &ins.num[j]
				switch ni.op {
				case nPushVar:
					stack[sp] = st.nums[ni.slot]
					sp++
				case nPushConst:
					stack[sp] = ni.imm
					sp++
				case nAdd:
					sp--
					stack[sp-1] += stack[sp]
				case nSub:
					sp--
					stack[sp-1] -= stack[sp]
				case nMul:
					sp--
					stack[sp-1] *= stack[sp]
				case nMod:
					sp--
					stack[sp-1] = pymod(stack[sp-1], stack[sp])
				case nNeg:
					stack[sp-1] = -stack[sp-1]
				}
			}
			// A NaN operand means the value interpreter would have
			// errored (mod by zero) — reject like it does. Checked
			// explicitly because NaN != x would otherwise pass an OpNe
			// link.
			for j := 0; j < sp; j++ {
				if stack[j] != stack[j] {
					return false
				}
			}
			for j, op := range ins.cmpOps {
				a, b := stack[j], stack[j+1]
				switch op {
				case expr.OpLt:
					if !(a < b) {
						return false
					}
				case expr.OpLe:
					if !(a <= b) {
						return false
					}
				case expr.OpGt:
					if !(a > b) {
						return false
					}
				case expr.OpGe:
					if !(a >= b) {
						return false
					}
				case expr.OpEq:
					if !(a == b) {
						return false
					}
				case expr.OpNe:
					if !(a != b) {
						return false
					}
				default:
					return false
				}
			}

		case opPred:
			ok, err := ins.pred(st.vals)
			if err != nil || !ok {
				return false
			}

		case opGoFunc:
			for i, vi := range ins.vars {
				st.scratch[i] = st.vals[vi]
			}
			if !ins.goFn(st.scratch[:len(ins.vars)]) {
				return false
			}

		default:
			return false
		}
	}
	return true
}

// compileNumExpr lowers an arithmetic subtree into RPN micro-ops,
// returning a sound bound on the result's magnitude and the stack depth
// the code needs. ok is false when the shape is unsupported (non-integer
// domains or literals, unsupported operators) or when any node's bound
// reaches 2^53 — past that, float64 arithmetic stops being exact and the
// value-semantics interpreter must stay in charge.
func compileNumExpr(node expr.Node, nameIdx map[string]int, doms [][]entry) (code []numInstr, bound float64, depth int, ok bool) {
	switch x := node.(type) {
	case *expr.Lit:
		if x.Val.Kind() == value.Float || !x.Val.IsNumeric() {
			return nil, 0, 0, false
		}
		iv := x.Val.Int()
		if iv >= 1<<53 || iv <= -(1<<53) {
			return nil, 0, 0, false
		}
		f := float64(iv)
		return []numInstr{{op: nPushConst, imm: f}}, math.Abs(f), 1, true

	case *expr.Name:
		vi, found := nameIdx[x.Ident]
		if !found {
			return nil, 0, 0, false
		}
		for _, e := range doms[vi] {
			if !e.isInt || e.i >= 1<<53 || e.i <= -(1<<53) {
				return nil, 0, 0, false
			}
			if a := math.Abs(float64(e.i)); a > bound {
				bound = a
			}
		}
		return []numInstr{{op: nPushVar, slot: vi}}, bound, 1, true

	case *expr.Unary:
		if x.Op != expr.OpNeg {
			return nil, 0, 0, false
		}
		sub, b, d, subOK := compileNumExpr(x.X, nameIdx, doms)
		if !subOK {
			return nil, 0, 0, false
		}
		return append(sub, numInstr{op: nNeg}), b, d, true

	case *expr.Binary:
		var op uint8
		switch x.Op {
		case expr.OpAdd:
			op = nAdd
		case expr.OpSub:
			op = nSub
		case expr.OpMul:
			op = nMul
		case expr.OpMod:
			op = nMod
		default:
			return nil, 0, 0, false
		}
		cx, bx, dx, okX := compileNumExpr(x.X, nameIdx, doms)
		if !okX {
			return nil, 0, 0, false
		}
		cy, by, dy, okY := compileNumExpr(x.Y, nameIdx, doms)
		if !okY {
			return nil, 0, 0, false
		}
		switch op {
		case nAdd, nSub:
			bound = bx + by
		case nMul:
			bound = bx * by
		case nMod:
			bound = by // |a mod b| < |b| (Python sign rule), NaN handled at runtime
		}
		if !(bound < maxExactFloat) {
			return nil, 0, 0, false
		}
		code = append(append(cx, cy...), numInstr{op: op})
		depth = dx
		if 1+dy > depth {
			depth = 1 + dy
		}
		return code, bound, depth, true
	}
	return nil, 0, 0, false
}

// tryNumCmp lowers a generic Function constraint whose AST is a
// comparison chain over supported integer arithmetic into an opNumCmp
// instruction. This catches the constraint shapes the specific-
// constraint analysis leaves behind — e.g. Hotspot's shared-memory
// budget, a product of sums — which otherwise dominate solve time
// through the closure-tree predicate.
func tryNumCmp(node expr.Node, nameIdx map[string]int, doms [][]entry) (instr, bool) {
	cmp, isCmp := node.(*expr.Compare)
	if !isCmp {
		return instr{}, false
	}
	for _, op := range cmp.Ops {
		switch op {
		case expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe, expr.OpEq, expr.OpNe:
		default:
			return instr{}, false
		}
	}
	var code []numInstr
	for i, operand := range cmp.Operands {
		c, _, depth, ok := compileNumExpr(operand, nameIdx, doms)
		if !ok || i+depth > numStackMax {
			return instr{}, false
		}
		code = append(code, c...)
	}
	return instr{op: opNumCmp, num: code, cmpOps: cmp.Ops}, true
}

// fullInstr lowers one constraint's fully-assigned check (the retired
// satisfiedFull closure) into a typed instruction. doms (by variable
// index) decide whether divisibility can use the exact integer views
// and whether generic comparisons can run on the numeric fast path;
// nameIdx resolves AST names for the numeric compiler.
func fullInstr(con *constraint, doms [][]entry, nameIdx map[string]int) instr {
	switch con.kind {
	case conMaxProd:
		return instr{op: opProdMax, base: 1, vars: con.argIdx, bound: con.bound, strict: con.strict}
	case conMinProd:
		return instr{op: opProdMin, base: 1, vars: con.argIdx, bound: con.bound, strict: con.strict}
	case conMaxSum:
		return instr{op: opSumMax, vars: con.argIdx, coeffs: con.coeffs, bound: con.bound, strict: con.strict}
	case conMinSum:
		return instr{op: opSumMin, vars: con.argIdx, coeffs: con.coeffs, bound: con.bound, strict: con.strict}
	case conExactSum:
		return instr{op: opSumEq, vars: con.argIdx, bound: con.bound}
	case conVarCmp:
		return instr{op: opVarCmp, vars: con.argIdx, cmpOp: con.cmpOp}
	case conDivides:
		allInt := true
		for _, vi := range con.vars {
			for _, e := range doms[vi] {
				if !e.isInt {
					allInt = false
				}
			}
		}
		if allInt {
			return instr{op: opDividesInt, vars: con.argIdx}
		}
		return instr{op: opDividesVal, vars: con.argIdx}
	case conAllDiff:
		return instr{op: opAllDiff, vars: con.argIdx}
	case conAllEqual:
		return instr{op: opAllEqual, vars: con.argIdx}
	case conFunc:
		if ins, ok := tryNumCmp(con.node, nameIdx, doms); ok {
			ins.vars = con.vars
			return ins
		}
		return instr{op: opPred, vars: con.vars, pred: con.pred}
	case conUnary:
		return instr{op: opPred, vars: con.vars, pred: con.pred}
	case conGoFunc:
		return instr{op: opGoFunc, vars: con.argIdx, goFn: con.goFn}
	}
	// Unreachable for the kinds specToConstraint produces; an
	// always-false instruction keeps a future kind from silently passing.
	return instr{op: opVarCmp, vars: []int{0, 0}, cmpOp: expr.Op(0)}
}

// EnumStats reports how one columnar enumeration executed. Nodes counts
// the constrained walk's loop iterations: candidates tried plus
// exhausted-list pops (a cut-off ends a depth without a pop). Blocks
// counts the bulk tail expansions, and BlockRows the rows those blocks
// emitted without per-node visits. Survivor tables and cut-offs skip
// values outright, so Nodes is below what SolveColumnarRef counts for
// the same space: that count is the plain walk's, not a like-for-like
// baseline.
type EnumStats struct {
	Nodes     int64
	Blocks    int64
	BlockRows int64
}

// sink is a capacity-managed columnar output buffer: all columns share
// one backing array (one allocation per growth instead of one per
// column), and bulk blocks write straight into reserved segments.
// A worker reuses its sink across tasks via reset, which keeps the
// capacity — repeated 2×-regrowth of per-task slices was a measurable
// cost under parallel construction.
type sink struct {
	nvars   int
	rows    int
	capRows int
	buf     []int32
}

func newSink(nvars int) *sink {
	s := &sink{}
	s.reset(nvars)
	return s
}

// reset clears the sink for reuse, keeping the allocated capacity.
func (s *sink) reset(nvars int) {
	s.nvars = nvars
	s.rows = 0
	s.capRows = 0
	if nvars > 0 {
		s.capRows = len(s.buf) / nvars
	}
}

// ensure reserves room for extra more rows in every column.
func (s *sink) ensure(extra int) {
	need := s.rows + extra
	if need <= s.capRows {
		return
	}
	newCap := s.capRows * 2
	if newCap < 1024 {
		newCap = 1024
	}
	if newCap < need {
		newCap = need
	}
	buf := make([]int32, s.nvars*newCap)
	for vi := 0; vi < s.nvars; vi++ {
		copy(buf[vi*newCap:], s.buf[vi*s.capRows:vi*s.capRows+s.rows])
	}
	s.buf = buf
	s.capRows = newCap
}

// colSeg returns column vi's rows [from, to) for writing.
func (s *sink) colSeg(vi, from, to int) []int32 {
	base := vi * s.capRows
	return s.buf[base+from : base+to]
}

// fillColumnar points out's columns at the sink's storage (no copy; the
// sink must not be reused afterwards). Columns stay nil when no row was
// emitted, matching the historical append-based output.
func (s *sink) fillColumnar(out *Columnar) {
	if s.rows == 0 {
		return
	}
	for vi := 0; vi < s.nvars; vi++ {
		base := vi * s.capRows
		out.Cols[vi] = s.buf[base : base+s.rows : base+s.rows]
	}
}

// takeColumnar copies the sink's rows into an exactly-sized columnar
// bucket (single backing allocation), leaving the sink reusable. Empty
// sinks return nil.
func (s *sink) takeColumnar() *Columnar {
	if s.rows == 0 {
		return nil
	}
	backing := make([]int32, s.nvars*s.rows)
	out := &Columnar{Cols: make([][]int32, s.nvars)}
	for vi := 0; vi < s.nvars; vi++ {
		col := backing[vi*s.rows : (vi+1)*s.rows : (vi+1)*s.rows]
		copy(col, s.buf[vi*s.capRows:vi*s.capRows+s.rows])
		out.Cols[vi] = col
	}
	return out
}

// fillInt32 sets every element of seg to v (doubling copy; Go has no
// typed memset).
func fillInt32(seg []int32, v int32) {
	if len(seg) == 0 {
		return
	}
	seg[0] = v
	for p := 1; p < len(seg); p *= 2 {
		copy(seg[p:], seg[:p])
	}
}

// emitBlock appends the cartesian block of the solve-order domains
// [blockStart, n) to the sink, with every variable before blockStart
// pinned to its current idx assignment. Rows land in exactly the order
// the per-node walk would have emitted them: depth blockStart varies
// slowest, the deepest depth fastest, each domain in entry order.
func (c *Compiled) emitBlock(snk *sink, idx []int32, blockStart int, blockRows int64) {
	rows := int(blockRows)
	snk.ensure(rows)
	base := snk.rows
	if rows == 1 {
		// A single-valued tail (common: fixed parameters sort last)
		// makes every block one row; write one cell per column.
		for d, vi := range c.order {
			v := idx[vi]
			if d >= blockStart {
				v = c.doms[d][0].orig
			}
			snk.buf[vi*snk.capRows+base] = v
		}
		snk.rows++
		return
	}
	n := len(c.order)
	for d := 0; d < blockStart; d++ {
		vi := c.order[d]
		fillInt32(snk.colSeg(vi, base, base+rows), idx[vi])
	}
	inner := 1
	for d := n - 1; d >= blockStart; d-- {
		vi := c.order[d]
		dom := c.doms[d]
		seg := snk.colSeg(vi, base, base+rows)
		// One period: each remaining domain value repeated inner times…
		p := 0
		for k := range dom {
			orig := dom[k].orig
			for j := 0; j < inner; j++ {
				seg[p] = orig
				p++
			}
		}
		// …then tiled across the block by doubling copies.
		for p < rows {
			p += copy(seg[p:], seg[:p])
		}
		inner *= len(dom)
	}
	snk.rows += rows
}

// enumColumnar is the columnar enumeration kernel: it pins the first
// len(pfx) solve-order variables (running their full instruction
// tables, exactly as a sequential walk reaching that prefix would),
// walks the constrained depths by the walk plan, and emits
// every subtree below the deepest constrained depth as one bulk
// cartesian block. st is caller-owned scratch reused across calls; stop
// is polled every few thousand loop iterations AND charged per emitted
// block, so cancellation latency matches the per-node walk. es, when
// non-nil, accumulates execution stats. ps, when non-nil, receives
// live node/row deltas at the stop-poll cadence and at every exit —
// including the cancel path, so a torn-down build's counters land
// before its waiters wake.
func (c *Compiled) enumColumnar(snk *sink, pfx []int, st *state, stop func() bool, es *EnumStats, ps *ProgressSink) (canceled bool) {
	n := len(c.order)
	k := len(pfx)
	for d := 0; d < k; d++ {
		vi := c.order[d]
		e := &c.doms[d][pfx[d]]
		st.vals[vi] = e.val
		st.nums[vi] = e.num
		st.ints[vi] = e.i
		st.idx[vi] = e.orig
		st.pos[d] = pfx[d]
		if !runProg(c.prog[d], st) {
			return false
		}
	}

	blockStart := c.tailStart
	if blockStart < k {
		blockStart = k
	}
	// blockRows: rows per bulk block; tailNodes: loop iterations the
	// per-node walk would have spent inside one block's subtree (the
	// node-count each block is charged for stop-poll accounting).
	blockRows, tailNodes := int64(1), int64(0)
	for d := n - 1; d >= blockStart; d-- {
		size := int64(len(c.doms[d]))
		blockRows *= size
		tailNodes = size * (1 + tailNodes)
	}

	if blockStart == k {
		// No constrained depth remains: the whole assigned prefix's
		// subtree is one cartesian block.
		if stop != nil && stop() {
			return true
		}
		c.emitBlock(snk, st.idx, blockStart, blockRows)
		if es != nil {
			es.Blocks++
			es.BlockRows += blockRows
		}
		if ps != nil {
			ps.Nodes.Add(tailNodes)
			ps.Rows.Add(blockRows)
		}
		return false
	}

	trial := st.trial
	depth := k
	trial[depth] = -1
	st.surv[depth] = c.plan[depth].survivors(st.pos)
	// nodes is the stop-pacing charge: walked loop iterations PLUS each
	// emitted block's whole subtree, so cancellation latency matches the
	// per-node walk. blocks is subtracted back out at the end so
	// EnumStats.Nodes reports only nodes actually visited.
	nodes := int64(0)
	blocks := int64(0)
	// Bulk blocks advance the charge by whole subtrees, so the poll
	// trigger is a threshold, not a modulus — the cadence (every
	// stopCheckMask+1 charged nodes) matches the per-node walk even
	// when a single block jumps past several poll points.
	nextPoll := int64(0)
	// reported/reportedRows track what has already been flushed to the
	// progress sink, so each flush adds only the delta since the last.
	reported := int64(0)
	reportedRows := snk.rows
	for depth >= k {
		if nodes >= nextPoll {
			if ps != nil {
				ps.Nodes.Add(nodes - reported)
				ps.Rows.Add(int64(snk.rows - reportedRows))
				reported, reportedRows = nodes, snk.rows
			}
			if stop != nil && stop() {
				if es != nil {
					es.Nodes += nodes - blocks*tailNodes
					es.Blocks += blocks
					es.BlockRows += blocks * blockRows
				}
				return true
			}
			nextPoll = nodes + stopCheckMask + 1
		}
		nodes++
		// trial indexes the depth's survivor list, which holds domain
		// positions; see depthPlan.
		trial[depth]++
		cand := st.surv[depth]
		if trial[depth] >= len(cand) {
			depth--
			continue
		}
		p := int(cand[trial[depth]])
		st.pos[depth] = p
		vi := c.order[depth]
		e := &c.doms[depth][p]
		st.vals[vi] = e.val
		st.nums[vi] = e.num
		st.ints[vi] = e.i
		st.idx[vi] = e.orig
		pl := &c.plan[depth]
		if len(pl.cut) != 0 && !runProg(pl.cut, st) {
			// Every later candidate fails this check too.
			depth--
			continue
		}
		if len(pl.prog) != 0 && !runProg(pl.prog, st) {
			continue
		}
		if depth == blockStart-1 {
			// Past the deepest constrained depth: every completion is
			// valid, so emit the remaining domains as one block and
			// charge its node count in bulk (keeping the stop cadence
			// of the per-node walk without visiting its nodes).
			c.emitBlock(snk, st.idx, blockStart, blockRows)
			nodes += tailNodes
			blocks++
			continue
		}
		depth++
		trial[depth] = -1
		st.surv[depth] = c.plan[depth].survivors(st.pos)
	}
	if es != nil {
		es.Nodes += nodes - blocks*tailNodes
		es.Blocks += blocks
		es.BlockRows += blocks * blockRows
	}
	if ps != nil {
		ps.Nodes.Add(nodes - reported)
		ps.Rows.Add(int64(snk.rows - reportedRows))
	}
	return false
}

// SolveColumnarStats is SolveColumnarStop with kernel execution stats:
// constrained node visits, bulk blocks, and block rows. It backs the
// spaceload solver benchmark's nodes-visited reporting.
func (c *Compiled) SolveColumnarStats(stop func() bool) (*Columnar, EnumStats, bool) {
	return c.SolveColumnarStatsSink(stop, nil)
}

// SolveColumnarStatsSink is SolveColumnarStats with a live progress
// sink: ps, when non-nil, sees node and row counts grow while the
// enumeration runs. It is the sequential entry point of the live
// build-progress plane.
func (c *Compiled) SolveColumnarStatsSink(stop func() bool, ps *ProgressSink) (*Columnar, EnumStats, bool) {
	out := &Columnar{
		Names: append([]string(nil), c.names...),
		Cols:  make([][]int32, len(c.names)),
	}
	var es EnumStats
	if c.empty || len(c.order) == 0 {
		return out, es, false
	}
	snk := newSink(len(c.names))
	canceled := c.enumColumnar(snk, nil, c.newState(), stop, &es, ps)
	snk.fillColumnar(out)
	return out, es, canceled
}
