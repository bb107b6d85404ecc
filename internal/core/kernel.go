package core

import (
	"math"
	"sort"
	"sync"

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
// block of their domains as one block of rows instead of visiting every
// node; a one-row block writes one cell per column it writes. The constrained depths above the
// tail follow the walk plan (plan.go): survivor tables, monotone and
// envelope cut-offs skip only values whose subtrees hold no valid row.
// Where the trailing constrained depths have no per-candidate check left
// and each one's walk list depends only on the depths above them (the
// plan's product depth), the walk, on entering one of them, takes every
// remaining depth's list once and emits their product times the tail as
// one cartesian block. The block is charged the nodes and blocks the
// per-node walk would have spent, so EnumStats and the stop cadence do
// not change.
//
// Output takes one of two paths. A space whose constrained depths form
// one component is walked as one tree into a sink of pooled fixed-size
// chunks that holds only the constrained depths' columns. A depth above
// the product depth keeps its value over many rows, so the walk writes
// it as one run when the value leaves (the walk moves to the depth's
// next candidate or pops it), and the deeper constrained depths are
// written per block. At the end the sink's rows are copied once into
// one exactly sized backing array, and each unconstrained tail column,
// which repeats one period over the whole output, is filled there once.
// A space whose constrained depths split into independent components
// (product.go) solves each component with this walk, and then, knowing
// the row count, allocates the exact backing once and writes every cell
// of the product into it once: no chunks and no copy. On both paths a
// one-value column whose value has declared index 0 is not written at
// all, since the backing starts zeroed. Either way, emission order is
// exactly the order the per-node walk over the whole space would have
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
	// opVarCmp: two-variable comparison via cmpOp on the value views.
	opVarCmp
	// opDividesInt: vars[0] % vars[1] == 0 on the exact integer views
	// (chosen at compile time when both domains are all-integer).
	opDividesInt
	// opDividesVal: the generic divisibility check through value.Mod.
	opDividesVal
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
	base   float64 // accumulator seed: completion term, 1 for products
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

// fullInstr lowers one constraint's fully-assigned check into a typed
// instruction. doms (by variable index) decide whether divisibility can
// use the exact integer views and whether generic comparisons can run
// on the numeric fast path; nameIdx resolves AST names for the numeric
// compiler.
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
// the constrained walk's loop iterations: candidates tried plus one pop
// per depth entry, which is also what a walk that tried candidates up
// to the first cut-off failure would count. Blocks
// counts the bulk tail expansions, and BlockRows the rows those blocks
// emitted without per-node visits. A product block over the trailing
// constrained depths is charged what the per-node walk would have
// charged: at each depth one node per list entry plus the pop, and one
// block per row of the lists' product. Survivor tables and cut-offs
// skip values outright, so Nodes is below what the test reference
// SolveColumnarRef counts for the same space: that count is the plain
// walk's, not a like-for-like baseline. On the component-product path
// (product.go), Nodes sums the component walks' nodes, Blocks counts the
// cartesian blocks the fill writes (one per distinct prefix of the
// depths above its split) and BlockRows is again every row.
type EnumStats struct {
	Nodes     int64
	Blocks    int64
	BlockRows int64
}

// chunkCells is the size of one pooled output chunk, in int32 cells
// (256 KiB).
const chunkCells = 1 << 16

// chunkPool recycles output chunks across enumerations and workers.
var chunkPool = sync.Pool{New: func() any {
	buf := make([]int32, chunkCells)
	return &buf
}}

// chunk is one fixed run of sink rows, column-major: sink column j's
// rows live at buf[j*stride : j*stride+rows].
type chunk struct {
	buf    []int32
	stride int      // row capacity per column
	rows   int      // rows written
	start  int      // the sink row index of the chunk's first row
	pooled *[]int32 // the pool's handle, nil for an oversize chunk
}

// sink is the kernel's columnar output buffer: a list of fixed-size
// chunks taken from chunkPool, so the output never regrows or copies
// while the walk runs. It holds one column per constrained depth, sink
// column d for depth d; the unconstrained tail's columns never enter it
// (fillTail writes them into the output). A block that does not fit in
// the current chunk's remainder opens the next chunk; a block larger
// than a whole chunk gets its own exactly sized, unpooled chunk. Rows
// are numbered across chunks in emission order. A depth above the
// plan's product depth is written as runs (fill), which may span
// chunks; the other constrained depths are written per block. When the
// run ends, copyRows moves the rows once into an exactly sized output
// and reset hands the chunks back to the pool. A parallel worker keeps
// one sink for all its tasks and records each task's row range in it.
// A product block is written as one block, split only where it would
// overflow a chunk; its EnumStats Nodes and Blocks are what the
// per-node walk would have charged, not the one step it takes.
type sink struct {
	width     int // columns per row
	chunkRows int // row capacity of a pooled chunk
	rows      int // rows emitted
	chunks    []chunk
}

func newSink(width int) *sink {
	return &sink{width: width, chunkRows: chunkCells / max(width, 1)}
}

// reserve appends rows rows to the sink and returns the chunk storage
// they occupy: column j's new rows are buf[j*stride+base:][:rows].
func (s *sink) reserve(rows int) (buf []int32, stride, base int) {
	if n := len(s.chunks); n > 0 {
		if ch := &s.chunks[n-1]; ch.rows+rows <= ch.stride {
			base = ch.rows
			ch.rows += rows
			s.rows += rows
			return ch.buf, ch.stride, base
		}
	}
	ch := chunk{rows: rows, start: s.rows}
	if rows <= s.chunkRows {
		ch.pooled = chunkPool.Get().(*[]int32)
		ch.buf, ch.stride = *ch.pooled, s.chunkRows
	} else {
		ch.buf, ch.stride = make([]int32, s.width*rows), rows
	}
	s.chunks = append(s.chunks, ch)
	s.rows += rows
	return ch.buf, ch.stride, 0
}

// fill sets column j of the sink rows [from, s.rows) to v: one run,
// written chunk by chunk from the last one back.
func (s *sink) fill(j, from int, v int32) {
	for i := len(s.chunks) - 1; i >= 0; i-- {
		ch := &s.chunks[i]
		lo := max(from-ch.start, 0)
		fillInt32(ch.buf[j*ch.stride+lo:j*ch.stride+ch.rows], v)
		if lo > 0 || ch.start == from {
			return
		}
	}
}

// copyRows copies the sink's rows [from, to) into cols, sink column j
// into cols[j], starting at row at of every column.
func (s *sink) copyRows(cols [][]int32, at, from, to int) {
	i := sort.Search(len(s.chunks), func(i int) bool {
		return s.chunks[i].start+s.chunks[i].rows > from
	})
	for ; from < to; i++ {
		ch := &s.chunks[i]
		lo, hi := from-ch.start, min(ch.rows, to-ch.start)
		for j, col := range cols {
			copy(col[at:], ch.buf[j*ch.stride+lo:j*ch.stride+hi])
		}
		at += hi - lo
		from += hi - lo
	}
}

// reset empties the sink and returns its pooled chunks.
func (s *sink) reset() {
	for i := range s.chunks {
		if p := s.chunks[i].pooled; p != nil {
			chunkPool.Put(p)
		}
		s.chunks[i] = chunk{}
	}
	s.chunks = s.chunks[:0]
	s.rows = 0
}

// newColumnar returns the output for rows rows: every column is a
// window of one exact nvars×rows backing array. Columns stay nil when
// rows is 0, matching the historical append-based output.
func (c *Compiled) newColumnar(rows int) *Columnar {
	out := &Columnar{
		Names: append([]string(nil), c.names...),
		Cols:  make([][]int32, len(c.names)),
	}
	if rows == 0 {
		return out
	}
	backing := make([]int32, len(out.Cols)*rows)
	for vi := range out.Cols {
		out.Cols[vi] = backing[vi*rows : (vi+1)*rows : (vi+1)*rows]
	}
	return out
}

// fillInt32 sets every element of seg to v: a plain loop for the short
// runs one-row and product blocks produce, doubling copies for long
// ones (Go has no typed memset).
func fillInt32(seg []int32, v int32) {
	if len(seg) <= 32 {
		for i := range seg {
			seg[i] = v
		}
		return
	}
	seg[0] = v
	for p := 1; p < len(seg); p *= 2 {
		copy(seg[p:], seg[:p])
	}
}

// fillPeriodic writes col, a column fresh from newColumnar, as one
// period of dom — each value's declared index repeated inner times —
// tiled over the whole column. The column is already zero, so a
// one-value domain whose value has declared index 0 is left as it is.
func fillPeriodic(col []int32, dom []entry, inner int) {
	if len(col) == 0 || len(dom) == 1 && dom[0].orig == 0 {
		return
	}
	p := 0
	for k := range dom {
		fillInt32(col[p:p+inner], dom[k].orig)
		p += inner
	}
	for p < len(col) {
		p += copy(col[p:], col[:p])
	}
}

// fillTail writes the unconstrained tail's columns of out: each one a
// periodic fill over its whole column, the deepest depth fastest.
func (c *Compiled) fillTail(out *Columnar) {
	inner := 1
	for d := len(c.order) - 1; d >= c.tailStart; d-- {
		fillPeriodic(out.Cols[c.order[d]], c.doms[d], inner)
		inner *= len(c.doms[d])
	}
}

// sinkCols returns out's columns in sink order: one per constrained
// depth, the column of depth d's variable at d.
func (c *Compiled) sinkCols(out *Columnar) [][]int32 {
	cols := make([][]int32, c.tailStart)
	for d := range cols {
		cols[d] = out.Cols[c.order[d]]
	}
	return cols
}

// emitBlock appends to the sink the cartesian block below depth from:
// every depth before from keeps its st.idx assignment, every
// constrained depth from on takes the domain positions of its walk list
// st.surv[d], and the tail's domains multiply it by tailRows rows. Rows
// land in exactly the order the per-node walk would have emitted them:
// depth from varies slowest, the deepest depth fastest, each list in
// walk order. The block is split along depth from's list so that every
// piece fits a pooled chunk.
func (c *Compiled) emitBlock(snk *sink, st *state, from, tailRows int) {
	inner := tailRows
	for d := from + 1; d < c.tailStart; d++ {
		inner *= len(st.surv[d])
	}
	if from >= c.tailStart || inner == 0 {
		c.writeBlock(snk, st, from, inner, tailRows)
		return
	}
	list := st.surv[from]
	per := max(1, snk.chunkRows/inner)
	for rest := list; len(rest) > 0; {
		m := min(per, len(rest))
		st.surv[from] = rest[:m]
		c.writeBlock(snk, st, from, m*inner, tailRows)
		rest = rest[m:]
	}
	st.surv[from] = list
}

// writeBlock writes one piece of emitBlock's block, rows rows, into
// newly reserved sink rows. It writes only the depths from the product
// depth down to the tail: the walk writes the depths above as runs and
// fillTail the tail.
func (c *Compiled) writeBlock(snk *sink, st *state, from, rows, tailRows int) {
	if rows == 0 {
		return
	}
	buf, stride, base := snk.reserve(rows)
	if rows == 1 {
		// A single-valued tail (common: fixed parameters sort last)
		// makes many blocks one row; write one cell per column.
		for d := c.prodFrom; d < c.tailStart; d++ {
			v := st.idx[c.order[d]]
			if d >= from {
				v = c.doms[d][st.surv[d][0]].orig
			}
			buf[d*stride+base] = v
		}
		return
	}
	for d := c.prodFrom; d < min(from, c.tailStart); d++ {
		fillInt32(buf[d*stride+base:][:rows], st.idx[c.order[d]])
	}
	inner := tailRows
	for d := c.tailStart - 1; d >= from; d-- {
		dom := c.doms[d]
		list := st.surv[d]
		seg := buf[d*stride+base:][:rows]
		if len(list) == 1 {
			fillInt32(seg, dom[list[0]].orig)
			continue
		}
		// One period: each of the list's values repeated inner times…
		p := 0
		for _, pk := range list {
			fillInt32(seg[p:p+inner], dom[pk].orig)
			p += inner
		}
		// …then tiled across the run by doubling copies (every block
		// repeats the same period).
		for p < rows {
			p += copy(seg[p:], seg[:p])
		}
		inner *= len(list)
	}
}

// candidates returns depth d's walk list for the current assignment of
// the earlier depths: its survivor list, truncated to the prefix that
// passes the depth's cut-offs. Cut-offs fail upward and the list
// ascends, so the passing candidates are a prefix; a binary search
// finds its end. The pop that ends the truncated list counts one node,
// as the first failing try would.
func (c *Compiled) candidates(d int, st *state) []int32 {
	pl := &c.plan[d]
	list := pl.survivors(st.pos)
	if len(pl.cut) == 0 {
		return list
	}
	vi := c.order[d]
	dom := c.doms[d]
	lo, hi := 0, len(list)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		e := &dom[list[m]]
		st.vals[vi] = e.val
		st.nums[vi] = e.num
		st.ints[vi] = e.i
		if runProg(pl.cut, st) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return list[:lo]
}

// enumColumnar is the columnar enumeration kernel: it pins the first
// len(pfx) solve-order variables (running their full instruction
// tables, exactly as a sequential walk reaching that prefix would),
// walks the constrained depths by the walk plan, and emits
// every subtree below the deepest constrained depth as one bulk
// cartesian block. A depth above the product depth keeps its value
// over a run of rows, so the walk writes it into the sink once per
// run: when it moves to the depth's next candidate or pops the depth,
// and, for a pinned depth, when the task ends. Blocks write the deeper
// constrained depths; the tail's columns stay out of the sink (see
// fillTail). st is caller-owned scratch reused across calls; stop
// is polled every few thousand loop iterations AND charged per emitted
// block, so cancellation latency matches the per-node walk. es, when
// non-nil, accumulates execution stats. ps, when non-nil, receives
// live node/row deltas at the stop-poll cadence and at every exit —
// including the cancel path, so a torn-down build's counters land
// before its waiters wake.
func (c *Compiled) enumColumnar(snk *sink, pfx []int, st *state, stop func() bool, es *EnumStats, ps *ProgressSink) (canceled bool) {
	n := len(c.order)
	k := len(pfx)
	taskStart := snk.rows
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
		c.emitBlock(snk, st, blockStart, int(blockRows))
		c.flushPinned(snk, st, k, taskStart)
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

	// leaf is the deepest constrained depth. Entering any depth from
	// prod on, the walk lists of that depth and every deeper constrained
	// one depend only on the depths above the plan's product depth, so
	// its whole subtree is one product block.
	leaf := blockStart - 1
	prod := max(c.prodFrom, k+1)
	trial := st.trial
	runs := st.runs
	depth := k
	trial[depth] = -1
	runs[depth] = snk.rows
	st.surv[depth] = c.candidates(depth, st)
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
		vi := c.order[depth]
		if depth < c.prodFrom && runs[depth] < snk.rows {
			// The depth's value leaves: write its run.
			snk.fill(depth, runs[depth], st.idx[vi])
			runs[depth] = snk.rows
		}
		// trial indexes the depth's walk list, which holds domain
		// positions; see candidates.
		trial[depth]++
		cand := st.surv[depth]
		if trial[depth] >= len(cand) {
			depth--
			continue
		}
		p := int(cand[trial[depth]])
		st.pos[depth] = p
		e := &c.doms[depth][p]
		st.vals[vi] = e.val
		st.nums[vi] = e.num
		st.ints[vi] = e.i
		st.idx[vi] = e.orig
		if prog := c.plan[depth].prog; len(prog) != 0 && !runProg(prog, st) {
			continue
		}
		if depth == leaf {
			// Past the deepest constrained depth: every completion is
			// valid, so emit the remaining domains as one block and
			// charge its node count in bulk (keeping the stop cadence
			// of the per-node walk without visiting its nodes).
			c.emitBlock(snk, st, blockStart, int(blockRows))
			nodes += tailNodes
			blocks++
			continue
		}
		depth++
		trial[depth] = -1
		runs[depth] = snk.rows
		st.surv[depth] = c.candidates(depth, st)
		if depth >= prod {
			// The per-node walk would try every entry of the product,
			// emit a block per leaf entry and pop each depth. Take that
			// as one block when its whole charge ends at or before the
			// next poll point: then no poll falls inside it, and the
			// walk polls where it would have.
			charge, leaves := tailNodes, int64(1)
			for t := leaf; t >= depth; t-- {
				if t > depth {
					st.surv[t] = c.candidates(t, st)
				}
				size := int64(len(st.surv[t]))
				charge = size*(1+charge) + 1
				leaves *= size
			}
			if nodes+charge <= nextPoll {
				c.emitBlock(snk, st, depth, int(blockRows))
				nodes += charge
				blocks += leaves
				if depth < leaf {
					st.deep++
				}
				st.products++
				depth--
			} else {
				st.declined++
			}
		}
	}
	c.flushPinned(snk, st, k, taskStart)
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

// flushPinned writes the runs of a task's first k pinned depths that lie
// above the product depth over the task's rows, [from, snk.rows).
func (c *Compiled) flushPinned(snk *sink, st *state, k, from int) {
	for d := 0; d < min(k, c.prodFrom); d++ {
		snk.fill(d, from, st.idx[c.order[d]])
	}
}

// SolveColumnarStatsSink is SolveColumnarExec on one worker with stop
// and ps and no OnProgress: the rows, the kernel's execution stats
// (constrained node visits, bulk blocks and block rows) and whether stop
// canceled the run.
func (c *Compiled) SolveColumnarStatsSink(stop func() bool, ps *ProgressSink) (*Columnar, EnumStats, bool) {
	return c.SolveColumnarExec(Exec{Workers: 1, Stop: stop, Sink: ps})
}

// solveWalk is the sequential columnar solve as one planned walk: the
// constrained depths' rows go to a pooled chunk sink and are copied once
// into the exact output, and fillTail writes the tail's columns there.
func (c *Compiled) solveWalk(stop func() bool, ps *ProgressSink) (*Columnar, EnumStats, bool) {
	var es EnumStats
	snk := newSink(c.tailStart)
	defer snk.reset()
	if c.enumColumnar(snk, nil, c.newState(), stop, &es, ps) {
		return c.newColumnar(0), es, true
	}
	out := c.newColumnar(snk.rows)
	snk.copyRows(c.sinkCols(out), 0, 0, snk.rows)
	c.fillTail(out)
	return out, es, false
}
