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
// block of their domains straight into columnar storage as
// repeated/tiled index runs instead of visiting every node; a one-row
// block writes one cell per column. The constrained depths above the
// tail follow the walk plan (plan.go): survivor tables and monotone
// cut-offs skip only values the instruction tables would reject. When
// the deepest constrained depth has no per-candidate check left, its
// whole walk list is emitted at depth entry as one batch of blocks; the
// batch is charged the nodes and blocks the per-node walk would have
// spent, so EnumStats and the stop cadence do not change.
//
// Output takes one of two paths. A space whose constrained depths form
// one component is walked as one tree: rows go to a sink of pooled
// fixed-size chunks and are copied once, at the end, into one exactly
// sized backing array. A space whose constrained depths split into
// independent components (product.go) solves each component with this
// walk, and then, knowing the row count, allocates the exact backing
// once and writes every cell of the product into it once: no chunks and
// no copy. Either way, emission order is exactly the order the per-node
// walk over the whole space would have produced, so output stays
// byte-identical (the contract the golden parity suite and the
// service's compare checksums verify).

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
// the constrained walk's loop iterations: candidates tried plus one pop
// per depth entry, which is also what a walk that tried candidates up
// to the first cut-off failure would count. Blocks
// counts the bulk tail expansions, and BlockRows the rows those blocks
// emitted without per-node visits. A leaf depth emitted as one batch is
// charged what the per-node walk would have charged: one node per list
// entry plus the pop, and one block per entry. Survivor tables and
// cut-offs skip values outright, so Nodes is below what
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

// chunk is one fixed run of sink rows, column-major: column vi's rows
// live at buf[vi*stride : vi*stride+rows].
type chunk struct {
	buf    []int32
	stride int      // row capacity per column
	rows   int      // rows written
	start  int      // the sink row index of the chunk's first row
	pooled *[]int32 // the pool's handle, nil for an oversize chunk
}

// sink is the kernel's columnar output buffer: a list of fixed-size
// chunks taken from chunkPool, so the output never regrows or copies
// while the walk runs. A block that does not fit in the current chunk's
// remainder opens the next chunk; a block larger than a whole chunk gets
// its own exactly sized, unpooled chunk. Rows are numbered across chunks
// in emission order. When the run ends, copyRows moves them once into an
// exactly sized output and reset hands the chunks back to the pool. A
// parallel worker keeps one sink for all its tasks and records each
// task's row range in it. A leaf batch is written as one run, split only
// where it would overflow a chunk; its EnumStats Nodes and Blocks are
// what the per-node walk would have charged, not the one step it takes.
type sink struct {
	nvars     int
	chunkRows int // row capacity of a pooled chunk
	rows      int // rows emitted
	chunks    []chunk
}

func newSink(nvars int) *sink {
	return &sink{nvars: nvars, chunkRows: chunkCells / nvars}
}

// reserve appends rows rows to the sink and returns the chunk storage
// they occupy: column vi's new rows are buf[vi*stride+base:][:rows].
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
		ch.buf, ch.stride = make([]int32, s.nvars*rows), rows
	}
	s.chunks = append(s.chunks, ch)
	s.rows += rows
	return ch.buf, ch.stride, 0
}

// copyRows copies the sink's rows [from, to) into cols, starting at row
// at of every column.
func (s *sink) copyRows(cols [][]int32, at, from, to int) {
	i := sort.Search(len(s.chunks), func(i int) bool {
		return s.chunks[i].start+s.chunks[i].rows > from
	})
	for ; from < to; i++ {
		ch := &s.chunks[i]
		lo, hi := from-ch.start, min(ch.rows, to-ch.start)
		for vi, col := range cols {
			copy(col[at:], ch.buf[vi*ch.stride+lo:vi*ch.stride+hi])
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
// runs one-row blocks and leaf batches produce, doubling copies for long
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

// emitLeaves appends one block per entry of list, the domain positions
// of depth blockStart-1 in walk order: the rows the per-node walk would
// have emitted trying each entry in turn. The list is split so that
// every run fits a pooled chunk.
func (c *Compiled) emitLeaves(snk *sink, idx []int32, list []int32, blockStart, blockRows int) {
	per := max(1, snk.chunkRows/blockRows)
	for len(list) > 0 {
		m := min(per, len(list))
		c.emitBlock(snk, idx, list[:m], blockStart, blockRows)
		list = list[m:]
	}
}

// emitBlock appends the cartesian block of the solve-order domains
// [blockStart, n) to the sink, with every variable before blockStart
// pinned to its current idx assignment. Rows land in exactly the order
// the per-node walk would have emitted them: depth blockStart varies
// slowest, the deepest depth fastest, each domain in entry order. A
// non-nil list emits one such block per entry instead, depth
// blockStart-1 taking the entry's domain position in list order.
func (c *Compiled) emitBlock(snk *sink, idx []int32, list []int32, blockStart, blockRows int) {
	leaf := -1
	count := 1
	if list != nil {
		leaf, count = blockStart-1, len(list)
	}
	rows := count * blockRows
	buf, stride, base := snk.reserve(rows)
	if rows == 1 {
		// A single-valued tail (common: fixed parameters sort last)
		// makes every block one row; write one cell per column.
		for d, vi := range c.order {
			v := idx[vi]
			if d >= blockStart {
				v = c.doms[d][0].orig
			} else if d == leaf {
				v = c.doms[d][list[0]].orig
			}
			buf[vi*stride+base] = v
		}
		return
	}
	for d := 0; d < blockStart; d++ {
		vi := c.order[d]
		seg := buf[vi*stride+base : vi*stride+base+rows]
		if d != leaf {
			fillInt32(seg, idx[vi])
			continue
		}
		dom := c.doms[d]
		for j, p := range list {
			fillInt32(seg[j*blockRows:(j+1)*blockRows], dom[p].orig)
		}
	}
	inner := 1
	for d := len(c.order) - 1; d >= blockStart; d-- {
		vi := c.order[d]
		dom := c.doms[d]
		seg := buf[vi*stride+base : vi*stride+base+rows]
		if len(dom) == 1 {
			fillInt32(seg, dom[0].orig)
			continue
		}
		// One period: each remaining domain value repeated inner times…
		p := 0
		for k := range dom {
			fillInt32(seg[p:p+inner], dom[k].orig)
			p += inner
		}
		// …then tiled across the run by doubling copies (every block
		// repeats the same period).
		for p < rows {
			p += copy(seg[p:], seg[:p])
		}
		inner *= len(dom)
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
		c.emitBlock(snk, st.idx, nil, blockStart, int(blockRows))
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

	// leaf is the deepest constrained depth. With no per-candidate
	// instruction left there, every listed candidate emits a block, so
	// the whole list goes out as one batch at depth entry.
	leaf := blockStart - 1
	batchLeaf := len(c.plan[leaf].prog) == 0
	trial := st.trial
	depth := k
	trial[depth] = -1
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
		vi := c.order[depth]
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
			c.emitBlock(snk, st.idx, nil, blockStart, int(blockRows))
			nodes += tailNodes
			blocks++
			continue
		}
		depth++
		trial[depth] = -1
		list := c.candidates(depth, st)
		st.surv[depth] = list
		if depth == leaf && batchLeaf {
			// The per-node walk would try every entry, emit its block
			// and pop. Take that as one batch when its whole charge
			// ends at or before the next poll point: then no poll falls
			// inside it, and the walk polls where it would have.
			charge := int64(len(list))*(1+tailNodes) + 1
			if nodes+charge <= nextPoll {
				c.emitLeaves(snk, st.idx, list, blockStart, int(blockRows))
				nodes += charge
				blocks += int64(len(list))
				depth--
				st.batched++
			} else {
				st.declined++
			}
		}
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

// SolveColumnarStatsSink is the sequential columnar solve, the one entry
// point every single-worker path goes through. It reports kernel
// execution stats: constrained node visits, bulk blocks and block rows.
// ps, when non-nil, sees node and row counts grow while the enumeration
// runs. The rows land in one exactly sized backing array; a canceled run
// returns no rows. A space whose constrained depths split into
// independent components takes the product path (product.go); any
// other space is walked as one tree (solveWalk).
func (c *Compiled) SolveColumnarStatsSink(stop func() bool, ps *ProgressSink) (*Columnar, EnumStats, bool) {
	if c.empty || len(c.order) == 0 {
		return c.newColumnar(0), EnumStats{}, false
	}
	if c.product != nil {
		return c.solveProduct(Exec{Workers: 1, Stop: stop, Sink: ps})
	}
	return c.solveWalk(stop, ps)
}

// solveWalk is the sequential columnar solve as one planned walk: rows
// go to a pooled chunk sink and are copied once into the exact output.
func (c *Compiled) solveWalk(stop func() bool, ps *ProgressSink) (*Columnar, EnumStats, bool) {
	var es EnumStats
	snk := newSink(len(c.names))
	defer snk.reset()
	if c.enumColumnar(snk, nil, c.newState(), stop, &es, ps) {
		return c.newColumnar(0), es, true
	}
	out := c.newColumnar(snk.rows)
	snk.copyRows(out.Cols, 0, 0, snk.rows)
	return out, es, false
}
