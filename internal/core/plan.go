package core

import (
	"math"
	"slices"

	"searchspace/internal/expr"
)

// This file builds the walk plan enumColumnar follows: per constrained
// depth, which candidates the walk tries and which instructions it runs
// on each. Three compile-time moves take work out of the walk without
// changing any accept/reject decision — every candidate with a valid
// completion is still accepted exactly when runProg would accept it over
// c.prog[d]:
//
//   - Survivor tables. Instructions whose reads of earlier depths fit in
//     at most two key depths, with a small enough tuple space, are
//     evaluated once here over every tuple of those depths' domains.
//     The walk then iterates only the surviving domain positions for
//     the current key assignment, in ascending order.
//   - Monotone cut-offs. On a strictly ascending numeric domain, an
//     instruction proven to keep failing as the depth's value grows
//     passes only a prefix of the depth's ascending survivor list; the
//     walk finds that prefix once at depth entry and tries only it.
//
// Candidates stay in ascending declared order, so the emitted row order
// is unchanged. Native Go functions are neither tabled nor cut: they are
// opaque and may be impure. ForEachStop, the pinned prefixes of parallel
// tasks and Restrict keep running the full instruction tables.

// depthPlan is how enumColumnar walks one depth. For each assignment of
// the key depths, surv[off[t]:off[t+1]] lists the ascending domain
// positions at this depth that pass every tabled instruction; t is the
// mixed-radix index of the key depths' domain positions (keys[0] most
// significant, strides parallel to keys). A depth with nothing tabled has
// no keys and one list: its whole domain. cut holds the instructions
// that fail for every later candidate once they fail, applied once per
// depth entry (see candidates); its last envelopes entries are envelope
// copies of deeper instructions. prog holds the rest, run per candidate.
type depthPlan struct {
	keys      []int
	strides   []int
	off       []int32
	surv      []int32
	cut       []instr
	envelopes int
	prog      []instr
}

// survivors returns the candidate positions for the key depths'
// current domain positions.
func (pl *depthPlan) survivors(pos []int) []int32 {
	t := 0
	for i, kd := range pl.keys {
		t += pos[kd] * pl.strides[i]
	}
	return pl.surv[pl.off[t]:pl.off[t+1]]
}

// buildPlan fills c.plan for every constrained depth, adds the envelope
// cut-offs and finds the product depth.
func (c *Compiled) buildPlan() {
	c.plan = make([]depthPlan, c.tailStart)
	st := c.newState()
	for d := range c.plan {
		c.plan[d] = c.planDepth(d, st)
	}
	for h := range c.plan {
		for i := range c.prog[h] {
			ins := &c.prog[h][i]
			if ins.op != opNumCmp {
				continue
			}
			for _, vi := range ins.vars {
				d := c.pos[vi]
				if d >= h || len(c.doms[d]) < 2 {
					continue
				}
				if env, ok := c.envelope(ins, d); ok && c.failsUpward(&env, d) {
					c.plan[d].cut = append(c.plan[d].cut, env)
					c.plan[d].envelopes++
				}
			}
		}
	}
	c.prodFrom = c.productFrom()
}

// envelope returns a copy of the opNumCmp instruction ins that reads
// only depths up to d: each variable y it reads after d is replaced by
// the end of y's domain that makes every comparison link easiest to
// pass — the minimum when a link's failure grows with y, the maximum
// when it shrinks. numDirections' intervals span every remaining domain,
// so that monotonicity in y holds whatever the other variables are; if
// the full check passes for some completion, moving each y in turn to
// its end keeps it passing, so the envelope passes too. It declines when
// links disagree on an end, an ==/!= link moves with y, or y's domain is
// not numeric and finite. The ends are domain values, so Compile's
// exactness bound covers the copy.
func (c *Compiled) envelope(ins *instr, d int) (instr, bool) {
	env := *ins
	env.num = slices.Clone(ins.num)
	env.vars = nil
	for _, y := range ins.vars {
		if c.pos[y] <= d {
			env.vars = append(env.vars, y)
			continue
		}
		lo, ok := c.finiteMin(y)
		if !ok {
			return instr{}, false
		}
		// worse: the direction in y in which some link gets harder to pass.
		worse := dirConst
		dirs := c.numDirections(ins, y)
		for j, op := range ins.cmpOps {
			diff := dirAdd(dirs[j], dirNeg(dirs[j+1]))
			switch op {
			case expr.OpLt, expr.OpLe:
			case expr.OpGt, expr.OpGe:
				diff = dirNeg(diff)
			default:
				if diff != dirConst {
					return instr{}, false
				}
			}
			if worse = dirAdd(worse, diff); worse == dirAny {
				return instr{}, false
			}
		}
		end := lo
		if worse == dirDown {
			_, end = domainMinMax(c.doms[c.pos[y]])
		}
		for j := range env.num {
			if ni := &env.num[j]; ni.op == nPushVar && ni.slot == y {
				*ni = numInstr{op: nPushConst, imm: end}
			}
		}
	}
	return env, true
}

// productFrom returns the shallowest depth pf from which the walk's
// remaining constrained depths form a product: every depth t from pf to
// the deepest constrained depth has no per-candidate instruction, keys
// its survivor table only on depths before pf, and has cut-offs that
// read only depths before pf and t itself. Each such depth's walk list
// then depends only on the depths before pf, so the subtree below an
// assignment of them is the cartesian product of those lists and the
// tail. It returns tailStart when the deepest constrained depth has a
// per-candidate instruction.
func (c *Compiled) productFrom() int {
	pf := c.tailStart
	for ; pf > 0; pf-- {
		p := pf - 1
		for t := p; t < c.tailStart; t++ {
			pl := &c.plan[t]
			if len(pl.prog) != 0 || len(pl.keys) != 0 && pl.keys[len(pl.keys)-1] >= p {
				return pf
			}
			for i := range pl.cut {
				for _, vi := range pl.cut[i].vars {
					if r := c.pos[vi]; r >= p && r != t {
						return pf
					}
				}
			}
		}
	}
	return pf
}

// planDepth splits depth d's instruction table into tabled, cut and
// per-candidate instructions and builds the survivor table. Instructions
// are taken for the table greedily in table order while the key depths
// stay within two and the tuple space within memoTableMax.
func (c *Compiled) planDepth(d int, st *state) depthPlan {
	var pl depthPlan
	var tabled []instr
	for i := range c.prog[d] {
		ins := &c.prog[d][i]
		if ins.op != opGoFunc {
			if keys, ok := c.widenKeys(pl.keys, ins, d); ok {
				pl.keys = keys
				tabled = append(tabled, *ins)
				continue
			}
		}
		if c.failsUpward(ins, d) {
			pl.cut = append(pl.cut, *ins)
		} else {
			pl.prog = append(pl.prog, *ins)
		}
	}

	nd := len(c.doms[d])
	if len(tabled) == 0 {
		pl.off = []int32{0, int32(nd)}
		pl.surv = make([]int32, nd)
		for p := range pl.surv {
			pl.surv[p] = int32(p)
		}
		return pl
	}
	pl.strides = make([]int, len(pl.keys))
	stride := 1
	for i := len(pl.keys) - 1; i >= 0; i-- {
		pl.strides[i] = stride
		stride *= len(c.doms[pl.keys[i]])
	}
	depths := append(append([]int(nil), pl.keys...), d)
	vars := make([]int, len(depths))
	doms := make([][]entry, len(depths))
	for j, td := range depths {
		vars[j], doms[j] = c.order[td], c.doms[td]
	}
	pl.off = make([]int32, 1, stride+1)
	eachTuple(vars, doms, st, func(idx int) {
		if runProg(tabled, st) {
			pl.surv = append(pl.surv, int32(idx%nd))
		}
		if idx%nd == nd-1 {
			pl.off = append(pl.off, int32(len(pl.surv)))
		}
	})
	return pl
}

// widenKeys returns keys extended by the earlier depths ins reads, in
// ascending order, and whether the result still fits a survivor table.
func (c *Compiled) widenKeys(keys []int, ins *instr, d int) ([]int, bool) {
	out := append([]int(nil), keys...)
	for _, vi := range ins.vars {
		if kd := c.pos[vi]; kd != d && !slices.Contains(out, kd) {
			out = append(out, kd)
		}
	}
	cells := len(c.doms[d])
	if len(out) > 2 || cells > memoTableMax {
		return nil, false
	}
	for _, kd := range out {
		if cells > memoTableMax/len(c.doms[kd]) {
			return nil, false
		}
		cells *= len(c.doms[kd])
	}
	slices.Sort(out)
	return out, true
}

// eachTuple loads every tuple of the cartesian product of doms into st's
// value views — vars[j] takes its values from doms[j], vars[0] varies
// slowest — and calls fn with the tuple's mixed-radix index. It declines,
// returning false without calling fn, when the product exceeds
// memoTableMax.
func eachTuple(vars []int, doms [][]entry, st *state, fn func(idx int)) bool {
	total := 1
	for _, dom := range doms {
		if len(dom) == 0 || total > memoTableMax/len(dom) {
			return false
		}
		total *= len(dom)
	}
	for idx := 0; idx < total; idx++ {
		rem := idx
		for j := len(vars) - 1; j >= 0; j-- {
			e := &doms[j][rem%len(doms[j])]
			rem /= len(doms[j])
			st.vals[vars[j]] = e.val
			st.nums[vars[j]] = e.num
			st.ints[vars[j]] = e.i
		}
		fn(idx)
	}
	return true
}

// failsUpward reports whether ins, run at depth d, is proven to keep
// failing for every larger value of depth d's variable once it fails,
// with the other variables it reads held fixed. Depth d's domain must be
// numeric, finite and strictly ascending, so later candidates are larger
// values. The proof depends on the shape:
//
//   - opProdMax: every factor's domain and the base are non-negative and
//     finite, so the product never shrinks as one factor grows (IEEE
//     multiplication is monotone, overflow included).
//   - opSumMax / opSumMin: every coefficient on the variable is
//     non-negative (opSumMax) or non-positive (opSumMin), so the sum
//     moves only toward failure.
//   - opNumCmp: every comparison link's left-minus-right is constant or
//     moves toward failure, by the direction analysis in numDirections.
//     Its arithmetic is exact (compile proved |x| < 2^53), so the
//     analysis over the integers holds for the float64 evaluation.
func (c *Compiled) failsUpward(ins *instr, d int) bool {
	prev := math.Inf(-1)
	for _, e := range c.doms[d] {
		if !e.isNum || !(e.num > prev) || math.IsInf(e.num, 1) {
			return false
		}
		prev = e.num
	}
	x := c.order[d]
	switch ins.op {
	case opProdMax:
		if !(ins.base >= 0) || math.IsInf(ins.base, 0) || !isFinite(ins.bound) {
			return false
		}
		for _, vi := range ins.vars {
			lo, ok := c.finiteMin(vi)
			if !ok || lo < 0 {
				return false
			}
		}
		return true
	case opSumMax, opSumMin:
		if !isFinite(ins.base) || !isFinite(ins.bound) {
			return false
		}
		for i, vi := range ins.vars {
			if _, ok := c.finiteMin(vi); !ok || !isFinite(ins.coeffs[i]) {
				return false
			}
			if vi == x && (ins.op == opSumMax && ins.coeffs[i] < 0 || ins.op == opSumMin && ins.coeffs[i] > 0) {
				return false
			}
		}
		return true
	case opNumCmp:
		dirs := c.numDirections(ins, x)
		for j, op := range ins.cmpOps {
			diff := dirAdd(dirs[j], dirNeg(dirs[j+1]))
			switch op {
			case expr.OpLt, expr.OpLe:
				if diff != dirConst && diff != dirUp {
					return false
				}
			case expr.OpGt, expr.OpGe:
				if diff != dirConst && diff != dirDown {
					return false
				}
			default:
				if diff != dirConst {
					return false
				}
			}
		}
		return true
	}
	return false
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// finiteMin returns the smallest remaining value of variable vi, and
// whether every remaining value is numeric and finite.
func (c *Compiled) finiteMin(vi int) (float64, bool) {
	dom := c.doms[c.pos[vi]]
	for _, e := range dom {
		if !e.isNum || !isFinite(e.num) {
			return 0, false
		}
	}
	lo, _ := domainMinMax(dom)
	return lo, true
}

// Directions of a quantity in one variable x, and signs of an interval,
// share one encoding: constant / zero, non-decreasing / non-negative,
// non-increasing / non-positive, or unknown.
const (
	dirConst int8 = 0
	dirUp    int8 = 1
	dirDown  int8 = -1
	dirAny   int8 = 2
)

func dirNeg(a int8) int8 {
	if a == dirAny {
		return a
	}
	return -a
}

func dirAdd(a, b int8) int8 {
	switch {
	case a == dirConst:
		return b
	case b == dirConst || a == b:
		return a
	}
	return dirAny
}

func dirMul(a, b int8) int8 {
	switch {
	case a == dirConst || b == dirConst:
		return dirConst
	case a == dirAny || b == dirAny:
		return dirAny
	}
	return a * b
}

func signOf(lo, hi float64) int8 {
	switch {
	case lo == 0 && hi == 0:
		return dirConst
	case lo >= 0:
		return dirUp
	case hi <= 0:
		return dirDown
	}
	return dirAny
}

// numDirections runs an opNumCmp program abstractly, tracking for every
// stack value an interval over the remaining domains and its direction
// in variable x, and returns the directions of the comparison operands.
// A product's direction follows from a2*b2 - a1*b1 = (a2-a1)*b2 +
// a1*(b2-b1): the direction of each factor times the sign of the other.
func (c *Compiled) numDirections(ins *instr, x int) []int8 {
	type fact struct {
		lo, hi float64
		dir    int8
	}
	var stack [numStackMax]fact
	sp := 0
	for _, ni := range ins.num {
		switch ni.op {
		case nPushVar:
			lo, hi := domainMinMax(c.doms[c.pos[ni.slot]])
			f := fact{lo: lo, hi: hi}
			if ni.slot == x {
				f.dir = dirUp
			}
			stack[sp] = f
			sp++
		case nPushConst:
			stack[sp] = fact{lo: ni.imm, hi: ni.imm}
			sp++
		case nNeg:
			a := &stack[sp-1]
			a.lo, a.hi, a.dir = -a.hi, -a.lo, dirNeg(a.dir)
		default:
			sp--
			a, b := stack[sp-1], stack[sp]
			var r fact
			switch ni.op {
			case nAdd:
				r = fact{a.lo + b.lo, a.hi + b.hi, dirAdd(a.dir, b.dir)}
			case nSub:
				r = fact{a.lo - b.hi, a.hi - b.lo, dirAdd(a.dir, dirNeg(b.dir))}
			case nMul:
				p1, p2, p3, p4 := a.lo*b.lo, a.lo*b.hi, a.hi*b.lo, a.hi*b.hi
				r.lo = math.Min(math.Min(p1, p2), math.Min(p3, p4))
				r.hi = math.Max(math.Max(p1, p2), math.Max(p3, p4))
				r.dir = dirAdd(dirMul(a.dir, signOf(b.lo, b.hi)), dirMul(signOf(a.lo, a.hi), b.dir))
			case nMod:
				// Python's a % b takes the sign of b and |a % b| < |b|.
				m := math.Max(math.Abs(b.lo), math.Abs(b.hi))
				r = fact{-m, m, dirAny}
				if b.lo > 0 {
					r.lo = 0
				} else if b.hi < 0 {
					r.hi = 0
				}
				if a.dir == dirConst && b.dir == dirConst {
					r.dir = dirConst
				}
			}
			stack[sp-1] = r
		}
	}
	dirs := make([]int8, sp)
	for j := range dirs {
		dirs[j] = stack[j].dir
	}
	return dirs
}
