package core

import (
	"math"
	"sync"

	"searchspace/internal/expr"
	"searchspace/internal/value"
)

// This file keeps the pre-kernel enumeration path as a test-only
// reference: per-check closures chained per depth, a per-node walk with
// no tail expansion, and per-row column appends. The byte-parity suites
// pin the kernel against it, and it is the "before" side of
// BenchmarkKernelVsReferenceSparse. Its exported names are visible to
// the package core_test files (refparity_test.go) in the same test
// binary, and to no production code.

// checkFn evaluates one registered check against the current partial
// assignment held in state.
type checkFn func(st *state) bool

// refChecks holds the closure form of the per-depth check lists, built
// on demand from the compiled constraints.
type refChecks struct {
	full    [][]checkFn
	partial [][]checkFn
}

// refMemo maps each *Compiled to its closure checks.
var refMemo sync.Map

// buildRefChecks lowers the compiled runtime constraints into the
// original closure lists, honoring the Options Compile ran with, so the
// reference enumerator checks exactly what the kernel's instruction
// tables check. Built once per Compiled and memoized: historically the
// closures were built inside Compile, so charging them to every
// reference enumeration would inflate the "before" side of before/after
// benchmarks.
func (c *Compiled) buildRefChecks() *refChecks {
	if rc, ok := refMemo.Load(c); ok {
		return rc.(*refChecks)
	}
	rc, _ := refMemo.LoadOrStore(c, c.buildRefChecksUncached())
	return rc.(*refChecks)
}

func (c *Compiled) buildRefChecksUncached() *refChecks {
	n := len(c.order)
	rc := &refChecks{
		full:    make([][]checkFn, n),
		partial: make([][]checkFn, n),
	}
	// The partial-check builders read domains by variable index.
	doms := make([][]entry, n)
	for vi := 0; vi < n; vi++ {
		doms[vi] = c.doms[c.pos[vi]]
	}
	for _, con := range c.cons {
		last := 0
		for _, vi := range con.vars {
			if c.pos[vi] > last {
				last = c.pos[vi]
			}
		}
		con := con
		rc.full[last] = append(rc.full[last], func(st *state) bool {
			return con.satisfiedFull(st.vals, st.nums, st.scratch)
		})
		if c.opt.PartialChecks {
			rc.buildPartialClosures(c, con, doms)
		}
	}
	return rc
}

// satisfiedFull evaluates the constraint with every involved variable
// assigned. vals and nums are indexed by problem variable index; nums[i]
// is NaN when vals[i] is not numeric, which makes all numeric fast paths
// reject non-numeric assignments (mirroring Python raising a TypeError,
// which invalidates the configuration).
func (c *constraint) satisfiedFull(vals []value.Value, nums []float64, scratch []value.Value) bool {
	switch c.kind {
	case conMaxProd:
		prod := 1.0
		for _, vi := range c.argIdx {
			prod *= nums[vi]
		}
		if c.strict {
			return prod < c.bound
		}
		return prod <= c.bound

	case conMinProd:
		prod := 1.0
		for _, vi := range c.argIdx {
			prod *= nums[vi]
		}
		if c.strict {
			return prod > c.bound
		}
		return prod >= c.bound

	case conMaxSum:
		sum := 0.0
		for i, vi := range c.argIdx {
			sum += c.coeffs[i] * nums[vi]
		}
		if c.strict {
			return sum < c.bound
		}
		return sum <= c.bound

	case conMinSum:
		sum := 0.0
		for i, vi := range c.argIdx {
			sum += c.coeffs[i] * nums[vi]
		}
		if c.strict {
			return sum > c.bound
		}
		return sum >= c.bound

	case conVarCmp:
		a, b := vals[c.argIdx[0]], vals[c.argIdx[1]]
		switch c.cmpOp {
		case expr.OpEq:
			return value.Equal(a, b)
		case expr.OpNe:
			return !value.Equal(a, b)
		}
		cmp, err := value.Compare(a, b)
		if err != nil {
			return false
		}
		switch c.cmpOp {
		case expr.OpLt:
			return cmp < 0
		case expr.OpLe:
			return cmp <= 0
		case expr.OpGt:
			return cmp > 0
		case expr.OpGe:
			return cmp >= 0
		}
		return false

	case conDivides:
		rem, err := value.Mod(vals[c.argIdx[0]], vals[c.argIdx[1]])
		if err != nil {
			return false
		}
		return rem.Float() == 0

	case conFunc, conUnary:
		ok, err := c.pred(vals)
		return err == nil && ok

	case conGoFunc:
		for i, vi := range c.argIdx {
			scratch[i] = vals[vi]
		}
		return c.goFn(scratch[:len(c.argIdx)])
	}
	return false
}

// buildPartialClosures registers early rejection closures for one
// specific constraint — the retired closure twins of buildPartialInstrs.
func (rc *refChecks) buildPartialClosures(c *Compiled, con *constraint, doms [][]entry) {
	switch con.kind {
	case conMaxProd, conMinProd:
		numeric, positive := domainsNumeric(doms, con.vars)
		if !numeric || !positive {
			return
		}
		rc.buildProdClosures(c, con, doms)
	case conMaxSum, conMinSum:
		numeric, _ := domainsNumeric(doms, con.vars)
		if !numeric {
			return
		}
		rc.buildSumClosures(c, con, doms)
	}
}

func (rc *refChecks) buildProdClosures(c *Compiled, con *constraint, doms [][]entry) {
	depths, occs := c.argsByDepth(con)
	if len(depths) < 2 {
		return
	}
	isMax := con.kind == conMaxProd
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
	for i := 0; i < len(depths)-1; i++ {
		prefixVars := make([]int, 0)
		for j := 0; j <= i; j++ {
			for _, k := range occs[j] {
				prefixVars = append(prefixVars, con.argIdx[k])
			}
		}
		bound, strict, completion := con.bound, con.strict, extreme[i]
		var chk checkFn
		if isMax {
			chk = func(st *state) bool {
				prod := completion
				for _, vi := range prefixVars {
					prod *= st.nums[vi]
				}
				if strict {
					return prod < bound
				}
				return prod <= bound
			}
		} else {
			chk = func(st *state) bool {
				prod := completion
				for _, vi := range prefixVars {
					prod *= st.nums[vi]
				}
				if strict {
					return prod > bound
				}
				return prod >= bound
			}
		}
		rc.partial[depths[i]] = append(rc.partial[depths[i]], chk)
	}
}

func (rc *refChecks) buildSumClosures(c *Compiled, con *constraint, doms [][]entry) {
	depths, occs := c.argsByDepth(con)
	if len(depths) < 2 {
		return
	}
	isMax := con.kind == conMaxSum
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
	for i := 0; i < len(depths)-1; i++ {
		type term struct {
			vi    int
			coeff float64
		}
		var prefix []term
		for j := 0; j <= i; j++ {
			for _, k := range occs[j] {
				prefix = append(prefix, term{con.argIdx[k], con.coeffs[k]})
			}
		}
		bound, strict, completion := con.bound, con.strict, extreme[i]
		var chk checkFn
		if isMax {
			chk = func(st *state) bool {
				sum := completion
				for _, t := range prefix {
					sum += t.coeff * st.nums[t.vi]
				}
				if strict {
					return sum < bound
				}
				return sum <= bound
			}
		} else {
			chk = func(st *state) bool {
				sum := completion
				for _, t := range prefix {
					sum += t.coeff * st.nums[t.vi]
				}
				if strict {
					return sum > bound
				}
				return sum >= bound
			}
		}
		rc.partial[depths[i]] = append(rc.partial[depths[i]], chk)
	}
}

// ForEachStopRef is the retired per-node, closure-dispatch enumeration
// loop, byte-for-byte the pre-kernel ForEachStop. The returned nodes
// count is the loop's iteration count (value trials plus pops), directly
// comparable to EnumStats.Nodes.
func (c *Compiled) ForEachStopRef(stop func() bool, yield func(idx []int32) bool) (nodes int64, canceled bool) {
	if c.empty || len(c.order) == 0 {
		return 0, false
	}
	rc := c.buildRefChecks()
	n := len(c.order)
	st := c.newState()
	idxOut := st.idx
	trial := st.trial
	trial[0] = -1
	depth := 0
	for depth >= 0 {
		if nodes&int64(stopCheckMask) == 0 && stop != nil && stop() {
			return nodes, true
		}
		nodes++
		trial[depth]++
		dom := c.doms[depth]
		if trial[depth] >= len(dom) {
			depth--
			continue
		}
		vi := c.order[depth]
		e := &dom[trial[depth]]
		st.vals[vi] = e.val
		st.nums[vi] = e.num
		idxOut[vi] = e.orig

		ok := true
		for _, chk := range rc.partial[depth] {
			if !chk(st) {
				ok = false
				break
			}
		}
		if ok {
			for _, chk := range rc.full[depth] {
				if !chk(st) {
					ok = false
					break
				}
			}
		}
		if !ok {
			continue
		}
		if depth == n-1 {
			if !yield(idxOut) {
				return nodes, false
			}
			continue
		}
		depth++
		trial[depth] = -1
	}
	return nodes, false
}

// SolveColumnarRef enumerates all solutions with the reference loop into
// per-row-appended columns — the pre-kernel sequential solve, including
// its per-column growth pattern. Returns the node-visit count alongside
// the output for before/after comparisons.
func (c *Compiled) SolveColumnarRef(stop func() bool) (*Columnar, int64, bool) {
	out := &Columnar{
		Names: append([]string(nil), c.names...),
		Cols:  make([][]int32, len(c.names)),
	}
	nodes, canceled := c.ForEachStopRef(stop, func(idx []int32) bool {
		for vi, di := range idx {
			out.Cols[vi] = append(out.Cols[vi], di)
		}
		return true
	})
	return out, nodes, canceled
}
