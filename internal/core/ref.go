package core

import (
	"math"

	"searchspace/internal/value"
)

// This file preserves the pre-kernel enumeration path verbatim: per-check
// closures chained per depth, a per-node walk with no tail expansion, and
// per-row column appends. It exists as the reference the byte-parity
// suites pin the kernel against, and as the "before" side of
// BenchmarkKernelVsReferenceSparse. It is not used on any hot path.

// checkFn evaluates one registered check against the current partial
// assignment held in state.
type checkFn func(st *state) bool

// refChecks holds the closure form of the per-depth check lists, built
// on demand from the compiled constraints.
type refChecks struct {
	full    [][]checkFn
	partial [][]checkFn
}

// buildRefChecks lowers the compiled runtime constraints into the
// original closure lists, honoring the Options Compile ran with, so the
// reference enumerator checks exactly what the kernel's instruction
// tables check. Built once per Compiled and memoized: historically the
// closures were built inside Compile, so charging them to every
// reference enumeration would inflate the "before" side of before/after
// benchmarks.
func (c *Compiled) buildRefChecks() *refChecks {
	c.refOnce.Do(func() { c.ref = c.buildRefChecksLocked() })
	return c.ref
}

func (c *Compiled) buildRefChecksLocked() *refChecks {
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
	case conExactSum:
		numeric, _ := domainsNumeric(doms, con.vars)
		if !numeric {
			return
		}
		rc.buildExactSumClosures(c, con, doms)
	case conAllDiff:
		rc.buildAllDiffClosures(c, con)
	case conAllEqual:
		rc.buildAllEqualClosures(c, con)
	}
}

func (rc *refChecks) buildExactSumClosures(c *Compiled, con *constraint, doms [][]entry) {
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
		target, lo, hi := con.bound, minC[i], maxC[i]
		rc.partial[depths[i]] = append(rc.partial[depths[i]], func(st *state) bool {
			sum := 0.0
			for _, vi := range prefix {
				sum += st.nums[vi]
			}
			return sum+lo <= target && sum+hi >= target
		})
	}
}

func (rc *refChecks) buildAllDiffClosures(c *Compiled, con *constraint) {
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
		rc.partial[depths[i]] = append(rc.partial[depths[i]], func(st *state) bool {
			for a := 0; a < len(prefix); a++ {
				for b := a + 1; b < len(prefix); b++ {
					if value.Equal(st.vals[prefix[a]], st.vals[prefix[b]]) {
						return false
					}
				}
			}
			return true
		})
	}
}

func (rc *refChecks) buildAllEqualClosures(c *Compiled, con *constraint) {
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
		rc.partial[depths[i]] = append(rc.partial[depths[i]], func(st *state) bool {
			first := st.vals[prefix[0]]
			for _, vi := range prefix[1:] {
				if !value.Equal(first, st.vals[vi]) {
					return false
				}
			}
			return true
		})
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
// per-row-appended columns — the pre-kernel SolveColumnarStop, including
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
