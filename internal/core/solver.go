package core

// ForEach enumerates every valid configuration, invoking yield with the
// per-variable original-domain indices (problem definition order). The
// slice is reused between calls; copy it to retain. Return false from
// yield to stop early (used by the blocking-clause baseline to extract a
// single solution).
//
// This is Algorithm 1 of the paper, implemented iteratively with an
// explicit trial-index stack and in-place undo rather than a stack of
// copied states: equivalent search tree, no per-node allocation. Checks
// run through the typed instruction tables (kernel.go) instead of
// closure chains.
func (c *Compiled) ForEach(yield func(idx []int32) bool) {
	c.ForEachStop(nil, yield)
}

// stopCheckMask sets how often the enumeration loops poll their stop
// function: every 8192 search-tree node visits. Node visits — not
// solutions — so even a heavily constrained space that rarely yields
// still observes cancellation promptly.
const stopCheckMask = 8192 - 1

// ForEachStop is ForEach with cooperative cancellation: every few
// thousand search-tree nodes it polls stop and abandons the enumeration
// when it returns true. The canceled return distinguishes an abandoned
// run from a completed (or yield-terminated) one. A nil stop never
// cancels.
//
// ForEachStop visits every node and yields one row at a time — that is
// its contract (callers break early, count, or stream). It runs the
// full instruction tables on the plain walk: bulk tail expansion and
// the walk plan's survivor tables and cut-offs apply to the columnar
// solvers, where output is storage, not control flow.
func (c *Compiled) ForEachStop(stop func() bool, yield func(idx []int32) bool) (canceled bool) {
	if c.empty || len(c.order) == 0 {
		return false
	}
	n := len(c.order)
	st := c.newState()
	idxOut := st.idx
	trial := st.trial
	trial[0] = -1
	depth := 0
	nodes := 0
	for depth >= 0 {
		if nodes&stopCheckMask == 0 && stop != nil && stop() {
			return true
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
		st.ints[vi] = e.i
		idxOut[vi] = e.orig

		if prog := c.prog[depth]; len(prog) != 0 && !runProg(prog, st) {
			continue
		}
		if depth == n-1 {
			if !yield(idxOut) {
				return false
			}
			continue
		}
		depth++
		trial[depth] = -1
	}
	return false
}

// Count returns the number of valid configurations without storing them.
func (c *Compiled) Count() int {
	count := 0
	c.ForEach(func([]int32) bool {
		count++
		return true
	})
	return count
}

// First returns the first valid configuration found, or ok=false when the
// space is empty.
func (c *Compiled) First() (idx []int32, ok bool) {
	c.ForEach(func(sol []int32) bool {
		idx = append([]int32(nil), sol...)
		ok = true
		return false
	})
	return idx, ok
}

// Columnar is the struct-of-arrays output format (§4.3.4): one column of
// original-domain indices per variable, parallel across solutions. It is
// the cheapest format to produce and the one the SearchSpace
// representation consumes directly.
type Columnar struct {
	Names []string
	Cols  [][]int32
}

// NumSolutions returns the number of stored configurations.
func (s *Columnar) NumSolutions() int {
	if len(s.Cols) == 0 {
		return 0
	}
	return len(s.Cols[0])
}

// SolveColumnar enumerates all solutions into columnar form on one
// worker; see SolveColumnarExec.
func (c *Compiled) SolveColumnar() *Columnar {
	out, _, _ := c.SolveColumnarExec(Exec{Workers: 1})
	return out
}
