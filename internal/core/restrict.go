package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"searchspace/internal/value"
)

// This file implements the bulk columnar restrict path: instead of
// re-enumerating a tightened definition from scratch, the delta
// constraints (the ones the cached superset was not built with) are
// lowered through the same fullInstr tables the kernel runs, evaluated
// row-wise over the superset's columns, and the survivors re-sorted
// into the tightened definition's native emission order. Because every
// construction method emits the valid rows sorted lexicographically by
// ascending declared-domain index under a method-specific variable
// permutation, filter + re-sort reproduces a fresh build byte for byte.

// RowFilter is a compiled row-wise evaluator for a delta constraint
// set: every constraint of the source problem (unary included) lowered
// into one flat instruction table run against fully-assigned rows.
// Constraints over a small domain product are additionally memoized
// into truth tables (memos), so the hot scan never enters the
// expression interpreter for them.
type RowFilter struct {
	names   []string
	memos   []memoCheck
	prog    []instr
	needed  []int // variable indices the residual program reads
	nvars   int
	maxArgs int
	unsat   bool
	doms    [][]entry // declared-domain entry tables by variable index
}

// memoTableMax bounds the tuple space pre-evaluated into one table: a
// delta constraint's truth table here, a depth's survivor table in the
// walk plan (plan.go). Delta constraints are typically unary or binary,
// so their tuple spaces are tiny (tens of cells); the cap only keeps
// pathological wide constraints on the interpreter path.
const memoTableMax = 1 << 12

// memoCheck is one delta constraint pre-evaluated over the cartesian
// product of its variables' declared domains: table[idx] is the
// constraint's truth value at the tuple whose mixed-radix index is
// idx (vars[0] most significant). Checking a row is then a handful of
// multiply-adds and one load — the 347k-row scan never pays the
// interpreter's per-row closure dispatch.
type memoCheck struct {
	vars  []int
	sizes []int32 // declared domain size per var, parallel to vars
	table []bool
}

// CompileRestrict lowers the problem's constraints for row-wise
// evaluation over declared-domain indices. Unlike Compile, nothing is
// pruned or reordered: the input rows are complete assignments, so
// every constraint — unary ones too — becomes a full check over the
// declared domains.
func (p *Problem) CompileRestrict() *RowFilter {
	n := len(p.names)
	rf := &RowFilter{
		names: append([]string(nil), p.names...),
		nvars: n,
		unsat: p.unsat,
	}
	doms := make([][]entry, n)
	for vi, d := range p.domains {
		es := make([]entry, len(d))
		for k, v := range d {
			es[k] = makeEntry(v, int32(k))
		}
		doms[vi] = es
	}
	rf.doms = doms
	seen := make([]bool, n)
	for _, con := range p.cons {
		if m, ok := memoize(con, doms, p.nameIdx); ok {
			rf.memos = append(rf.memos, m)
			continue
		}
		if len(con.argIdx) > rf.maxArgs {
			rf.maxArgs = len(con.argIdx)
		}
		rf.prog = append(rf.prog, fullInstr(con, doms, p.nameIdx))
		for _, vi := range con.vars {
			if !seen[vi] {
				seen[vi] = true
				rf.needed = append(rf.needed, vi)
			}
		}
	}
	return rf
}

// memoize pre-evaluates con over the cartesian product of its declared
// domains, returning a truth table the scan can index instead of
// interpreting the constraint per row. Declines (ok=false) when the
// tuple space exceeds memoTableMax.
func memoize(con *constraint, doms [][]entry, nameIdx map[string]int) (memoCheck, bool) {
	sizes := make([]int32, len(con.vars))
	tdoms := make([][]entry, len(con.vars))
	nvars := 0
	for j, vi := range con.vars {
		tdoms[j] = doms[vi]
		sizes[j] = int32(len(doms[vi]))
		if vi >= nvars {
			nvars = vi + 1
		}
	}
	st := &state{
		vals:    make([]value.Value, nvars),
		nums:    make([]float64, nvars),
		ints:    make([]int64, nvars),
		scratch: make([]value.Value, len(con.argIdx)),
	}
	prog := []instr{fullInstr(con, doms, nameIdx)}
	var table []bool
	if !eachTuple(con.vars, tdoms, st, func(int) { table = append(table, runProg(prog, st)) }) {
		return memoCheck{}, false
	}
	return memoCheck{vars: con.vars, sizes: sizes, table: table}, true
}

// Unsat reports whether the filter's problem carries a constant-false
// constraint. Such a constraint lowers to no instruction at all, so
// the caller must not treat an empty program as keep-everything.
func (rf *RowFilter) Unsat() bool { return rf.unsat }

// RestrictStats reports how one restrict executed.
type RestrictStats struct {
	RowsIn   int64
	RowsKept int64
	// Reordered is true when the survivors needed the radix re-sort,
	// false when they were already in the target order (same-method
	// parent with an order-preserving delta — the common case).
	Reordered bool
}

// Restrict filters the parent's columns (by variable index, cells =
// declared-domain indices) through the delta program and returns the
// survivors ordered lexicographically by ascending declared-domain
// index under perm (perm[d] = variable index at sort depth d, depth 0
// slowest-varying) — the emission order of a fresh build whose method
// yields that permutation. stop is polled at the kernel's cadence; ps,
// when non-nil, sees scanned rows as Nodes and kept rows as Rows.
func (rf *RowFilter) Restrict(cols [][]int32, perm []int, stop func() bool, ps *ProgressSink) (*Columnar, RestrictStats, bool) {
	out := &Columnar{
		Names: append([]string(nil), rf.names...),
		Cols:  make([][]int32, rf.nvars),
	}
	var rs RestrictStats
	n := rf.nvars
	rows := 0
	if n > 0 && len(cols) == n && len(cols[0]) > 0 {
		rows = len(cols[0])
	}
	rs.RowsIn = int64(rows)
	if rf.unsat || rows == 0 {
		return out, rs, false
	}

	// Row-wise filter: memoized constraints are truth-table loads on
	// the raw domain indices; only the residual program (if any) loads
	// decoded values and enters the interpreter.
	st := &state{
		vals:    make([]value.Value, n),
		nums:    make([]float64, n),
		ints:    make([]int64, n),
		scratch: make([]value.Value, rf.maxArgs),
	}
	keep := make([]int32, 0, rows)
	reported := 0
	if len(rf.memos) == 1 && len(rf.memos[0].vars) == 1 && len(rf.prog) == 0 {
		// The canonical delta — one constraint over one variable (a
		// domain tightening) — is a pure mask scan over one column.
		mask, col := rf.memos[0].table, cols[rf.memos[0].vars[0]]
		for r := 0; r < rows; r++ {
			if r&stopCheckMask == 0 {
				if ps != nil {
					ps.Nodes.Add(int64(r - reported))
					reported = r
				}
				if stop != nil && stop() {
					rs.RowsKept = int64(len(keep))
					return out, rs, true
				}
			}
			if mask[col[r]] {
				keep = append(keep, int32(r))
			}
		}
	} else {
		for r := 0; r < rows; r++ {
			if r&stopCheckMask == 0 {
				if ps != nil {
					ps.Nodes.Add(int64(r - reported))
					reported = r
				}
				if stop != nil && stop() {
					rs.RowsKept = int64(len(keep))
					return out, rs, true
				}
			}
			ok := true
			for mi := range rf.memos {
				m := &rf.memos[mi]
				idx := int32(0)
				for j, vi := range m.vars {
					idx = idx*m.sizes[j] + cols[vi][r]
				}
				if !m.table[idx] {
					ok = false
					break
				}
			}
			if ok && len(rf.prog) > 0 {
				for _, vi := range rf.needed {
					e := &rf.doms[vi][cols[vi][r]]
					st.vals[vi] = e.val
					st.nums[vi] = e.num
					st.ints[vi] = e.i
				}
				ok = runProg(rf.prog, st)
			}
			if ok {
				keep = append(keep, int32(r))
			}
		}
	}
	if ps != nil {
		ps.Nodes.Add(int64(rows - reported))
		ps.Rows.Add(int64(len(keep)))
	}
	rs.RowsKept = int64(len(keep))
	if len(keep) == 0 {
		return out, rs, false
	}

	// Materialize the survivors first, with one backing allocation:
	// keep is ascending here, so the per-column gathers walk the parent
	// columns sequentially. The re-sort (when needed) then runs over
	// the compact output columns — a fraction of the parent's size and
	// far kinder to the cache than gathering through original row
	// indices would be. Single-valued domains encode as index 0
	// everywhere, which make already wrote; their columns need no
	// gather and no permute.
	kept := len(keep)
	backing := make([]int32, n*kept)
	varying := make([]int, 0, n)
	for vi := 0; vi < n; vi++ {
		out.Cols[vi] = backing[vi*kept : (vi+1)*kept : (vi+1)*kept]
		if len(rf.doms[vi]) > 1 {
			varying = append(varying, vi)
		}
	}
	eachCol(varying, kept, func(vi int) {
		col, src := out.Cols[vi], cols[vi]
		for j, r := range keep {
			col[j] = src[r]
		}
	})

	if kept > 1 {
		ident := keep[:0]
		for j := 0; j < kept; j++ {
			ident = append(ident, int32(j))
		}
		if !sortedUnder(out.Cols, perm, ident) {
			rs.Reordered = true
			pi := radixReorder(out.Cols, rf.doms, perm, ident)
			eachCol(varying, kept, func(vi int) {
				col := out.Cols[vi]
				scratch := make([]int32, kept)
				for j, r := range pi {
					scratch[j] = col[r]
				}
				copy(col, scratch)
			})
		}
	}
	return out, rs, false
}

// eachCol runs fn once per listed column index. Large spaces fan the
// per-column passes (materialize gathers, permutes) out over the CPUs —
// the columns are independent and the work is memory-bound, so this is
// the cheapest kind of parallelism; small spaces stay on the calling
// goroutine to dodge the scheduling overhead.
func eachCol(vis []int, kept int, fn func(vi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(vis) {
		workers = len(vis)
	}
	if workers <= 1 || kept*len(vis) < 1<<16 {
		for _, vi := range vis {
			fn(vi)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(vis) {
					return
				}
				fn(vis[i])
			}
		}()
	}
	wg.Wait()
}

// sortedUnder reports whether the kept rows are already in ascending
// lexicographic order of their declared-domain indices under perm.
func sortedUnder(cols [][]int32, perm []int, keep []int32) bool {
	for j := 1; j < len(keep); j++ {
		a, b := keep[j-1], keep[j]
		for _, vi := range perm {
			ca, cb := cols[vi][a], cols[vi][b]
			if ca < cb {
				break
			}
			if ca > cb {
				return false
			}
		}
	}
	return true
}

// radixPassMax bounds the bucket count of one fused counting-sort
// pass. Consecutive sort depths are combined into a single pass while
// the product of their domain sizes stays under this, so an 11-deep
// permutation typically resolves in 2-3 passes over the kept rows
// instead of 11.
const radixPassMax = 1 << 16

// radixReorder sorts the kept row indices into ascending lexicographic
// order under perm with an LSD radix of stable counting sorts, walking
// the sort depths from deepest (fastest-varying) to shallowest.
// Buckets are the declared domain sizes, so the sort is exact and
// deterministic whatever order the parent's rows arrived in —
// cross-method parents reorder just as correctly as same-method ones.
// Adjacent depths are fused into mixed-radix passes (radixPassMax) to
// cut the number of traversals over the kept rows.
func radixReorder(cols [][]int32, doms [][]entry, perm []int, keep []int32) []int32 {
	// Active digits, deepest-first; single-valued coordinates cannot
	// change the order and are skipped.
	type digit struct {
		col  []int32
		size int32
	}
	digits := make([]digit, 0, len(perm))
	for d := len(perm) - 1; d >= 0; d-- {
		vi := perm[d]
		if len(doms[vi]) > 1 {
			digits = append(digits, digit{cols[vi], int32(len(doms[vi]))})
		}
	}

	buf := make([]int32, len(keep))
	keys := make([]int32, len(keep))
	var counts []int
	for i := 0; i < len(digits); {
		// Fuse digits[i:j) into one pass. Within the fused key the
		// shallower digit (larger index: digits run deepest-first) is
		// more significant, matching the order separate passes would
		// establish.
		j := i + 1
		prod := int(digits[i].size)
		for j < len(digits) && prod*int(digits[j].size) <= radixPassMax {
			prod *= int(digits[j].size)
			j++
		}
		for q, r := range keep {
			k := digits[j-1].col[r] // most significant digit seeds the key
			for t := j - 2; t >= i; t-- {
				k = k*digits[t].size + digits[t].col[r]
			}
			keys[q] = k
		}
		if cap(counts) < prod {
			counts = make([]int, prod)
		}
		counts = counts[:prod]
		for q := range counts {
			counts[q] = 0
		}
		for _, k := range keys {
			counts[k]++
		}
		sum := 0
		for q, c := range counts {
			counts[q] = sum
			sum += c
		}
		for q, r := range keep {
			k := keys[q]
			buf[counts[k]] = r
			counts[k]++
		}
		keep, buf = buf, keep
		i = j
	}
	return keep
}
