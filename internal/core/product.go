package core

import "slices"

// This file is the component-product path. When the constrained depths
// split into independent components — groups of depths that no
// instruction links to one another — the space is the cartesian product
// of every component's solutions and the unconstrained tail. A joint
// walk re-solves each later component under every prefix of an earlier
// one; the product path solves each component once with the same walk
// and writes the product straight into one exactly sized output.
//
// The split (buildProduct) runs union-find over each instruction's
// non-constant variables. One-value domains are constants and link
// nothing, so two groups that both read a constant stay apart. Each
// instruction runs at its deepest non-constant depth. A component's
// sub-Compiled holds its depths in global solve order, led by the
// constants its instructions read as pinned one-value depths, so every
// instruction still finds every variable it reads assigned. It gets its
// own walk plan (survivor tables, cut-offs). An instruction that reads
// only constants is run once here; if it fails, the space is empty.
// Native Go functions keep the space on the joint walk: plan.go already
// treats them as opaque and possibly impure, and the product path would
// call them a different number of times.
//
// The fill (fillProduct) writes each output cell once, in exactly the
// joint walk's row order: lexicographic in solve-order positions. A
// constant or tail column is one periodic fill over the whole column. A
// constrained column takes one run per distinct prefix of the depths
// down to it, written by one walk over those prefixes. From the first
// depth after which every component's remaining depths are contiguous,
// the subtree under each prefix is a cartesian product of sub-tuple
// lists, filled with emitBlock's period-and-tile.

// productPlan is a component split of a Compiled.
type productPlan struct {
	// comps holds one sub-Compiled per component, numbered by first
	// depth.
	comps []*Compiled
	// comp[d], for each depth below tailStart, is the component depth d
	// belongs to, or -1 for a constant.
	comp []int
	// depths lists the depths below tailStart that are not constants.
	// From depths[split] on, every component's depths are contiguous.
	depths []int
	split  int
	// unsat records a failed constant-only instruction: no row exists.
	unsat bool
}

// buildProduct sets c.product when the constrained depths split into at
// least two components and no instruction is a native Go function. A
// depth above the tail that no instruction reads (possible without the
// degree sort) is a component of its own, solved as its whole domain.
func (c *Compiled) buildProduct() {
	ts := c.tailStart
	constant := func(d int) bool { return len(c.doms[d]) == 1 }
	parent := make([]int, ts)
	for d := range parent {
		parent[d] = d
	}
	find := func(d int) int {
		for parent[d] != d {
			parent[d] = parent[parent[d]]
			d = parent[d]
		}
		return d
	}
	// byHome[d] collects the instructions that run at depth d, their
	// deepest non-constant depth.
	byHome := make([][]instr, ts)
	var constOnly []instr
	for d := 0; d < ts; d++ {
		for i := range c.prog[d] {
			ins := &c.prog[d][i]
			if ins.op == opGoFunc {
				return
			}
			home := -1
			for _, vi := range ins.vars {
				if e := c.pos[vi]; !constant(e) {
					if home >= 0 {
						parent[find(e)] = find(home)
					}
					home = max(home, e)
				}
			}
			if home < 0 {
				constOnly = append(constOnly, *ins)
			} else {
				byHome[home] = append(byHome[home], *ins)
			}
		}
	}
	comp := make([]int, ts)
	id := make([]int, ts) // root depth -> component number
	for d := range id {
		id[d] = -1
	}
	n := 0
	for d := 0; d < ts; d++ {
		comp[d] = -1
		if constant(d) {
			continue
		}
		r := find(d)
		if id[r] < 0 {
			id[r] = n
			n++
		}
		comp[d] = id[r]
	}
	if n < 2 {
		return
	}
	pp := &productPlan{comp: comp}
	closed := make([]bool, n)
	for d := 0; d < ts; d++ {
		if comp[d] >= 0 {
			pp.depths = append(pp.depths, d)
		}
	}
	for j := len(pp.depths) - 1; j > 0; j-- {
		k, next := comp[pp.depths[j-1]], comp[pp.depths[j]]
		if k != next {
			closed[next] = true
		}
		if closed[k] {
			pp.split = j
			break
		}
	}
	st := c.newState()
	for d := 0; d < ts; d++ {
		if constant(d) {
			e := &c.doms[d][0]
			vi := c.order[d]
			st.vals[vi], st.nums[vi], st.ints[vi] = e.val, e.num, e.i
		}
	}
	pp.unsat = !runProg(constOnly, st)
	for k := 0; k < n; k++ {
		// The constants this component's instructions read lead its
		// depths, then its own depths follow in solve order.
		var depths []int
		for d := 0; d < ts; d++ {
			if comp[d] != k {
				continue
			}
			for _, ins := range byHome[d] {
				for _, vi := range ins.vars {
					if e := c.pos[vi]; constant(e) && !slices.Contains(depths, e) {
						depths = append(depths, e)
					}
				}
			}
		}
		slices.Sort(depths)
		for d := 0; d < ts; d++ {
			if comp[d] == k {
				depths = append(depths, d)
			}
		}
		pp.comps = append(pp.comps, c.subCompiled(depths, byHome))
	}
	c.product = pp
}

// subCompiled returns the Compiled that walks only the given depths of
// c, in the given order, running byHome[d] at depth d. Variables keep
// their problem indices, so the instructions run unchanged; a solve's
// output has a column for every problem variable, of which only the
// walked ones are written.
func (c *Compiled) subCompiled(depths []int, byHome [][]instr) *Compiled {
	sub := &Compiled{
		names:   c.names,
		order:   make([]int, len(depths)),
		pos:     make([]int, len(c.pos)),
		doms:    make([][]entry, len(depths)),
		prog:    make([][]instr, len(depths)),
		maxArgs: c.maxArgs,
		opt:     c.opt,
	}
	for vi := range sub.pos {
		sub.pos[vi] = -1
	}
	for ld, d := range depths {
		vi := c.order[d]
		sub.order[ld], sub.pos[vi], sub.doms[ld] = vi, ld, c.doms[d]
		sub.prog[ld] = byHome[d]
		if len(sub.prog[ld]) != 0 {
			sub.tailStart = ld + 1
		}
	}
	sub.buildPlan()
	return sub
}

// solveProduct is the columnar solve on the product path. Each
// component is solved by the walk the way ex would have solved the
// whole space: one worker through solveWalk, several through
// SolveColumnarExec. The row count is then known before any row is
// written, so the output is allocated once and filled by fillProduct.
// EnumStats.Nodes sums the component walks' nodes (sequential runs
// only); Blocks counts the cartesian blocks the fill wrote, and
// BlockRows every row. ex.Sink gets each component walk's charged nodes
// when that walk ends and the rows when the fill ends.
func (c *Compiled) solveProduct(ex Exec) (*Columnar, EnumStats, bool) {
	var es EnumStats
	pp := c.product
	if ex.Stop != nil && ex.Stop() {
		return c.newColumnar(0), es, true
	}
	if pp.unsat {
		return c.newColumnar(0), es, false
	}
	sols := make([]*Columnar, len(pp.comps))
	rows := 1
	for k, sub := range pp.comps {
		var walked ProgressSink
		var canceled bool
		if ex.EffectiveWorkers() == 1 {
			var wes EnumStats
			sols[k], wes, canceled = sub.solveWalk(ex.Stop, &walked)
			es.Nodes += wes.Nodes
		} else {
			sols[k], _, canceled = sub.SolveColumnarExec(Exec{Workers: ex.Workers, Stop: ex.Stop, Sink: &walked})
		}
		if ex.Sink != nil {
			ex.Sink.Nodes.Add(walked.Nodes.Load())
		}
		if canceled {
			return c.newColumnar(0), es, true
		}
		if rows *= sols[k].NumSolutions(); rows == 0 {
			return c.newColumnar(0), es, false
		}
	}
	for d := c.tailStart; d < len(c.order); d++ {
		rows *= len(c.doms[d])
	}
	out := c.newColumnar(rows)
	blocks, canceled := c.fillProduct(out, sols, ex.Stop)
	if canceled {
		return c.newColumnar(0), es, true
	}
	es.Blocks, es.BlockRows = blocks, int64(rows)
	if ex.Sink != nil {
		ex.Sink.Rows.Add(int64(rows))
	}
	return out, es, false
}

// fillProduct writes the rows of the product of the component solutions
// sols and the tail domains into out, which is sized for all of them,
// and returns the number of cartesian blocks it wrote. stop is polled
// before each constant or tail column and every stopCheckMask+1 prefix
// visits.
func (c *Compiled) fillProduct(out *Columnar, sols []*Columnar, stop func() bool) (int64, bool) {
	pp := c.product
	stopped := func() bool { return stop != nil && stop() }

	// Constants and tail depths: each column is one period of its
	// domain, every value repeated once per row of the tail depths
	// after it, tiled over the whole column.
	tailRows := 1
	for d := len(c.order) - 1; d >= 0; d-- {
		dom := c.doms[d]
		if d < c.tailStart && len(dom) > 1 {
			continue
		}
		if stopped() {
			return 0, true
		}
		fillPeriodic(out.Cols[c.order[d]], dom, tailRows)
		tailRows *= len(dom)
	}

	// Each component's tuples are in lexicographic order, so the tuples
	// that agree on its depths down to any one form runs. For the j-th
	// depth before the split, runs lists the first tuple of every run of
	// its component's tuples that agree down to that depth, then the
	// tuple count; prev is the same list at the component's previous
	// depth (one run of all tuples before its first), and first[g] is
	// the first run inside run g of prev.
	type level struct {
		k                 int
		src, dst          []int32
		prev, runs, first []int32
		h, end, parent    int32 // walk state: next run, end of range, run of prev
	}
	nc := len(sols)
	cur := make([][]int32, nc)
	whole := func() {
		for k, s := range sols {
			cur[k] = []int32{0, int32(s.NumSolutions())}
		}
	}
	whole()
	levels := make([]level, pp.split)
	for j, d := range pp.depths[:pp.split] {
		k, vi := pp.comp[d], c.order[d]
		src, prev := sols[k].Cols[vi], cur[k]
		runs := make([]int32, 0, len(src)+1)
		first := make([]int32, len(prev))
		for g := 0; g+1 < len(prev); g++ {
			first[g] = int32(len(runs))
			runs = append(runs, prev[g])
			for i := prev[g] + 1; i < prev[g+1]; i++ {
				if src[i] != src[i-1] {
					runs = append(runs, i)
				}
			}
		}
		first[len(prev)-1] = int32(len(runs))
		runs = append(runs, prev[len(prev)-1])
		levels[j] = level{k: k, src: src, dst: out.Cols[vi], prev: prev, runs: runs, first: first}
		cur[k] = runs
	}

	// Below the split, a prefix's rows are the cartesian product of its
	// components' remaining sub-tuples, in the order the components'
	// depth blocks come: a column holds each tuple of its component's
	// run repeated once per row of the later blocks and the tail
	// (inner), that period tiled over the rows. A component with no
	// depth left has one tuple in its run.
	type blockCol struct {
		blk, k   int
		src, dst []int32
	}
	var cols []blockCol
	var blockComp []int
	for _, d := range pp.depths[pp.split:] {
		k, vi := pp.comp[d], c.order[d]
		if n := len(blockComp); n == 0 || blockComp[n-1] != k {
			blockComp = append(blockComp, k)
		}
		cols = append(cols, blockCol{len(blockComp) - 1, k, sols[k].Cols[vi], out.Cols[vi]})
	}
	inner := make([]int, len(blockComp)+1)
	inner[len(blockComp)] = tailRows

	// The walk over the prefixes: grp[k] is component k's current run in
	// cur[k] and span[k] its length, so a prefix holds tailRows times
	// the product of span rows. Visiting a prefix writes its run of the
	// depth's value at the row cursor; a prefix at the split also writes
	// its block and moves the cursor past it.
	whole()
	grp := make([]int32, nc)
	span := make([]int, nc)
	for k, s := range sols {
		span[k] = s.NumSolutions()
	}
	at := 0
	var blocks int64
	block := func(rows int) {
		if rows == 1 {
			for i := range cols {
				bc := &cols[i]
				bc.dst[at] = bc.src[cur[bc.k][grp[bc.k]]]
			}
		} else {
			for b := len(blockComp) - 1; b >= 0; b-- {
				inner[b] = inner[b+1] * span[blockComp[b]]
			}
			for i := range cols {
				bc := &cols[i]
				seg := bc.dst[at : at+rows]
				lo := cur[bc.k][grp[bc.k]]
				per, q := inner[bc.blk+1], 0
				for _, v := range bc.src[lo : int(lo)+span[bc.k]] {
					fillInt32(seg[q:q+per], v)
					q += per
				}
				for q < rows {
					q += copy(seg[q:], seg[:q])
				}
			}
		}
		at += rows
		blocks++
	}
	if pp.split == 0 {
		if stopped() {
			return 0, true
		}
		block(len(out.Cols[0]))
		return blocks, false
	}
	enter := func(lv *level) {
		g := grp[lv.k]
		lv.parent, lv.h, lv.end = g, lv.first[g], lv.first[g+1]
		cur[lv.k] = lv.runs
	}
	enter(&levels[0])
	for j, visits := 0, 0; j >= 0; visits++ {
		lv := &levels[j]
		if lv.h == lv.end {
			grp[lv.k], cur[lv.k] = lv.parent, lv.prev
			span[lv.k] = int(lv.prev[lv.parent+1] - lv.prev[lv.parent])
			j--
			continue
		}
		if visits&stopCheckMask == 0 && stopped() {
			return 0, true
		}
		h := lv.h
		lv.h++
		grp[lv.k] = h
		span[lv.k] = int(lv.runs[h+1] - lv.runs[h])
		rows := tailRows
		for _, n := range span {
			rows *= n
		}
		if v := lv.src[lv.runs[h]]; rows == 1 {
			lv.dst[at] = v
		} else {
			fillInt32(lv.dst[at:at+rows], v)
		}
		if j+1 < pp.split {
			j++
			enter(&levels[j])
			continue
		}
		block(rows)
	}
	return blocks, false
}
