// Package chaintrees reimplements the chain-of-trees search-space
// construction of Rasch et al. (ATF), the state of the art the paper
// compares against (§3, §5.1). Parameters are grouped by constraint
// interdependence (two parameters are interdependent when they occur in
// the same constraint's syntax tree); each group is materialized as a tree
// whose paths are exactly the group's valid sub-configurations, with
// constraints checked at the deepest parameter they reference; and the
// trees are linked into a chain whose Cartesian combination enumerates the
// full space. Independent parameters become single-level trees.
//
// Two evaluation modes stand in for the two ATF implementations the paper
// measures: ModeCompiled evaluates constraints through compiled closures
// (the C++ ATF analogue) and ModeInterpreted walks the syntax tree per
// check (the pyATF analogue).
package chaintrees

import (
	"errors"
	"fmt"

	"searchspace/internal/core"
	"searchspace/internal/expr"
	"searchspace/internal/model"
	"searchspace/internal/value"
)

// Mode selects the constraint evaluation strategy.
type Mode uint8

const (
	// ModeCompiled checks constraints via compiled closures (≈ ATF C++).
	ModeCompiled Mode = iota
	// ModeInterpreted checks constraints by tree-walking (≈ pyATF).
	ModeInterpreted
)

func (m Mode) String() string {
	if m == ModeCompiled {
		return "compiled"
	}
	return "interpreted"
}

// node is one tree node: a chosen value index for the parameter at the
// node's depth, plus the valid subtrees beneath it.
type node struct {
	valIdx   int32
	children []*node
}

// group is one tree in the chain, covering an interdependent parameter
// subset in definition order.
type group struct {
	paramIdx []int
	roots    []*node // forest of depth-0 nodes
	leaves   int
}

// Chain is a built chain-of-trees.
type Chain struct {
	def    *model.Definition
	groups []*group
	// unsat marks a constant-false constraint: the space is empty no
	// matter what the trees contain.
	unsat bool
}

// taskState is one construction task's private assignment state, so
// subtrees can be built concurrently without sharing mutable slots.
type taskState struct {
	vals    []value.Value
	env     nodeEnv
	scratch []value.Value
}

// checker evaluates one constraint against a task's current assignment.
// Checkers themselves are stateless and shared across tasks.
type checker func(st *taskState) bool

// ErrCanceled reports a construction abandoned because the Exec's stop
// function fired.
var ErrCanceled = errors.New("chaintrees: construction canceled")

// stopMask sets how often a construction task polls its stop function:
// every 1024 tree-node visits, so even one huge subtree observes
// cancellation promptly.
const stopMask = 1024 - 1

// BuildExec constructs the chain-of-trees under an execution config:
// each (tree, root value) pair is an independent construction task
// drawn from a shared queue by ex's workers, ex.Stop cancels the
// construction mid-build with ErrCanceled, and ex.OnProgress observes
// completed tasks. The resulting chain is identical at every worker
// count — root subtrees land in domain order, exactly where the
// sequential recursion would put them.
func BuildExec(def *model.Definition, mode Mode, ex core.Exec) (*Chain, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	nodes, err := def.ParsedConstraints()
	if err != nil {
		return nil, err
	}
	n := len(def.Params)

	scopes := constraintScopes(def, nodes)
	groups := make([]*group, 0)
	for _, set := range paramGroups(n, scopes) {
		groups = append(groups, &group{paramIdx: set})
	}

	// Constant constraints decide satisfiability up front.
	c := &Chain{def: def, groups: groups}
	for ci, nd := range nodes {
		if len(scopes[ci]) == 0 {
			ok, err := expr.EvalBool(nd, nil)
			if err != nil || !ok {
				c.unsat = true
			}
		}
	}
	if c.unsat {
		for _, g := range groups {
			g.roots = nil
		}
		return c, nil
	}
	slots := make(map[string]int, n)
	for i, p := range def.Params {
		slots[p.Name] = i
	}

	// Per group: stateless checkers keyed by the depth (within the
	// group's definition-order parameters) of their deepest parameter.
	// Statelessness is what makes subtree tasks independent: every
	// checker reads the assignment from the task's own state.
	maxArgs := 0
	checksByGroup := make([][][]checker, len(groups))
	for gi, g := range groups {
		depthOf := make(map[int]int, len(g.paramIdx))
		for d, pi := range g.paramIdx {
			depthOf[pi] = d
		}
		checksAt := make([][]checker, len(g.paramIdx))
		addCheck := func(scope []int, chk checker) {
			deepest := 0
			for _, pi := range scope {
				if d, ok := depthOf[pi]; ok && d > deepest {
					deepest = d
				}
			}
			checksAt[deepest] = append(checksAt[deepest], chk)
		}
		for ci, nd := range nodes {
			scope := scopes[ci]
			if len(scope) == 0 {
				continue // constant constraints are handled above
			}
			if !inGroup(depthOf, scope) {
				continue
			}
			switch mode {
			case ModeCompiled:
				pred, err := expr.CompilePred(nd, slots)
				if err != nil {
					return nil, err
				}
				addCheck(scope, func(st *taskState) bool {
					ok, err := pred(st.vals)
					return err == nil && ok
				})
			case ModeInterpreted:
				nd := nd
				addCheck(scope, func(st *taskState) bool {
					ok, err := expr.EvalBool(nd, st.env)
					return err == nil && ok
				})
			}
		}
		for gci, gc := range def.GoConstraints {
			scope := scopes[len(nodes)+gci]
			if !inGroup(depthOf, scope) {
				continue
			}
			argPos := make([]int, len(gc.Vars))
			for j, name := range gc.Vars {
				argPos[j], _ = def.ParamIndex(name)
			}
			if len(argPos) > maxArgs {
				maxArgs = len(argPos)
			}
			fn := gc.Fn
			addCheck(scope, func(st *taskState) bool {
				args := st.scratch[:len(argPos)]
				for j, pi := range argPos {
					args[j] = st.vals[pi]
				}
				return fn(args)
			})
		}
		checksByGroup[gi] = checksAt
	}

	// One task per (tree, root value): fine enough that a few deep
	// subtrees do not serialize the build, and the per-root results
	// reassemble into exactly the sequential tree.
	type task struct {
		gi, rootVal int
	}
	var tasks []task
	for gi, g := range groups {
		for k := range def.Params[g.paramIdx[0]].Values {
			tasks = append(tasks, task{gi, k})
		}
	}
	rootSlots := make([]*node, len(tasks))
	leafCounts := make([]int, len(tasks))

	if ex.Stop != nil && ex.Stop() {
		return nil, ErrCanceled
	}

	// The shared scheduler in core drives the task queue, the stop
	// latch, and progress; assignment state is reused per worker across
	// tasks — the env's set-flag discipline (every task clears the
	// flags it raised) makes stale values from a previous task
	// invisible, so the sequential path allocates exactly once, as the
	// pre-parallel code did.
	canceled := ex.ForEachTask(len(tasks), func() any {
		st := &taskState{
			vals:    make([]value.Value, n),
			env:     make(nodeEnv, n),
			scratch: make([]value.Value, maxArgs),
		}
		for i := range st.env {
			st.env[i].name = def.Params[i].Name
		}
		return st
	}, func(w any, t int, stop func() bool) bool {
		b := &subtreeBuilder{
			def: def, g: groups[tasks[t].gi], checksAt: checksByGroup[tasks[t].gi],
			st: w.(*taskState), stop: stop,
		}
		rootSlots[t], leafCounts[t] = b.buildRoot(tasks[t].rootVal)
		return b.canceled
	})
	if canceled {
		return nil, ErrCanceled
	}

	// Reassemble per-root results in root-value order; nil slots are
	// roots with no valid extension, exactly the ones the sequential
	// recursion would have skipped.
	for t, nd := range rootSlots {
		if nd == nil {
			continue
		}
		g := groups[tasks[t].gi]
		g.roots = append(g.roots, nd)
		g.leaves += leafCounts[t]
	}
	return c, nil
}

// constraintScopes returns each constraint's scope as parameter
// indices: parsed string constraints first (in order), then Go
// constraints with duplicate parameters removed.
func constraintScopes(def *model.Definition, nodes []expr.Node) [][]int {
	scopes := make([][]int, 0, len(nodes)+len(def.GoConstraints))
	for _, nd := range nodes {
		var scope []int
		for _, name := range expr.Vars(nd) {
			pi, _ := def.ParamIndex(name)
			scope = append(scope, pi)
		}
		scopes = append(scopes, scope)
	}
	for _, gc := range def.GoConstraints {
		var scope []int
		seen := map[int]struct{}{}
		for _, name := range gc.Vars {
			pi, _ := def.ParamIndex(name)
			if _, dup := seen[pi]; !dup {
				seen[pi] = struct{}{}
				scope = append(scope, pi)
			}
		}
		scopes = append(scopes, scope)
	}
	return scopes
}

// paramGroups unions parameters that co-occur in a constraint scope
// (union-find with path halving) and returns the interdependence
// groups in definition order of their first parameter, parameters
// within each group ascending — the tree/chain structure of §3.
func paramGroups(n int, scopes [][]int) [][]int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, scope := range scopes {
		if len(scope) < 2 {
			continue
		}
		for _, pi := range scope[1:] {
			union(scope[0], pi)
		}
	}
	groupOf := make(map[int]int)
	var groups [][]int
	for pi := 0; pi < n; pi++ {
		root := find(pi)
		gi, ok := groupOf[root]
		if !ok {
			gi = len(groups)
			groupOf[root] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], pi)
	}
	return groups
}

// OrderPermutation returns the chain's row-emission variable order for
// def: position (depth) -> parameter index, depth 0 slowest-varying.
// Rows enumerate as the cartesian chain of the groups (group 0
// slowest), each group's parameters nested in definition order — so
// the flattened group concatenation is exactly the sort order of the
// emitted rows. Both evaluation modes share it; mode only changes how
// constraints are checked, never the tree walk order.
func OrderPermutation(def *model.Definition) ([]int, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	nodes, err := def.ParsedConstraints()
	if err != nil {
		return nil, err
	}
	scopes := constraintScopes(def, nodes)
	perm := make([]int, 0, len(def.Params))
	for _, g := range paramGroups(len(def.Params), scopes) {
		perm = append(perm, g...)
	}
	return perm, nil
}

// subtreeBuilder constructs one root value's subtree depth-first with
// task-private state; a node survives only when some complete extension
// below it is valid.
type subtreeBuilder struct {
	def      *model.Definition
	g        *group
	checksAt [][]checker
	st       *taskState
	stop     func() bool
	nodes    int
	canceled bool
}

// buildRoot pins the group's first parameter to its rootVal-th value
// and builds the subtree beneath it. A nil node means no valid complete
// extension (or cancellation — the caller checks the shared latch).
func (b *subtreeBuilder) buildRoot(rootVal int) (*node, int) {
	pi := b.g.paramIdx[0]
	v := b.def.Params[pi].Values[rootVal]
	b.st.vals[pi] = v
	b.st.env[pi].val = v
	b.st.env[pi].set = true
	defer func() { b.st.env[pi].set = false }()
	for _, chk := range b.checksAt[0] {
		if !chk(b.st) {
			return nil, 0
		}
	}
	if len(b.g.paramIdx) == 1 {
		return &node{valIdx: int32(rootVal)}, 1
	}
	children, leaves := b.build(1)
	if len(children) == 0 {
		return nil, 0
	}
	return &node{valIdx: int32(rootVal), children: children}, leaves
}

func (b *subtreeBuilder) build(depth int) ([]*node, int) {
	pi := b.g.paramIdx[depth]
	var out []*node
	leaves := 0
	for k, v := range b.def.Params[pi].Values {
		if b.nodes&stopMask == 0 && b.stop() {
			b.canceled = true
			break
		}
		b.nodes++
		b.st.vals[pi] = v
		b.st.env[pi].val = v
		b.st.env[pi].set = true
		ok := true
		for _, chk := range b.checksAt[depth] {
			if !chk(b.st) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if depth == len(b.g.paramIdx)-1 {
			out = append(out, &node{valIdx: int32(k)})
			leaves++
			continue
		}
		children, sub := b.build(depth + 1)
		if b.canceled {
			break
		}
		if len(children) > 0 {
			out = append(out, &node{valIdx: int32(k), children: children})
			leaves += sub
		}
	}
	b.st.env[pi].set = false
	return out, leaves
}

// nodeEnv adapts the shared assignment to the expr.Env interface for
// interpreted mode, with an assigned flag per slot.
type nodeEnv []struct {
	name string
	val  value.Value
	set  bool
}

func (e nodeEnv) Lookup(name string) (value.Value, bool) {
	for i := range e {
		if e[i].name == name && e[i].set {
			return e[i].val, true
		}
	}
	return value.Value{}, false
}

func inGroup(depthOf map[int]int, scope []int) bool {
	_, ok := depthOf[scope[0]]
	return ok
}

// NumGroups returns the number of trees in the chain.
func (c *Chain) NumGroups() int { return len(c.groups) }

// GroupSizes returns the number of valid sub-configurations per tree.
func (c *Chain) GroupSizes() []int {
	out := make([]int, len(c.groups))
	for i, g := range c.groups {
		out[i] = g.leaves
	}
	return out
}

// Count returns the total number of valid configurations: the product of
// the per-tree path counts, computable without enumeration — the
// structural advantage of the chain representation.
func (c *Chain) Count() int {
	if c.unsat {
		return 0
	}
	total := 1
	for _, g := range c.groups {
		total *= g.leaves
		if total == 0 {
			return 0
		}
	}
	if len(c.groups) == 0 {
		return 0
	}
	return total
}

// ForEach enumerates every valid configuration; idx holds the value index
// per parameter in definition order and is reused across calls.
func (c *Chain) ForEach(yield func(idx []int32) bool) {
	if c.unsat || len(c.groups) == 0 {
		return
	}
	for _, g := range c.groups {
		if g.leaves == 0 {
			return
		}
	}
	idx := make([]int32, len(c.def.Params))
	var walkGroups func(gi int) bool
	var walkTree func(g *group, depth int, nodes []*node, gi int) bool
	walkGroups = func(gi int) bool {
		if gi == len(c.groups) {
			return yield(idx)
		}
		g := c.groups[gi]
		return walkTree(g, 0, g.roots, gi)
	}
	walkTree = func(g *group, depth int, nodes []*node, gi int) bool {
		pi := g.paramIdx[depth]
		for _, nd := range nodes {
			idx[pi] = nd.valIdx
			if depth == len(g.paramIdx)-1 {
				if !walkGroups(gi + 1) {
					return false
				}
				continue
			}
			if !walkTree(g, depth+1, nd.children, gi) {
				return false
			}
		}
		return true
	}
	walkGroups(0)
}

// leafPaths materializes the group's valid sub-configurations as one
// column per group parameter, leaves in DFS order — exactly the order
// ForEach visits them.
func (g *group) leafPaths() [][]int32 {
	m := len(g.paramIdx)
	cols := make([][]int32, m)
	for d := range cols {
		cols[d] = make([]int32, 0, g.leaves)
	}
	cur := make([]int32, m)
	var walk func(depth int, nodes []*node)
	walk = func(depth int, nodes []*node) {
		for _, nd := range nodes {
			cur[depth] = nd.valIdx
			if depth == m-1 {
				for d, v := range cur {
					cols[d] = append(cols[d], v)
				}
				continue
			}
			walk(depth+1, nd.children)
		}
	}
	walk(0, g.roots)
	return cols
}

// ToColumnar converts the chain into the columnar format shared with
// the other construction methods. This is the chain's bulk tail
// expansion: instead of re-walking every tree per output row (the
// per-row recursion ForEach performs), each tree's leaf paths are
// materialized once and the final columns are filled as repeated/tiled
// runs — group i's paths repeat with period (product of leaf counts of
// the groups after it), which is precisely the row order the nested
// per-row walk produces, so output stays byte-identical.
func (c *Chain) ToColumnar() *core.Columnar {
	out := &core.Columnar{
		Names: make([]string, len(c.def.Params)),
		Cols:  make([][]int32, len(c.def.Params)),
	}
	for i, p := range c.def.Params {
		out.Names[i] = p.Name
	}
	total := c.Count()
	if total == 0 {
		return out
	}
	// All columns share one exactly-sized backing array.
	backing := make([]int32, len(out.Cols)*total)
	col := func(pi int) []int32 {
		return backing[pi*total : (pi+1)*total : (pi+1)*total]
	}
	inner := 1 // rows per leaf of the current group: product of later groups' leaf counts
	for gi := len(c.groups) - 1; gi >= 0; gi-- {
		g := c.groups[gi]
		paths := g.leafPaths()
		for d, pi := range g.paramIdx {
			seg := col(pi)
			// One period: each leaf's value repeated inner times…
			p := 0
			for _, v := range paths[d] {
				for j := 0; j < inner; j++ {
					seg[p] = v
					p++
				}
			}
			// …tiled across all rows by doubling copies.
			for p < total {
				p += copy(seg[p:], seg[:p])
			}
			out.Cols[pi] = seg
		}
		inner *= g.leaves
	}
	return out
}

// String summarizes the chain's structure.
func (c *Chain) String() string {
	return fmt.Sprintf("chain-of-trees{groups: %d, sizes: %v}", len(c.groups), c.GroupSizes())
}
