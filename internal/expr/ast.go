package expr

import (
	"sort"
	"strings"

	"searchspace/internal/value"
)

// Node is a parsed constraint-expression node. The node set mirrors the
// Python expression subset that auto-tuning frameworks accept for
// constraints: literals, parameter names, arithmetic, boolean logic,
// (chained) comparisons, membership tests, and a few built-in calls.
type Node interface {
	// String renders the node as source text (used in error messages and
	// for golden tests of the optimizer's rewrites).
	String() string
	// appendVars accumulates referenced parameter names into set.
	appendVars(set map[string]struct{})
}

// Lit is a constant literal.
type Lit struct {
	Val value.Value
}

func (l *Lit) String() string                     { return l.Val.String() }
func (l *Lit) appendVars(set map[string]struct{}) {}

// Name references a tunable parameter by name.
type Name struct {
	Ident string
}

func (n *Name) String() string                     { return n.Ident }
func (n *Name) appendVars(set map[string]struct{}) { set[n.Ident] = struct{}{} }

// Op identifies a unary or binary operator.
type Op uint8

// Operator codes. Comparison codes double as the chain link codes in Compare.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpFloorDiv
	OpMod
	OpPow
	OpNeg
	OpNot
	OpLt
	OpLe
	OpGt
	OpGe
	OpEq
	OpNe
	OpIn
	OpNotIn
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpFloorDiv: "//",
	OpMod: "%", OpPow: "**", OpNeg: "-", OpNot: "not",
	OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=", OpEq: "==", OpNe: "!=",
	OpIn: "in", OpNotIn: "not in",
}

// Name returns the operator's source spelling.
func (o Op) Name() string { return opNames[o] }

// Flip returns the comparison with swapped operand order (a < b ⇔ b > a).
// It panics for non-order comparisons other than Eq/Ne, which are symmetric.
func (o Op) Flip() Op {
	switch o {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	case OpEq, OpNe:
		return o
	}
	panic("expr: Flip on non-comparison " + o.Name())
}

// Unary is negation or logical not.
type Unary struct {
	Op Op // OpNeg or OpNot
	X  Node
}

func (u *Unary) String() string {
	if u.Op == OpNot {
		return "not " + u.X.String()
	}
	return "-" + u.X.String()
}
func (u *Unary) appendVars(set map[string]struct{}) { u.X.appendVars(set) }

// Binary is an arithmetic binary operation. Comparisons are represented by
// Compare (to retain chains) and boolean logic by BoolOp.
type Binary struct {
	Op   Op
	X, Y Node
}

func (b *Binary) String() string {
	return "(" + b.X.String() + " " + b.Op.Name() + " " + b.Y.String() + ")"
}
func (b *Binary) appendVars(set map[string]struct{}) {
	b.X.appendVars(set)
	b.Y.appendVars(set)
}

// Compare is a possibly chained comparison: Operands[0] Ops[0] Operands[1]
// Ops[1] Operands[2] ... as in Python, where every link must hold.
// len(Operands) == len(Ops)+1 and len(Ops) >= 1.
type Compare struct {
	Operands []Node
	Ops      []Op
}

func (c *Compare) String() string {
	var sb strings.Builder
	sb.WriteString(c.Operands[0].String())
	for i, op := range c.Ops {
		sb.WriteString(" " + op.Name() + " ")
		sb.WriteString(c.Operands[i+1].String())
	}
	return sb.String()
}
func (c *Compare) appendVars(set map[string]struct{}) {
	for _, o := range c.Operands {
		o.appendVars(set)
	}
}

// BoolOp is an n-ary short-circuit `and` or `or`.
type BoolOp struct {
	And bool // true for and, false for or
	Xs  []Node
}

func (b *BoolOp) String() string {
	word := " or "
	if b.And {
		word = " and "
	}
	parts := make([]string, len(b.Xs))
	for i, x := range b.Xs {
		parts[i] = x.String()
	}
	return "(" + strings.Join(parts, word) + ")"
}
func (b *BoolOp) appendVars(set map[string]struct{}) {
	for _, x := range b.Xs {
		x.appendVars(set)
	}
}

// List is a literal tuple/list, used as the right operand of `in`.
type List struct {
	Elems []Node
}

func (l *List) String() string {
	parts := make([]string, len(l.Elems))
	for i, e := range l.Elems {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
func (l *List) appendVars(set map[string]struct{}) {
	for _, e := range l.Elems {
		e.appendVars(set)
	}
}

// Call is a built-in function call. The supported functions are min, max,
// abs and pow.
type Call struct {
	Fn   string
	Args []Node
}

func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Fn + "(" + strings.Join(parts, ", ") + ")"
}
func (c *Call) appendVars(set map[string]struct{}) {
	for _, a := range c.Args {
		a.appendVars(set)
	}
}

// Vars returns the sorted set of parameter names referenced by n.
func Vars(n Node) []string {
	set := make(map[string]struct{})
	n.appendVars(set)
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
