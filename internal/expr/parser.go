package expr

import (
	"fmt"
	"strconv"

	"searchspace/internal/value"
)

// Parse parses a constraint expression in the Python subset accepted by
// Kernel Tuner's string-based constraint API: boolean logic (and/or/not),
// chained comparisons, membership tests over literal lists, arithmetic
// (+ - * / // % **), the built-ins min/max/abs/pow, parameter names, and
// the dictionary-style access p["name"] that appears in lambda-style
// constraints (it is normalized to the bare name).
func Parse(src string) (Node, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	node, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("unexpected %s after expression", p.peek())
	}
	return node, nil
}

// MustParse is Parse for programmer-authored expressions; it panics on
// error.
func MustParse(src string) Node {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}

// maxNodes bounds the syntax tree of one expression. The passes after
// parsing (folding, analysis, compilation, evaluation) recurse over the
// tree, and a left-deep chain such as a+a+...+a is as deep as it is
// long: unbounded, a chain that fits under the service's body cap
// overflows the goroutine stack, which no recover can catch. The bound
// is far above what any real constraint needs.
const maxNodes = 10000

// maxTokens bounds the lexer, which runs before the parser can count
// nodes or nesting: an expression the size of the service's body cap
// would otherwise cost a token list of a quarter of a gigabyte. The
// bound caps that list at 32 MiB. A chain of maxNodes nodes takes about
// maxNodes tokens, so on such input the node budget reports first.
const maxTokens = 1 << 20

// maxNesting bounds how deeply the recursive forms may nest: parenthesized
// atoms, list elements, call arguments, not, unary -/+, and the right
// operand of **. It matches CPython's tokenizer bracket limit (MAXLEVEL)
// and turns a hostile input into a SyntaxError instead of a goroutine
// stack overflow, which no recover can catch.
const maxNesting = 200

type parser struct {
	src   string
	toks  []token
	i     int
	depth int
	nodes int
}

// grow counts one more syntax-tree node, failing past maxNodes.
func (p *parser) grow() error {
	if p.nodes == maxNodes {
		return p.errorf("expression has more than %d nodes", maxNodes)
	}
	p.nodes++
	return nil
}

// nested runs parse one nesting level deeper, failing past maxNesting.
func (p *parser) nested(parse func() (Node, error)) (Node, error) {
	if p.depth == maxNesting {
		return nil, p.errorf("expression nested more than %d levels deep", maxNesting)
	}
	p.depth++
	x, err := parse()
	p.depth--
	return x, err
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return &SyntaxError{p.src, p.peek().pos, fmt.Sprintf(format, args...)}
}

func (p *parser) acceptOp(text string) bool {
	if t := p.peek(); t.kind == tokOp && t.text == text {
		p.i++
		return true
	}
	return false
}

func (p *parser) acceptKeyword(word string) bool {
	if t := p.peek(); t.kind == tokName && t.text == word {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectOp(text string) error {
	if !p.acceptOp(text) {
		return p.errorf("expected %q, found %s", text, p.peek())
	}
	return nil
}

func (p *parser) parseOr() (Node, error) {
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokName || p.peek().text != "or" {
		return x, nil
	}
	if err := p.grow(); err != nil {
		return nil, err
	}
	xs := []Node{x}
	for p.acceptKeyword("or") {
		y, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		xs = append(xs, y)
	}
	return &BoolOp{And: false, Xs: xs}, nil
}

func (p *parser) parseAnd() (Node, error) {
	x, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokName || p.peek().text != "and" {
		return x, nil
	}
	if err := p.grow(); err != nil {
		return nil, err
	}
	xs := []Node{x}
	for p.acceptKeyword("and") {
		y, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		xs = append(xs, y)
	}
	return &BoolOp{And: true, Xs: xs}, nil
}

func (p *parser) parseNot() (Node, error) {
	if p.acceptKeyword("not") {
		if err := p.grow(); err != nil {
			return nil, err
		}
		x, err := p.nested(p.parseNot)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: OpNot, X: x}, nil
	}
	return p.parseComparison()
}

// cmpOpAt returns the comparison operator at the cursor, if any, consuming
// it. It handles the two-word operator "not in".
func (p *parser) cmpOpAt() (Op, bool, error) {
	t := p.peek()
	if t.kind == tokOp {
		switch t.text {
		case "<":
			p.i++
			return OpLt, true, nil
		case "<=":
			p.i++
			return OpLe, true, nil
		case ">":
			p.i++
			return OpGt, true, nil
		case ">=":
			p.i++
			return OpGe, true, nil
		case "==":
			p.i++
			return OpEq, true, nil
		case "!=":
			p.i++
			return OpNe, true, nil
		}
		return 0, false, nil
	}
	if t.kind == tokName {
		switch t.text {
		case "in":
			p.i++
			return OpIn, true, nil
		case "not":
			// Lookahead for "not in"; bare "not" is not a comparison.
			if p.toks[p.i+1].kind == tokName && p.toks[p.i+1].text == "in" {
				p.i += 2
				return OpNotIn, true, nil
			}
			return 0, false, nil
		}
	}
	return 0, false, nil
}

func (p *parser) parseComparison() (Node, error) {
	x, err := p.parseArith()
	if err != nil {
		return nil, err
	}
	var ops []Op
	operands := []Node{x}
	for {
		op, ok, err := p.cmpOpAt()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if len(ops) == 0 {
			if err := p.grow(); err != nil {
				return nil, err
			}
		}
		y, err := p.parseArith()
		if err != nil {
			return nil, err
		}
		if (op == OpIn || op == OpNotIn) && !isListLike(y) {
			return nil, p.errorf("right operand of %q must be a literal list", op.Name())
		}
		ops = append(ops, op)
		operands = append(operands, y)
	}
	if len(ops) == 0 {
		return x, nil
	}
	return &Compare{Operands: operands, Ops: ops}, nil
}

func isListLike(n Node) bool {
	_, ok := n.(*List)
	return ok
}

func (p *parser) parseArith() (Node, error) {
	x, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch {
		case p.acceptOp("+"):
			op = OpAdd
		case p.acceptOp("-"):
			op = OpSub
		default:
			return x, nil
		}
		if err := p.grow(); err != nil {
			return nil, err
		}
		y, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		x = &Binary{Op: op, X: x, Y: y}
	}
}

func (p *parser) parseTerm() (Node, error) {
	x, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch {
		case p.acceptOp("*"):
			op = OpMul
		case p.acceptOp("//"):
			op = OpFloorDiv
		case p.acceptOp("/"):
			op = OpDiv
		case p.acceptOp("%"):
			op = OpMod
		default:
			return x, nil
		}
		if err := p.grow(); err != nil {
			return nil, err
		}
		y, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		x = &Binary{Op: op, X: x, Y: y}
	}
}

func (p *parser) parseFactor() (Node, error) {
	if p.acceptOp("-") {
		if err := p.grow(); err != nil {
			return nil, err
		}
		x, err := p.nested(p.parseFactor)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: OpNeg, X: x}, nil
	}
	if p.acceptOp("+") {
		return p.nested(p.parseFactor)
	}
	return p.parsePower()
}

func (p *parser) parsePower() (Node, error) {
	x, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	if p.acceptOp("**") {
		if err := p.grow(); err != nil {
			return nil, err
		}
		// Right-associative, and unary minus binds tighter on the right:
		// 2 ** -1 is valid.
		y, err := p.nested(p.parseFactor)
		if err != nil {
			return nil, err
		}
		return &Binary{Op: OpPow, X: x, Y: y}, nil
	}
	return x, nil
}

var builtinArity = map[string]struct{ min, max int }{
	"min": {2, 1 << 30},
	"max": {2, 1 << 30},
	"abs": {1, 1},
	"pow": {2, 2},
}

func (p *parser) parseAtom() (Node, error) {
	t := p.peek()
	if t.kind != tokOp || t.text != "(" {
		// A parenthesized expression adds no node of its own.
		if err := p.grow(); err != nil {
			return nil, err
		}
	}
	switch t.kind {
	case tokInt:
		p.i++
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, &SyntaxError{p.src, t.pos, "invalid integer literal " + t.text}
		}
		return &Lit{Val: value.OfInt(n)}, nil
	case tokFloat:
		p.i++
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, &SyntaxError{p.src, t.pos, "invalid float literal " + t.text}
		}
		return &Lit{Val: value.OfFloat(f)}, nil
	case tokString:
		p.i++
		return &Lit{Val: value.OfString(t.text)}, nil
	case tokName:
		switch t.text {
		case "True":
			p.i++
			return &Lit{Val: value.OfBool(true)}, nil
		case "False":
			p.i++
			return &Lit{Val: value.OfBool(false)}, nil
		case "and", "or", "not", "in":
			return nil, p.errorf("unexpected keyword %q", t.text)
		}
		p.i++
		return p.parseTrailer(t.text)
	case tokOp:
		switch t.text {
		case "(":
			p.i++
			x, err := p.nested(p.parseOr)
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return x, nil
		case "[":
			p.i++
			return p.parseList()
		}
	}
	return nil, p.errorf("unexpected %s", t)
}

// parseTrailer handles what may follow a bare name: a call for the
// built-ins, or subscription with a string key (Kernel Tuner's lambda
// style p["block_size_x"], normalized to the bare parameter name).
func (p *parser) parseTrailer(name string) (Node, error) {
	if p.acceptOp("(") {
		arity, ok := builtinArity[name]
		if !ok {
			return nil, p.errorf("unknown function %q (supported: abs, min, max, pow)", name)
		}
		var args []Node
		if !p.acceptOp(")") {
			for {
				a, err := p.nested(p.parseOr)
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.acceptOp(",") {
					continue
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				break
			}
		}
		if len(args) < arity.min || len(args) > arity.max {
			return nil, p.errorf("%s() takes %d..%d arguments, got %d", name, arity.min, arity.max, len(args))
		}
		return &Call{Fn: name, Args: args}, nil
	}
	if p.acceptOp("[") {
		key := p.peek()
		if key.kind != tokString {
			return nil, p.errorf("subscript of %q must be a string key", name)
		}
		p.i++
		if err := p.expectOp("]"); err != nil {
			return nil, err
		}
		return &Name{Ident: key.text}, nil
	}
	return &Name{Ident: name}, nil
}

func (p *parser) parseList() (Node, error) {
	var elems []Node
	if p.acceptOp("]") {
		return &List{}, nil
	}
	for {
		e, err := p.nested(p.parseOr)
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
		if p.acceptOp(",") {
			if p.acceptOp("]") { // trailing comma
				return &List{Elems: elems}, nil
			}
			continue
		}
		if err := p.expectOp("]"); err != nil {
			return nil, err
		}
		return &List{Elems: elems}, nil
	}
}
