package core

import (
	"fmt"

	"searchspace/internal/expr"
	"searchspace/internal/value"
)

// conKind enumerates the internal constraint implementations. The specific
// kinds (product, sum, comparison, divisibility) carry preprocessing and
// partial-check fast paths; conFunc and conGoFunc are generic predicates.
type conKind uint8

const (
	conFunc conKind = iota
	conUnary
	conMaxProd
	conMinProd
	conMaxSum
	conMinSum
	conVarCmp
	conDivides
	conGoFunc
)

var conKindNames = map[conKind]string{
	conFunc: "function", conUnary: "unary", conMaxProd: "max-product",
	conMinProd: "min-product", conMaxSum: "max-sum", conMinSum: "min-sum",
	conVarCmp: "var-compare", conDivides: "divides", conGoFunc: "go-func",
}

func (k conKind) String() string { return conKindNames[k] }

// constraint is one registered constraint in solver-internal form.
type constraint struct {
	kind conKind
	// vars holds the distinct variable indices, first-seen order.
	vars []int
	// argIdx holds variable indices per operand occurrence: products and
	// sums keep multiplicity (a*a*b has three entries), conVarCmp and
	// conDivides hold exactly two, conGoFunc holds the declared argument
	// order.
	argIdx []int
	bound  float64
	strict bool
	coeffs []float64 // parallel to argIdx for sums
	cmpOp  expr.Op   // for conVarCmp
	pred   expr.Pred // compiled over the full by-variable value vector
	goFn   func([]value.Value) bool
	node   expr.Node
	label  string
}

func (c *constraint) String() string {
	if c.label != "" {
		return c.label
	}
	if c.node != nil {
		return fmt.Sprintf("%v(%s)", c.kind, c.node.String())
	}
	return c.kind.String()
}

// specToConstraint lowers an analyzed spec into the internal constraint
// form, compiling any expression payload against this problem's variable
// slots. A nil constraint with unsat=false means the spec was a tautology
// and can be dropped.
func (p *Problem) specToConstraint(s expr.Spec) (c *constraint, unsat bool, err error) {
	switch s.Kind {
	case expr.SpecTrue:
		return nil, false, nil
	case expr.SpecFalse:
		return nil, true, nil
	}

	idx := make([]int, len(s.Vars))
	for i, name := range s.Vars {
		vi, ok := p.nameIdx[name]
		if !ok {
			return nil, false, fmt.Errorf("core: constraint references unknown variable %q", name)
		}
		idx[i] = vi
	}

	switch s.Kind {
	case expr.SpecUnary:
		pred, err := expr.CompilePred(s.Node, p.nameIdx)
		if err != nil {
			return nil, false, err
		}
		return &constraint{
			kind: conUnary, vars: uniqueInts(idx), argIdx: idx,
			pred: pred, node: s.Node,
		}, false, nil

	case expr.SpecMaxProd, expr.SpecMinProd:
		kind := conMaxProd
		if s.Kind == expr.SpecMinProd {
			kind = conMinProd
		}
		return &constraint{
			kind: kind, vars: uniqueInts(idx), argIdx: idx,
			bound: s.Bound, strict: s.Strict, node: s.Node,
		}, false, nil

	case expr.SpecMaxSum, expr.SpecMinSum:
		kind := conMaxSum
		if s.Kind == expr.SpecMinSum {
			kind = conMinSum
		}
		coeffs := s.Coeffs
		if coeffs == nil {
			coeffs = defaultCoeffs(len(idx))
		}
		return &constraint{
			kind: kind, vars: uniqueInts(idx), argIdx: idx,
			bound: s.Bound, strict: s.Strict, coeffs: coeffs, node: s.Node,
		}, false, nil

	case expr.SpecVarCmp:
		return &constraint{
			kind: conVarCmp, vars: uniqueInts(idx), argIdx: idx,
			cmpOp: s.CmpOp, node: s.Node,
		}, false, nil

	case expr.SpecDivides:
		return &constraint{
			kind: conDivides, vars: uniqueInts(idx), argIdx: idx,
			node: s.Node,
		}, false, nil

	case expr.SpecFunc:
		pred, err := expr.CompilePred(s.Node, p.nameIdx)
		if err != nil {
			return nil, false, err
		}
		return &constraint{
			kind: conFunc, vars: uniqueInts(idx), argIdx: idx,
			pred: pred, node: s.Node,
		}, false, nil
	}
	return nil, false, fmt.Errorf("core: unhandled spec kind %v", s.Kind)
}
