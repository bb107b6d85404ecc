// Package core implements the optimized all-solutions CSP solver that is
// the paper's primary contribution (§4). A Problem holds finite-domain
// variables (the tunable parameters) and constraints; Compile applies the
// §4.3 optimizations — unary prefilters, specific-constraint preprocessing
// that prunes domain values, and variable ordering by constraint degree —
// and produces a solver that enumerates every valid configuration with an
// iterative backtracking search (Algorithm 1) augmented with
// partial-assignment rejection.
package core

import (
	"fmt"

	"searchspace/internal/expr"
	"searchspace/internal/value"
)

// Problem is a constraint satisfaction problem under construction:
// P = (X, D, C) with variables X, finite domains D, and constraints C.
type Problem struct {
	names   []string
	nameIdx map[string]int
	domains [][]value.Value
	cons    []*constraint
	// unsat is set when an always-false constraint was added; the search
	// space is empty regardless of domains.
	unsat bool
}

// NewProblem returns an empty problem.
func NewProblem() *Problem {
	return &Problem{nameIdx: make(map[string]int)}
}

// NumConstraints returns the number of registered runtime constraints.
// Unary constraints folded into domains at add time still count, as they
// do in the paper's workload characterizations.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// Names returns the variable names in definition order.
func (p *Problem) Names() []string { return append([]string(nil), p.names...) }

// Domain returns the declared domain of the named variable.
func (p *Problem) Domain(name string) ([]value.Value, bool) {
	i, ok := p.nameIdx[name]
	if !ok {
		return nil, false
	}
	return append([]value.Value(nil), p.domains[i]...), true
}

// CartesianSize returns the product of all domain sizes: the number of
// candidate configurations before constraints are applied.
func (p *Problem) CartesianSize() float64 {
	size := 1.0
	for _, d := range p.domains {
		size *= float64(len(d))
	}
	return size
}

// AddVariable declares a tunable parameter with its list of legal values.
// Names must be unique and domains non-empty.
func (p *Problem) AddVariable(name string, values []value.Value) error {
	if name == "" {
		return fmt.Errorf("core: empty variable name")
	}
	if _, dup := p.nameIdx[name]; dup {
		return fmt.Errorf("core: duplicate variable %q", name)
	}
	if len(values) == 0 {
		return fmt.Errorf("core: variable %q has an empty domain", name)
	}
	p.nameIdx[name] = len(p.names)
	p.names = append(p.names, name)
	p.domains = append(p.domains, append([]value.Value(nil), values...))
	return nil
}

// AddConstraintString parses, optimizes, and registers a constraint given
// in the Python-expression form users write in auto-tuning scripts. One
// source string may decompose into several internal constraints (§4.2).
func (p *Problem) AddConstraintString(src string) error {
	specs, err := expr.AnalyzeString(src)
	if err != nil {
		return err
	}
	for _, s := range specs {
		if err := p.AddSpec(s); err != nil {
			return err
		}
	}
	return nil
}

// AddSpec registers one analyzed constraint spec.
func (p *Problem) AddSpec(s expr.Spec) error {
	c, unsatisfiable, err := p.specToConstraint(s)
	if err != nil {
		return err
	}
	if unsatisfiable {
		p.unsat = true
		return nil
	}
	if c != nil {
		p.cons = append(p.cons, c)
	}
	return nil
}

// AddGoFunc registers a native Go predicate over the named variables.
// The predicate receives values in the order of vars. It is the analogue
// of Kernel Tuner's lambda constraints when expressed directly in Go.
func (p *Problem) AddGoFunc(vars []string, fn func(vals []value.Value) bool) error {
	if len(vars) == 0 {
		return fmt.Errorf("core: Go constraint needs at least one variable")
	}
	idx := make([]int, len(vars))
	for i, name := range vars {
		vi, ok := p.nameIdx[name]
		if !ok {
			return fmt.Errorf("core: unknown variable %q in constraint", name)
		}
		idx[i] = vi
	}
	p.cons = append(p.cons, &constraint{
		kind:   conGoFunc,
		vars:   uniqueInts(idx),
		argIdx: idx,
		goFn:   fn,
		label:  fmt.Sprintf("go(%v)", vars),
	})
	return nil
}

func defaultCoeffs(n int) []float64 {
	c := make([]float64, n)
	for i := range c {
		c[i] = 1
	}
	return c
}

// uniqueInts returns the distinct elements of idx preserving first-seen
// order.
func uniqueInts(idx []int) []int {
	seen := make(map[int]struct{}, len(idx))
	var out []int
	for _, i := range idx {
		if _, dup := seen[i]; !dup {
			seen[i] = struct{}{}
			out = append(out, i)
		}
	}
	return out
}
