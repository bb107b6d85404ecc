// Package searchspace constructs constrained auto-tuning search spaces.
//
// It is a Go implementation of the construction pipeline from
// "Efficient Construction of Large Search Spaces for Auto-Tuning"
// (Willemsen, van Nieuwpoort, van Werkhoven; ICPP '25): tunable
// parameters with finite value lists plus Python-style constraint
// expressions are resolved — by an optimized all-solutions CSP solver —
// into a fully materialized SearchSpace that supports O(log n) membership
// tests, true parameter bounds, uniform / stratified / Latin-Hypercube
// sampling, and neighbor queries for optimization algorithms.
//
// The package also exposes every baseline construction method evaluated
// in the paper (brute force, the unoptimized CSP solver, chain-of-trees
// in compiled and interpreted variants, and blocking-clause enumeration)
// behind the same API, selected with a Method, so applications and
// benchmarks can compare them on identical inputs.
//
// A minimal end-to-end use:
//
//	p := searchspace.NewProblem("hotspot")
//	p.AddParam("block_size_x", 1, 2, 4, 8, 16, 32, 64, 128, 256)
//	p.AddParam("block_size_y", 1, 2, 4, 8, 16, 32)
//	p.AddConstraint("32 <= block_size_x * block_size_y <= 1024")
//	ss, err := p.Build(searchspace.Optimized)
package searchspace

import (
	"errors"
	"fmt"
	"time"

	"searchspace/internal/bruteforce"
	"searchspace/internal/chaintrees"
	"searchspace/internal/core"
	"searchspace/internal/itersolve"
	"searchspace/internal/model"
	"searchspace/internal/naive"
	"searchspace/internal/space"
	"searchspace/internal/value"
)

// Method selects a search-space construction algorithm.
type Method int

const (
	// Optimized is the paper's contribution: the optimized CSP solver
	// with constraint parsing/decomposition, specific constraints with
	// preprocessing, degree-ordered variables, compiled predicates, and
	// partial-assignment rejection.
	Optimized Method = iota
	// Original is the unoptimized CSP solver baseline (vanilla
	// python-constraint): recursive backtracking, whole-constraint
	// interpreted evaluation, no preprocessing.
	Original
	// BruteForce filters the full Cartesian product through the raw
	// constraints.
	BruteForce
	// ChainOfTrees is the ATF-style grouped-tree construction with
	// compiled constraint evaluation (the C++ ATF analogue).
	ChainOfTrees
	// ChainOfTreesInterpreted evaluates constraints by tree-walking (the
	// pyATF analogue).
	ChainOfTreesInterpreted
	// IterativeSAT emulates one-solution-at-a-time solvers (PySMT/Z3):
	// solve, add a blocking clause, repeat.
	IterativeSAT
)

var methodNames = map[Method]string{
	Optimized:               "optimized",
	Original:                "original",
	BruteForce:              "brute-force",
	ChainOfTrees:            "chain-of-trees",
	ChainOfTreesInterpreted: "chain-of-trees-interpreted",
	IterativeSAT:            "iterative-sat",
}

// String returns the method's report label.
func (m Method) String() string {
	if s, ok := methodNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Methods lists all construction methods in report order.
func Methods() []Method {
	return []Method{BruteForce, Original, ChainOfTrees, ChainOfTreesInterpreted, IterativeSAT, Optimized}
}

// Parallelizable reports whether the method's construction backend can
// use more than one worker. The exhaustive baselines (brute-force,
// original, iterative-sat) are sequential by design — their value is
// faithfully reproducing the paper's unoptimized loops.
func (m Method) Parallelizable() bool {
	switch m {
	case Optimized, ChainOfTrees, ChainOfTreesInterpreted:
		return true
	}
	return false
}

// MethodByName resolves a report label (e.g. "optimized",
// "chain-of-trees") back to its Method.
func MethodByName(name string) (Method, bool) {
	for m, s := range methodNames {
		if s == name {
			return m, true
		}
	}
	return 0, false
}

// Problem accumulates parameters and constraints. Methods record the
// first error and Build reports it, so call sites can chain adds without
// per-call error handling (mirroring how tuning scripts declare spaces).
type Problem struct {
	def *model.Definition
	err error
}

// NewProblem creates an empty problem with a report label.
func NewProblem(name string) *Problem {
	return &Problem{def: &model.Definition{Name: name}}
}

// FromDefinition wraps an existing internal definition into a Problem.
// The definition is used as-is (not copied); it is the entry point for
// callers — the workload suites, benchmarks, and the service codec —
// that already hold a model.Definition.
func FromDefinition(def *model.Definition) *Problem {
	return &Problem{def: def}
}

// Definition returns the problem's underlying definition. The returned
// value is shared with the Problem, so treat it as read-only; use
// Definition().Clone() before mutating.
func (p *Problem) Definition() *model.Definition { return p.def }

// Name returns the problem's label.
func (p *Problem) Name() string { return p.def.Name }

// AddParam declares a tunable parameter. Values may be any mix of Go
// integers, floats, bools and strings.
func (p *Problem) AddParam(name string, values ...any) *Problem {
	if p.err != nil {
		return p
	}
	if len(values) == 0 {
		p.err = fmt.Errorf("searchspace: parameter %q needs at least one value", name)
		return p
	}
	vals := make([]value.Value, len(values))
	for i, v := range values {
		vv, err := toValue(v)
		if err != nil {
			p.err = fmt.Errorf("searchspace: parameter %q: %w", name, err)
			return p
		}
		vals[i] = vv
	}
	p.def.Params = append(p.def.Params, model.Param{Name: name, Values: vals})
	return p
}

// AddParamInts declares an integer parameter from a slice.
func (p *Problem) AddParamInts(name string, values []int) *Problem {
	anyVals := make([]any, len(values))
	for i, v := range values {
		anyVals[i] = v
	}
	return p.AddParam(name, anyVals...)
}

// AddConstraint registers a constraint written in the Python expression
// subset (e.g. "32 <= block_size_x * block_size_y <= 1024").
func (p *Problem) AddConstraint(src string) *Problem {
	if p.err != nil {
		return p
	}
	p.def.Constraints = append(p.def.Constraints, src)
	return p
}

// AddConstraintFunc registers a native Go predicate over the named
// parameters; args arrive in the order of vars as int64/float64/bool/
// string.
func (p *Problem) AddConstraintFunc(vars []string, fn func(args []any) bool) *Problem {
	if p.err != nil {
		return p
	}
	if fn == nil {
		p.err = fmt.Errorf("searchspace: nil constraint function")
		return p
	}
	varsCopy := append([]string(nil), vars...)
	p.def.GoConstraints = append(p.def.GoConstraints, model.GoConstraint{
		Vars: varsCopy,
		Fn: func(vals []value.Value) bool {
			args := make([]any, len(vals))
			for i, v := range vals {
				args[i] = v.Native()
			}
			return fn(args)
		},
	})
	return p
}

// CartesianSize returns the unconstrained configuration count.
func (p *Problem) CartesianSize() float64 { return p.def.CartesianSize() }

// BuildStats reports how a construction run went.
type BuildStats struct {
	Method   Method
	Duration time.Duration
	// Cartesian is the unconstrained size; Valid the resolved size.
	Cartesian float64
	Valid     int
	// Workers is the worker budget the construction ran under: the
	// resolved BuildOpts.Workers for parallel-capable methods, 1 for
	// the sequential baselines. The scheduler may engage fewer
	// goroutines than the budget when the space is too small to split
	// that wide; the output is identical either way.
	Workers int
	// Nodes is the number of search-tree nodes the enumeration kernel
	// actually visited, reported for single-worker optimized builds
	// (the paper's measurement configuration); 0 for other methods and
	// for parallel runs. With bulk tail expansion this is typically far
	// below the node count a per-node walk would pay — the gap is the
	// kernel's structural win on constraint-sparse spaces. Nodes counts
	// visited nodes plus emitted tail blocks; Blocks breaks out the
	// block component so telemetry can show how much of the walk the
	// bulk expansion skipped. A space whose constraints split into
	// independent parameter groups is solved one group at a time and
	// their product written out: there, the visited nodes are the
	// groups' walks and the blocks are the product's cartesian blocks.
	Nodes  int64
	Blocks int64
}

// BuildOpts configures one construction run: which algorithm, how many
// workers, and how the run can be cancelled. It is the single entry
// point every other Build* form wraps.
type BuildOpts struct {
	// Method selects the construction algorithm; the zero value is
	// Optimized, the paper's contribution and the service default.
	Method Method
	// Workers is the number of goroutines enumerating concurrently for
	// methods with a parallel backend (optimized and both chain-of-trees
	// modes). <= 0 selects GOMAXPROCS; 1 forces the sequential path.
	// Output is byte-identical to sequential at every worker count.
	// Methods without a parallel backend ignore it.
	Workers int
	// Stop is polled cooperatively during construction; a true return
	// abandons the build with ErrCanceled. All parallel-capable methods
	// and the brute-force baseline poll it mid-build; original and
	// iterative-sat check it only before starting, since their value is
	// faithfully reproducing the paper's unoptimized construction loops
	// and the service admission-bounds their input size. Nil never
	// cancels. Stop may be called from several goroutines at once.
	Stop func() bool
	// OnProgress, when set, observes enumeration progress (completed
	// and total scheduler tasks): one upfront call with done 0 and the
	// total, then one per completed task. Calls may arrive concurrently
	// from worker goroutines.
	OnProgress func(done, total int)
	// Progress, when set, receives live node/row counters from inside
	// the optimized solver's enumeration kernel — finer-grained than
	// OnProgress (which only ticks at task boundaries) and updated even
	// by single-worker runs. Methods that do not use the kernel leave
	// it untouched.
	Progress *ProgressSink
}

// ProgressSink re-exports the kernel's atomic live-progress counters
// so callers outside the internal tree can construct one and watch a
// build move; see BuildOpts.Progress.
type ProgressSink = core.ProgressSink

// preflight is the shared Build* preamble: surface a deferred
// accumulation error, validate the definition, and seed the stats.
func (p *Problem) preflight(m Method) (BuildStats, error) {
	stats := BuildStats{Method: m, Cartesian: p.def.CartesianSize(), Workers: 1}
	if p.err != nil {
		return stats, p.err
	}
	if err := p.def.Validate(); err != nil {
		return stats, err
	}
	return stats, nil
}

// Build resolves the search space with the chosen method, sequentially.
func (p *Problem) Build(m Method) (*SearchSpace, error) {
	ss, _, err := p.BuildWith(BuildOpts{Method: m, Workers: 1})
	return ss, err
}

// BuildTimed resolves the search space sequentially and reports timing,
// the measurement primitive behind every figure in the evaluation (the
// paper's numbers are single-core, so the legacy entry points pin
// Workers to 1; use BuildWith for the parallel engine).
func (p *Problem) BuildTimed(m Method) (*SearchSpace, BuildStats, error) {
	return p.BuildWith(BuildOpts{Method: m, Workers: 1})
}

// ErrCanceled reports a construction abandoned because its stop
// function fired.
var ErrCanceled = errors.New("searchspace: construction canceled")

// BuildWith resolves the search space under one execution config. It is
// THE build path — every other Build* form is a thin wrapper — so
// cancellation, parallelism, and timing behave identically no matter
// how a build is requested. Parallel output is byte-identical to
// sequential for every method and worker count; only the wall time
// changes.
func (p *Problem) BuildWith(o BuildOpts) (*SearchSpace, BuildStats, error) {
	stats, err := p.preflight(o.Method)
	if err != nil {
		return nil, stats, err
	}
	ex := core.Exec{Workers: o.Workers, Stop: o.Stop, OnProgress: o.OnProgress, Sink: o.Progress}
	start := time.Now()
	col, workers, es, err := construct(p.def, o.Method, ex)
	stats.Duration = time.Since(start)
	stats.Workers = workers
	stats.Nodes = es.Nodes + es.Blocks
	stats.Blocks = es.Blocks
	if err != nil {
		return nil, stats, err
	}
	// A stop firing after construct completed is ignored: the expensive
	// work is done, so publishing the result beats discarding it.
	sp, err := space.FromColumnar(p.def, col)
	if err != nil {
		return nil, stats, err
	}
	stats.Valid = sp.Size()
	return &SearchSpace{s: sp, def: p.def}, stats, nil
}

// construct dispatches to the selected construction backend; all return
// the same columnar format. The returned worker count is the
// parallelism the backend actually applied (1 for the inherently
// sequential baselines, whatever the Exec resolved to otherwise); the
// EnumStats carry the kernel's visited-node and emitted-block counts
// for single-worker optimized runs, zero everywhere else.
func construct(def *model.Definition, m Method, ex core.Exec) (*core.Columnar, int, core.EnumStats, error) {
	var none core.EnumStats
	if ex.Stop != nil && ex.Stop() {
		return nil, 1, none, ErrCanceled
	}
	switch m {
	case Optimized:
		prob, err := def.ToProblem()
		if err != nil {
			return nil, 1, none, err
		}
		col, es, canceled := prob.Compile(core.DefaultOptions()).SolveColumnarExec(ex)
		if canceled {
			return nil, ex.EffectiveWorkers(), none, ErrCanceled
		}
		return col, ex.EffectiveWorkers(), es, nil
	case Original:
		col, err := naive.Solve(def)
		return col, 1, none, err
	case BruteForce:
		col, _, err := bruteforce.SolveStop(def, ex.Stop)
		if errors.Is(err, bruteforce.ErrCanceled) {
			return nil, 1, none, ErrCanceled
		}
		return col, 1, none, err
	case ChainOfTrees, ChainOfTreesInterpreted:
		mode := chaintrees.ModeCompiled
		if m == ChainOfTreesInterpreted {
			mode = chaintrees.ModeInterpreted
		}
		chain, err := chaintrees.BuildExec(def, mode, ex)
		if errors.Is(err, chaintrees.ErrCanceled) {
			return nil, ex.EffectiveWorkers(), none, ErrCanceled
		}
		if err != nil {
			return nil, ex.EffectiveWorkers(), none, err
		}
		return chain.ToColumnar(), ex.EffectiveWorkers(), none, nil
	case IterativeSAT:
		col, _, err := itersolve.Solve(def, 0)
		return col, 1, none, err
	}
	return nil, 1, none, fmt.Errorf("searchspace: unknown method %v", m)
}

func toValue(v any) (value.Value, error) {
	switch v.(type) {
	case int, int8, int16, int32, int64, uint, uint8, uint16, uint32, uint64,
		float32, float64, bool, string:
		return value.Of(v), nil
	}
	return value.Value{}, fmt.Errorf("unsupported value type %T", v)
}
