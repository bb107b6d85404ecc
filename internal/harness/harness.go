// Package harness runs the paper's experiments: it times every
// construction method on a workload, computes the characteristics tables,
// and produces the per-figure series (regression slopes, KDEs, totals,
// tuning traces) that the cmd/ binaries print and the root package's
// benchmarks measure.
//
// Every build goes through the public entry point,
// searchspace.(*Problem).BuildWith, on one worker (the paper's numbers
// are single-core), and is labelled by searchspace.Method.String. A
// measurement reports the build's BuildStats.Duration: the construction
// backend alone (for the optimized method that is parsing, compiling and
// the columnar solve), without validating the definition first or
// materializing the resolved space after.
package harness

import (
	"fmt"
	"time"

	"searchspace"
	"searchspace/internal/expr"
	"searchspace/internal/itersolve"
	"searchspace/internal/model"
	"searchspace/internal/stats"
)

// Fig3Methods are the methods compared on the synthetic and real-world
// construction figures (Figures 3 and 5), in the order the paper's bar
// charts list them.
func Fig3Methods() []searchspace.Method {
	return []searchspace.Method{
		searchspace.BruteForce, searchspace.Original, searchspace.ChainOfTrees,
		searchspace.ChainOfTreesInterpreted, searchspace.Optimized,
	}
}

// Fig4Methods are the methods compared on the reduced spaces of Figure 4.
func Fig4Methods() []searchspace.Method {
	return []searchspace.Method{searchspace.BruteForce, searchspace.IterativeSAT, searchspace.Optimized}
}

// Timing is one (workload, method) measurement.
type Timing struct {
	Workload  string
	Method    searchspace.Method
	Seconds   float64
	Valid     int
	Cartesian float64
	NumParams int
	// Skipped marks measurements that were not run because they would
	// dominate the harness runtime (e.g. brute force on a 2.4-billion
	// candidate space); Seconds then holds an extrapolated estimate and
	// Estimated is true.
	Skipped   bool
	Estimated bool
}

// Sparsity returns the constrained fraction (1 - valid/cartesian), the
// x-axis of Figure 5D.
func (t Timing) Sparsity() float64 {
	if t.Cartesian == 0 {
		return 0
	}
	return 1 - float64(t.Valid)/t.Cartesian
}

// Measure times one single-worker construction through BuildWith.
func Measure(def *model.Definition, m searchspace.Method) (Timing, error) {
	_, st, err := searchspace.FromDefinition(def).BuildWith(searchspace.BuildOpts{Method: m, Workers: 1})
	if err != nil {
		return Timing{}, fmt.Errorf("%s/%s: %w", def.Name, m, err)
	}
	return Timing{
		Workload:  def.Name,
		Method:    m,
		Seconds:   st.Duration.Seconds(),
		Valid:     st.Valid,
		Cartesian: def.CartesianSize(),
		NumParams: def.NumParams(),
	}, nil
}

// Options bounds a suite run.
type Options struct {
	// BruteCap skips brute force on spaces whose Cartesian size exceeds
	// it, substituting a per-candidate extrapolation (0 = no cap). The
	// paper brute-forced ATF PRL 8x8 in ~27 hours; the cap keeps the
	// harness interactive while still reporting a defensible estimate.
	BruteCap float64
	// IterCap skips the blocking-clause method on spaces with more valid
	// configurations than this, as its cost grows quadratically
	// (0 = no cap). Requires knowing the valid count, so the optimized
	// method must run first; RunSuite handles the ordering.
	IterCap int
}

// DefaultOptions keeps every experiment interactive on a laptop.
func DefaultOptions() Options {
	return Options{BruteCap: 5e7, IterCap: 20000}
}

// RunSuite measures the given methods on every definition. Measurements
// suppressed by the caps are returned with Skipped/Estimated set, using
// calibrated extrapolations so totals remain comparable in shape to the
// paper's.
func RunSuite(defs []*model.Definition, methods []searchspace.Method, opt Options) ([]Timing, error) {
	var out []Timing
	for _, def := range defs {
		// Optimized runs first: its result supplies the valid count used
		// both for capping and for per-space reporting.
		optTiming, err := Measure(def, searchspace.Optimized)
		if err != nil {
			return nil, err
		}
		for _, m := range methods {
			switch {
			case m == searchspace.Optimized:
				out = append(out, optTiming)
			case m == searchspace.BruteForce && opt.BruteCap > 0 && def.CartesianSize() > opt.BruteCap:
				est, err := extrapolateBrute(def, optTiming)
				if err != nil {
					return nil, err
				}
				out = append(out, est)
			case m == searchspace.IterativeSAT && opt.IterCap > 0 && optTiming.Valid > opt.IterCap:
				est := extrapolateIter(def, optTiming)
				out = append(out, est)
			default:
				t, err := Measure(def, m)
				if err != nil {
					return nil, err
				}
				out = append(out, t)
			}
		}
	}
	return out, nil
}

// extrapolateBrute estimates brute-force time from a 1e6-candidate
// prefix of the Cartesian product.
func extrapolateBrute(def *model.Definition, opt Timing) (Timing, error) {
	sample := int(1e6)
	nodes, err := def.ParsedConstraints()
	if err != nil {
		return Timing{}, err
	}
	env := make(expr.MapEnv, len(def.Params))
	idx := make([]int, len(def.Params))
	for _, p := range def.Params {
		env[p.Name] = p.Values[0]
	}
	start := time.Now()
	n := len(def.Params)
	for c := 0; c < sample; c++ {
		for _, node := range nodes {
			ok, err := expr.EvalBool(node, env)
			if err != nil || !ok {
				break
			}
		}
		k := n - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(def.Params[k].Values) {
				env[def.Params[k].Name] = def.Params[k].Values[idx[k]]
				break
			}
			idx[k] = 0
			env[def.Params[k].Name] = def.Params[k].Values[0]
			k--
		}
		if k < 0 {
			break
		}
	}
	perCand := time.Since(start).Seconds() / float64(sample)
	return Timing{
		Workload:  def.Name,
		Method:    searchspace.BruteForce,
		Seconds:   perCand * def.CartesianSize(),
		Valid:     opt.Valid,
		Cartesian: def.CartesianSize(),
		NumParams: def.NumParams(),
		Skipped:   true,
		Estimated: true,
	}, nil
}

// extrapolateIter estimates blocking-clause time from its quadratic
// behavior, calibrated on a truncated run that extracts 2000 solutions.
func extrapolateIter(def *model.Definition, opt Timing) Timing {
	const probe = 2000
	start := time.Now()
	if _, _, err := itersolve.Solve(def, probe); err != nil {
		return Timing{Workload: def.Name, Method: searchspace.IterativeSAT, Skipped: true, Estimated: true}
	}
	probeSec := time.Since(start).Seconds()
	// Quadratic scaling: time(S) ≈ probeSec * (S/probe)².
	ratio := float64(opt.Valid) / float64(probe)
	return Timing{
		Workload:  def.Name,
		Method:    searchspace.IterativeSAT,
		Seconds:   probeSec * ratio * ratio,
		Valid:     opt.Valid,
		Cartesian: def.CartesianSize(),
		NumParams: def.NumParams(),
		Skipped:   true,
		Estimated: true,
	}
}

// MethodSeries extracts one method's (valid count, seconds) series from a
// suite result.
func MethodSeries(timings []Timing, m searchspace.Method) (xs, ys []float64) {
	for _, t := range timings {
		if t.Method == m {
			xs = append(xs, float64(t.Valid))
			ys = append(ys, t.Seconds)
		}
	}
	return xs, ys
}

// FitMethod regresses log-log time on valid-configuration count for one
// method (the slopes of Figures 3A, 4 and 5A).
func FitMethod(timings []Timing, m searchspace.Method) (stats.LogLogFit, error) {
	xs, ys := MethodSeries(timings, m)
	return stats.FitLogLog(xs, ys)
}

// Total sums one method's time over a suite (Figures 3C and 5F).
func Total(timings []Timing, m searchspace.Method) float64 {
	sum := 0.0
	for _, t := range timings {
		if t.Method == m {
			sum += t.Seconds
		}
	}
	return sum
}
