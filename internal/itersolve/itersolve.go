// Package itersolve emulates all-solution extraction with a solver that —
// like the SMT solvers discussed in §4.1 and measured in Figure 4 — only
// finds one solution per query: after each solution, a blocking clause
// forbidding it is added and the solver is re-run from scratch until the
// space is exhausted. Each query pays the full search prefix again while
// rejecting every previously blocked solution, which is what gives this
// strategy its superlinear scaling in the number of valid configurations.
package itersolve

import (
	"fmt"

	"searchspace/internal/core"
	"searchspace/internal/model"
)

// Stats reports the work performed by the blocking-clause enumeration.
type Stats struct {
	// Queries is the number of solver invocations: one per solution
	// found, plus the final unsatisfiable query unless a limit ended
	// the run first.
	Queries int
	// Blocked is the number of times a candidate solution was rejected
	// because it matched an existing blocking clause.
	Blocked int
}

// Solve enumerates the valid configurations of def via repeated
// single-solution queries with blocking clauses. A positive limit ends
// the run once that many solutions are found, the truncated run the
// harness extrapolates from; 0 enumerates every solution.
func Solve(def *model.Definition, limit int) (*core.Columnar, *Stats, error) {
	p, err := def.ToProblem()
	if err != nil {
		return nil, nil, err
	}
	compiled := p.Compile(core.DefaultOptions())

	out := &core.Columnar{
		Names: make([]string, len(def.Params)),
		Cols:  make([][]int32, len(def.Params)),
	}
	for i, prm := range def.Params {
		out.Names[i] = prm.Name
	}

	stats := &Stats{}
	blocked := make(map[string]struct{})
	keyBuf := make([]byte, 0, 4*len(def.Params))
	for limit <= 0 || len(blocked) < limit {
		stats.Queries++
		found := false
		compiled.ForEach(func(idx []int32) bool {
			key := packKey(keyBuf, idx)
			if _, dup := blocked[key]; dup {
				// The blocking clause rejects this model; the "solver"
				// keeps searching within the same query. A real SMT solver
				// pays this as clause propagation; we pay a hash probe.
				stats.Blocked++
				return true
			}
			blocked[key] = struct{}{}
			for vi, di := range idx {
				out.Cols[vi] = append(out.Cols[vi], di)
			}
			found = true
			return false // one solution per query
		})
		if !found {
			break
		}
	}
	return out, stats, nil
}

// packKey encodes the solution's value indices as a compact map key.
func packKey(buf []byte, idx []int32) string {
	buf = buf[:0]
	for _, di := range idx {
		buf = append(buf, byte(di), byte(di>>8), byte(di>>16), byte(di>>24))
	}
	return string(buf)
}

// String renders the statistics.
func (s *Stats) String() string {
	return fmt.Sprintf("itersolve{queries: %d, blocked: %d}", s.Queries, s.Blocked)
}
