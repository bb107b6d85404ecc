package searchspace

import (
	"fmt"
	"math/rand"

	"searchspace/internal/model"
	"searchspace/internal/space"
	"searchspace/internal/value"
)

// SearchSpace is a fully resolved search space (§4.4 of the paper): every
// valid configuration is materialized and indexed, so membership tests,
// neighbor queries and sampling are cheap and exact — information a
// dynamic (sample-then-check) representation cannot provide reliably.
type SearchSpace struct {
	s   *space.Space
	def *model.Definition
}

// Config is one valid configuration as a name→value map. Values are
// plain Go types: int64, float64, bool, or string.
type Config map[string]any

// Size returns the number of valid configurations.
func (ss *SearchSpace) Size() int { return ss.s.Size() }

// NumParams returns the number of tunable parameters.
func (ss *SearchSpace) NumParams() int { return ss.s.NumParams() }

// Names returns the parameter names in declaration order.
func (ss *SearchSpace) Names() []string { return ss.s.Names() }

// Get returns configuration i as a map.
func (ss *SearchSpace) Get(i int) Config {
	m := ss.s.RowMap(i)
	out := make(Config, len(m))
	for k, v := range m {
		out[k] = v.Native()
	}
	return out
}

// GetValues returns configuration i's values in declaration order.
func (ss *SearchSpace) GetValues(i int) []any {
	row := ss.s.Row(i)
	out := make([]any, len(row))
	for k, v := range row {
		out[k] = v.Native()
	}
	return out
}

// IndexOf returns the row of the given configuration, or ok=false when it
// is not part of the space (invalid or out of domain).
func (ss *SearchSpace) IndexOf(cfg Config) (int, bool) {
	vals := make([]value.Value, len(ss.def.Params))
	for i, p := range ss.def.Params {
		raw, ok := cfg[p.Name]
		if !ok {
			return 0, false
		}
		v, err := toValue(raw)
		if err != nil {
			return 0, false
		}
		vals[i] = v
	}
	return ss.s.LookupValues(vals)
}

// Contains reports whether cfg is a valid configuration.
func (ss *SearchSpace) Contains(cfg Config) bool {
	_, ok := ss.IndexOf(cfg)
	return ok
}

// ParamBounds is one parameter's range across valid configurations.
type ParamBounds struct {
	Name string
	// Min/Max are meaningful only when Numeric.
	Min, Max       float64
	Numeric        bool
	DistinctValues int
}

// TrueBounds returns the per-parameter bounds over valid configurations
// only — typically tighter than the declared domains once constraints
// have been applied.
func (ss *SearchSpace) TrueBounds() []ParamBounds {
	in := ss.s.TrueBounds()
	out := make([]ParamBounds, len(in))
	for i, b := range in {
		out[i] = ParamBounds{
			Name: b.Name, Min: b.Min, Max: b.Max,
			Numeric: b.Numeric, DistinctValues: b.DistinctValues,
		}
	}
	return out
}

// ActiveValues returns the distinct values the named parameter takes in
// valid configurations.
func (ss *SearchSpace) ActiveValues(name string) ([]any, error) {
	vals, ok := ss.s.ActiveValues(name)
	if !ok {
		return nil, fmt.Errorf("searchspace: unknown parameter %q", name)
	}
	out := make([]any, len(vals))
	for i, v := range vals {
		out[i] = v.Native()
	}
	return out, nil
}

// SampleUniform draws k distinct configuration rows uniformly.
func (ss *SearchSpace) SampleUniform(rng *rand.Rand, k int) []int {
	return ss.s.SampleUniform(rng, k)
}

// SampleStratified draws one row from each of k contiguous strata of the
// enumeration order.
func (ss *SearchSpace) SampleStratified(rng *rand.Rand, k int) []int {
	return ss.s.SampleStratified(rng, k)
}

// SampleLHS draws k rows by Latin Hypercube Sampling over the valid
// marginals (O(k·n·p); intended for moderate k).
func (ss *SearchSpace) SampleLHS(rng *rand.Rand, k int) []int {
	return ss.s.SampleLHS(rng, k)
}

// Indices returns row i's per-parameter value indices into the declared
// domains — the genotype form optimizers recombine. Use Lookup to map a
// recombined index vector back to a row.
func (ss *SearchSpace) Indices(i int) []int32 {
	return ss.s.Indices(i)
}

// Lookup returns the row whose per-parameter value indices equal idx, or
// ok=false when that combination is not a valid configuration.
func (ss *SearchSpace) Lookup(idx []int32) (int, bool) {
	return ss.s.Lookup(idx)
}

// LookupRows resolves a batch of genotypes (per-parameter index vectors,
// the form Indices returns and optimizers recombine) to rows in one
// call, at one binary search of the row index per element. Element i
// is -1 when batch[i] is not a valid configuration.
func (ss *SearchSpace) LookupRows(batch [][]int32) []int {
	return ss.s.LookupRows(batch)
}

// HammingNeighbors returns the rows differing from row i in exactly one
// parameter.
func (ss *SearchSpace) HammingNeighbors(i int) []int {
	return ss.s.HammingNeighbors(i)
}

// AdjacentNeighbors returns the rows differing from row i in exactly one
// parameter by one position in its declared value order.
func (ss *SearchSpace) AdjacentNeighbors(i int) []int {
	return ss.s.AdjacentNeighbors(i)
}

// RandomNeighbor returns a uniformly random Hamming neighbor of row i.
func (ss *SearchSpace) RandomNeighbor(rng *rand.Rand, i int) (int, bool) {
	return ss.s.RandomNeighbor(rng, i)
}
