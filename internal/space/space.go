// Package space implements the resolved SearchSpace representation of
// §4.4: once construction has produced every valid configuration, this
// package stores them column-major, indexes them for fast membership and
// lookup, exposes the true parameter bounds that guide optimization
// algorithms, and implements the sampling and neighbor operations
// (uniform, stratified/Latin-Hypercube, Hamming and adjacent neighbors)
// that auto-tuning strategies rely on.
package space

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"searchspace/internal/core"
	"searchspace/internal/model"
	"searchspace/internal/value"
)

// Space is a fully resolved, immutable search space. All methods are
// safe for concurrent use (the spaced service shares one Space across
// request goroutines); the only state built after construction is the
// row index, published once under indexOnce.
//
// One index serves every membership and neighbor query: each row's
// per-parameter domain indices are bit-packed into a uint64 key, the
// keys are kept sorted alongside their rows, and a query packs its
// configuration (or re-packs one field of a row's key) and
// binary-searches.
type Space struct {
	names   []string
	domains [][]value.Value
	cols    [][]int32
	n       int

	// Key layout, fixed at construction. Parameter p's domain index
	// sits under mask[p], starting at bit shift[p]: ⌈log2 |domain|⌉
	// bits, with fields in definition order from bit 0 up to width. A
	// parameter whose field would not fit in 64 bits gets mask 0 and is
	// listed in spill; rows with equal keys are told apart by comparing
	// those columns.
	shift []uint8
	mask  []uint64
	spill []int
	width uint

	// keys holds every row's key in ascending order and rows the row
	// each key belongs to: 12 bytes per row. They are built on the
	// first query (indexOnce), because a space restored from a
	// snapshot, or built only to be sampled, may never serve one.
	indexOnce sync.Once
	keys      []uint64
	rows      []int32
}

// FromColumnar wraps solver output into a Space. The columnar data is
// retained, not copied.
func FromColumnar(def *model.Definition, col *core.Columnar) (*Space, error) {
	if len(col.Cols) != len(def.Params) {
		return nil, fmt.Errorf("space: column count %d != parameter count %d", len(col.Cols), len(def.Params))
	}
	s := &Space{
		names:   make([]string, len(def.Params)),
		domains: make([][]value.Value, len(def.Params)),
		cols:    col.Cols,
		n:       col.NumSolutions(),
		shift:   make([]uint8, len(def.Params)),
		mask:    make([]uint64, len(def.Params)),
	}
	for i, p := range def.Params {
		s.names[i] = p.Name
		s.domains[i] = p.Values
		w := uint(bits.Len(uint(max(len(p.Values)-1, 0))))
		if s.width+w > 64 {
			s.spill = append(s.spill, i)
			continue
		}
		s.shift[i], s.mask[i] = uint8(s.width), (1<<w-1)<<s.width
		s.width += w
	}
	return s, nil
}

// index returns the sorted keys and their rows, building them on first
// use.
func (s *Space) index() ([]uint64, []int32) {
	s.indexOnce.Do(func() {
		keys := make([]uint64, s.n)
		for p, col := range s.cols {
			for r, di := range col[:s.n] {
				keys[r] |= uint64(di) << s.shift[p] & s.mask[p]
			}
		}
		rows := make([]int32, s.n)
		for r := range rows {
			rows[r] = int32(r)
		}
		s.keys, s.rows = sortByKey(keys, rows, s.width)
	})
	return s.keys, s.rows
}

// sortByKey orders keys ascending, carrying rows along, and returns the
// sorted pair. It is an LSD radix sort over the low width bits, one
// byte per pass: a Table 2 space needs two to four passes.
func sortByKey(keys []uint64, rows []int32, width uint) ([]uint64, []int32) {
	tmpKeys, tmpRows := make([]uint64, len(keys)), make([]int32, len(rows))
	for sh := uint(0); sh < width; sh += 8 {
		var start [257]int
		for _, k := range keys {
			start[k>>sh&0xff+1]++
		}
		for d := 1; d < len(start); d++ {
			start[d] += start[d-1]
		}
		for i, k := range keys {
			d := k >> sh & 0xff
			tmpKeys[start[d]], tmpRows[start[d]] = k, rows[i]
			start[d]++
		}
		keys, tmpKeys, rows, tmpRows = tmpKeys, keys, tmpRows, rows
	}
	return keys, rows
}

// key packs a configuration's domain indices. It reports false for a
// vector of the wrong width or with an index outside its declared
// domain: packed, such a digit would be cut to its field's bits and
// could alias a real row.
func (s *Space) key(idx []int32) (uint64, bool) {
	if len(idx) != len(s.domains) {
		return 0, false
	}
	var k uint64
	for p, di := range idx {
		if uint(di) >= uint(len(s.domains[p])) {
			return 0, false
		}
		k |= uint64(di) << s.shift[p] & s.mask[p]
	}
	return k, true
}

// find is the probe behind every query: it returns the row whose key is
// k and whose spill columns equal idx's, or -1. keys and rows come from
// index.
func (s *Space) find(keys []uint64, rows []int32, k uint64, idx []int32) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keys[m] < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
next:
	for ; lo < len(keys) && keys[lo] == k; lo++ {
		r := rows[lo]
		for _, p := range s.spill {
			if s.cols[p][r] != idx[p] {
				continue next
			}
		}
		return int(r)
	}
	return -1
}

// Size returns the number of valid configurations.
func (s *Space) Size() int { return s.n }

// Columns returns the raw per-parameter domain-index columns. The
// returned slices are the space's backing storage (shared, immutable by
// contract); they are what a snapshot must persist to reconstruct the
// space without re-solving.
func (s *Space) Columns() [][]int32 { return s.cols }

// NumParams returns the number of tunable parameters.
func (s *Space) NumParams() int { return len(s.names) }

// Names returns the parameter names in definition order.
func (s *Space) Names() []string { return append([]string(nil), s.names...) }

// Indices returns row r's per-parameter domain indices.
func (s *Space) Indices(r int) []int32 {
	out := make([]int32, len(s.cols))
	for p := range s.cols {
		out[p] = s.cols[p][r]
	}
	return out
}

// Row returns row r's values in parameter definition order.
func (s *Space) Row(r int) []value.Value {
	out := make([]value.Value, len(s.cols))
	for p := range s.cols {
		out[p] = s.domains[p][s.cols[p][r]]
	}
	return out
}

// RowMap returns row r as a name→value map.
func (s *Space) RowMap(r int) map[string]value.Value {
	out := make(map[string]value.Value, len(s.cols))
	for p, name := range s.names {
		out[name] = s.domains[p][s.cols[p][r]]
	}
	return out
}

// Lookup returns the row holding the configuration with the given
// per-parameter domain indices, or ok=false when it is not a valid
// configuration. It does not allocate once the index is built: the
// tuner strategies (GA crossover in particular) call it per candidate
// per generation.
func (s *Space) Lookup(idx []int32) (int, bool) {
	k, ok := s.key(idx)
	if !ok {
		return 0, false
	}
	keys, rows := s.index()
	if r := s.find(keys, rows, k, idx); r >= 0 {
		return r, true
	}
	return 0, false
}

// LookupRows resolves a batch of per-parameter index vectors to rows in
// one pass, with one binary search per element: the bulk form of Lookup
// that the service's batch endpoints sit on. out[i] is -1 when batch[i]
// is not a valid configuration (wrong width and out-of-domain indices
// included).
func (s *Space) LookupRows(batch [][]int32) []int {
	out := make([]int, len(batch))
	keys, rows := s.index()
	for i, idx := range batch {
		out[i] = -1
		if k, ok := s.key(idx); ok {
			out[i] = s.find(keys, rows, k, idx)
		}
	}
	return out
}

// LookupValues resolves a configuration given as values.
func (s *Space) LookupValues(vals []value.Value) (int, bool) {
	if len(vals) != len(s.cols) {
		return 0, false
	}
	var stackIdx [32]int32
	var idx []int32
	if len(vals) <= len(stackIdx) {
		idx = stackIdx[:len(vals)]
	} else {
		idx = make([]int32, len(vals))
	}
	for p, v := range vals {
		found := false
		for k, dv := range s.domains[p] {
			if value.Equal(v, dv) {
				idx[p] = int32(k)
				found = true
				break
			}
		}
		if !found {
			return 0, false
		}
	}
	return s.Lookup(idx)
}

// Bounds describes one parameter's value range across valid
// configurations only — the "true bounds" of §4.4 that a dynamic
// (unresolved) representation cannot provide reliably.
type Bounds struct {
	Name string
	// Min and Max are the numeric extremes among values that occur in at
	// least one valid configuration. Numeric is false for string-valued
	// parameters, in which case Min/Max are meaningless.
	Min, Max float64
	Numeric  bool
	// DistinctValues is the number of distinct values that occur in valid
	// configurations (≤ the declared domain size).
	DistinctValues int
}

// active reports, per declared domain index of parameter p, whether the
// value occurs in at least one valid configuration.
func (s *Space) active(p int) []bool {
	seen := make([]bool, len(s.domains[p]))
	for _, di := range s.cols[p][:s.n] {
		seen[di] = true
	}
	return seen
}

// TrueBounds computes per-parameter bounds over the valid configurations.
func (s *Space) TrueBounds() []Bounds {
	out := make([]Bounds, len(s.names))
	for p, name := range s.names {
		b := Bounds{Name: name, Min: math.Inf(1), Max: math.Inf(-1), Numeric: true}
		for di, ok := range s.active(p) {
			if !ok {
				continue
			}
			b.DistinctValues++
			v := s.domains[p][di]
			if !v.IsNumeric() {
				b.Numeric = false
				continue
			}
			f := v.Float()
			if f < b.Min {
				b.Min = f
			}
			if f > b.Max {
				b.Max = f
			}
		}
		out[p] = b
	}
	return out
}

// ActiveValues returns the distinct values of the named parameter that
// occur in at least one valid configuration, in domain order.
func (s *Space) ActiveValues(name string) ([]value.Value, bool) {
	p := slices.Index(s.names, name)
	if p < 0 {
		return nil, false
	}
	out := []value.Value{}
	for di, ok := range s.active(p) {
		if ok {
			out = append(out, s.domains[p][di])
		}
	}
	return out, true
}

// SampleUniform draws k distinct rows uniformly at random. When k exceeds
// the space size, every row is returned (shuffled).
func (s *Space) SampleUniform(rng *rand.Rand, k int) []int {
	if k >= s.n {
		out := rng.Perm(s.n)
		return out
	}
	// Floyd's algorithm for a uniform k-subset.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := s.n - k; j < s.n; j++ {
		t := rng.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// SampleStratified splits the enumeration order into k contiguous strata
// and draws one row per stratum: the cheap stratified sampling that a
// fully resolved space enables (§4.4).
func (s *Space) SampleStratified(rng *rand.Rand, k int) []int {
	if k <= 0 {
		return nil
	}
	if k >= s.n {
		return rng.Perm(s.n)
	}
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		lo := i * s.n / k
		hi := (i + 1) * s.n / k
		if hi <= lo {
			hi = lo + 1
		}
		out = append(out, lo+rng.Intn(hi-lo))
	}
	return out
}

// SampleLHS draws k rows by Latin Hypercube Sampling over the valid
// marginals: each numeric parameter's active range is cut into k strata,
// per-parameter strata are randomly permuted, and each of the k target
// points is snapped to the nearest valid configuration in normalized
// index space. Runs in O(k·n·p); intended for moderate k.
func (s *Space) SampleLHS(rng *rand.Rand, k int) []int {
	if k <= 0 {
		return nil
	}
	if k >= s.n {
		return rng.Perm(s.n)
	}
	p := len(s.names)
	// posOf[pi][domainIdx] = rank among the parameter's active values;
	// span[pi] = the number of active values.
	posOf := make([][]int, p)
	span := make([]float64, p)
	for pi := 0; pi < p; pi++ {
		seen := s.active(pi)
		posOf[pi] = make([]int, len(seen))
		for di, ok := range seen {
			if ok {
				posOf[pi][di] = int(span[pi])
				span[pi]++
			}
		}
	}
	// LHS targets: one stratum per sample per dimension, permuted.
	targets := make([][]float64, k)
	for i := range targets {
		targets[i] = make([]float64, p)
	}
	for pi := 0; pi < p; pi++ {
		perm := rng.Perm(k)
		for i := 0; i < k; i++ {
			stratum := float64(perm[i])
			targets[i][pi] = (stratum + rng.Float64()) / float64(k) // in [0,1)
		}
	}
	// Snap each target to the nearest valid row (L1 in normalized rank
	// space), without replacement.
	used := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		best, bestDist := -1, math.Inf(1)
		for r := 0; r < s.n; r++ {
			if _, dup := used[r]; dup {
				continue
			}
			d := 0.0
			for pi := 0; pi < p; pi++ {
				pos := (float64(posOf[pi][s.cols[pi][r]]) + 0.5) / span[pi]
				d += math.Abs(pos - targets[i][pi])
			}
			if d < bestDist {
				best, bestDist = r, d
			}
		}
		if best >= 0 {
			used[best] = struct{}{}
			out = append(out, best)
		}
	}
	return out
}

// HammingNeighbors returns the rows that differ from row r in exactly one
// parameter (any value), the neighborhood used by the genetic algorithm's
// mutation step.
func (s *Space) HammingNeighbors(r int) []int { return s.neighbors(r, false) }

// AdjacentNeighbors returns the rows that differ from row r in exactly
// one parameter by exactly one position in that parameter's declared
// value order (the "adjacent" neighborhood of Kernel Tuner's local-search
// strategies).
func (s *Space) AdjacentNeighbors(r int) []int { return s.neighbors(r, true) }

// neighbors probes, for each parameter, every other domain index (or
// only the two adjacent ones) in place of row r's, re-packing that one
// field of r's key. The result is sorted by row.
func (s *Space) neighbors(r int, adjacent bool) []int {
	keys, rows := s.index()
	idx := s.Indices(r)
	base, _ := s.key(idx)
	var out []int
	for p, dom := range s.domains {
		orig := idx[p]
		lo, hi := int32(0), int32(len(dom)-1)
		if adjacent {
			lo, hi = max(orig-1, lo), min(orig+1, hi)
		}
		for v := lo; v <= hi; v++ {
			if v == orig {
				continue
			}
			idx[p] = v
			k := base&^s.mask[p] | uint64(v)<<s.shift[p]&s.mask[p]
			if nb := s.find(keys, rows, k, idx); nb >= 0 {
				out = append(out, nb)
			}
		}
		idx[p] = orig
	}
	sort.Ints(out)
	return out
}

// RandomNeighbor returns a uniformly random Hamming neighbor of row r, or
// ok=false when r has none.
func (s *Space) RandomNeighbor(rng *rand.Rand, r int) (int, bool) {
	nb := s.HammingNeighbors(r)
	if len(nb) == 0 {
		return 0, false
	}
	return nb[rng.Intn(len(nb))], true
}
