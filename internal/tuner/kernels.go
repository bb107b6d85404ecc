package tuner

import (
	"math"

	"searchspace/internal/model"
	"searchspace/internal/value"
)

// SimKernel is a deterministic synthetic performance model standing in
// for a real GPU kernel (the substitution documented in DESIGN.md). The
// model is built from a workload definition and a seed: every parameter
// gets a hidden optimal setting and a sensitivity, plus pairwise
// interaction terms between adjacent parameters — the typical structure
// of real tuning landscapes (bowl-shaped response around a hardware
// sweet spot with parameter coupling). Identical (definition, seed)
// pairs always produce the identical landscape.
type SimKernel struct {
	name   string
	nParam int
	// values[p] is parameter p's declared domain, which a row's domain
	// indices select from; see Objective.
	values [][]value.Value
	baseMs float64
	work   float64 // abstract work units; Score = work / TimeMs
	// rawBounds[p] holds the feature-space extremes of parameter p's
	// declared domain, used to normalize values into [0,1].
	rawBounds [][2]float64
	optFrac   []float64
	weight    []float64
	pairW     []float64
}

// NewSimKernel builds the performance model for def. baseMs is the
// execution time of an ideal configuration in milliseconds; work sets
// the numerator of the performance score (a GFLOP/s-like throughput).
func NewSimKernel(def *model.Definition, seed int64, baseMs, work float64) *SimKernel {
	k := &SimKernel{
		name:   def.Name,
		nParam: len(def.Params),
		baseMs: baseMs,
		work:   work,
	}
	// Sensitivities scale down with the parameter count so the spread
	// between best and worst configuration stays a realistic 1-2 orders
	// of magnitude regardless of dimensionality (the factors multiply).
	scale := 4.0 / float64(len(def.Params))
	if scale > 1 {
		scale = 1
	}
	h := seed*0x9E3779B9 + 0x85EBCA6B
	for pi, p := range def.Params {
		k.values = append(k.values, p.Values)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range p.Values {
			f := featureOf(v)
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
		k.rawBounds = append(k.rawBounds, [2]float64{lo, hi})
		h1 := splitmix(h + int64(pi)*0x9E3779B9)
		h2 := splitmix(h1)
		k.optFrac = append(k.optFrac, frac01(h1))
		// Sensitivity between 0.05 and 0.55 before dimensional scaling;
		// singleton parameters contribute nothing because their
		// normalized feature is fixed.
		k.weight = append(k.weight, (0.05+0.5*frac01(h2))*scale)
		k.pairW = append(k.pairW, 0.1*frac01(splitmix(h2))*scale)
	}
	return k
}

// Objective scores the rows of a space resolved from the kernel's
// definition: row r's domain indices (sp.Indices) select its values
// from the declared domains, Score is the kernel's Score and Cost its
// simulated time in seconds.
func (k *SimKernel) Objective(sp interface{ Indices(r int) []int32 }) Objective {
	row := func(r int) []value.Value {
		idx := sp.Indices(r)
		cfg := make([]value.Value, len(idx))
		for p, di := range idx {
			cfg[p] = k.values[p][di]
		}
		return cfg
	}
	return Objective{
		Score: func(r int) float64 { return k.Score(row(r)) },
		Cost:  func(r int) float64 { return k.TimeMs(row(r)) / 1000 },
	}
}

// Name returns the kernel's label.
func (k *SimKernel) Name() string { return k.name }

// TimeMs returns the simulated execution time of the configuration given
// as values in parameter definition order.
func (k *SimKernel) TimeMs(cfg []value.Value) float64 {
	t := k.baseMs
	prev := 0.0
	for pi := 0; pi < k.nParam; pi++ {
		f := k.normFeature(pi, cfg[pi])
		d := f - k.optFrac[pi]
		t *= 1 + 4*k.weight[pi]*d*d
		if pi > 0 {
			// Interaction: mismatched adjacent parameters cost extra
			// (e.g. block size versus tile size trade-offs).
			dd := f - prev
			t *= 1 + k.pairW[pi]*dd*dd
		}
		prev = f
	}
	return t
}

// Score returns the throughput-style performance (higher is better) of a
// configuration: work divided by simulated time.
func (k *SimKernel) Score(cfg []value.Value) float64 {
	return k.work / k.TimeMs(cfg)
}

// normFeature maps a value of parameter pi into [0,1] relative to the
// declared domain's feature extremes.
func (k *SimKernel) normFeature(pi int, v value.Value) float64 {
	f := featureOf(v)
	lo, hi := k.rawBounds[pi][0], k.rawBounds[pi][1]
	if hi == lo {
		return 0.5
	}
	x := (f - lo) / (hi - lo)
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// featureOf maps a value onto a smooth numeric axis: log2 for positive
// numbers (tuning parameters are usually power-like), linear through
// zero for the rest, and stable hash buckets for categorical values.
func featureOf(v value.Value) float64 {
	if v.IsNumeric() {
		f := v.Float()
		if f > 0 {
			return math.Log2(1 + f)
		}
		return f
	}
	h := int64(0)
	for _, c := range v.Str() {
		h = h*31 + int64(c)
	}
	return float64(h%7) / 7
}

func splitmix(x int64) int64 {
	z := uint64(x) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

func frac01(h int64) float64 {
	return float64(uint64(h)>>11) / float64(1<<53)
}
