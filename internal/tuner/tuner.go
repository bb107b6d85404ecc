// Package tuner implements the auto-tuning loop used for the paper's
// end-to-end evaluation (§5.4): optimization strategies that explore a
// resolved SearchSpace under a time budget, with simulated GPU kernels
// standing in for real hardware (the models are in kernels.go). The
// construction-time measurements are real; only kernel execution time
// is simulated, which preserves the figures' shape: time spent
// constructing is time not spent tuning.
//
// Every strategy exists in two equivalent forms: the classic closed
// Run loop, and a resumable ask/tell Stepper (propose a batch of
// configuration rows, accept measured costs, carry replayable state)
// that the spaced service drives over HTTP. Run is implemented on top
// of the stepper, so the two forms cannot drift; the golden-trace
// tests pin that the stepper form reproduces the historical closed
// loops exactly.
package tuner

import (
	"math"
	"math/rand"
)

// Space is the subset of search-space operations strategies need. Both
// the internal space.Space and the public searchspace.SearchSpace satisfy
// it.
type Space interface {
	Size() int
	HammingNeighbors(i int) []int
	AdjacentNeighbors(i int) []int
	SampleUniform(rng *rand.Rand, k int) []int
	RandomNeighbor(rng *rand.Rand, i int) (int, bool)
}

// Objective scores configurations. Score is the quantity to maximize
// (e.g. GFLOP/s); Cost is the simulated wall-clock seconds consumed by
// evaluating the configuration (benchmarking a slow variant takes
// longer, as on real hardware).
type Objective struct {
	Score func(row int) float64
	Cost  func(row int) float64
}

// Budget bounds one tuning run.
type Budget struct {
	// MaxTime is the available tuning time in simulated seconds; <=0
	// means unlimited.
	MaxTime float64
	// MaxEvals bounds the number of configuration evaluations; <=0 means
	// unlimited.
	MaxEvals int
	// StartTime offsets the trace, representing time already spent on
	// search space construction before tuning could begin.
	StartTime float64
}

// TracePoint is one improvement event: at simulated time Time (seconds
// since the overall run started), the best score seen so far became Best.
type TracePoint struct {
	Time float64
	Best float64
}

// Result reports one tuning run.
type Result struct {
	Strategy    string
	BestRow     int
	BestScore   float64
	Evaluations int
	// Trace holds best-so-far improvements in time order, beginning at
	// the first evaluated configuration.
	Trace []TracePoint
	// EndTime is the simulated time when the budget ran out.
	EndTime float64
}

// Strategy explores a space under a budget. Stepper returns the
// resumable ask/tell form; Run drives it to completion against a local
// objective with batch size 1, which reproduces the historical closed
// loop exactly.
type Strategy interface {
	Name() string
	Run(rng *rand.Rand, sp Space, obj Objective, budget Budget) Result
	Stepper(rng *rand.Rand, sp Space, budget Budget) Stepper
}

// StrategyByName resolves a report label to a fresh strategy with
// default parameters — the service's factory.
func StrategyByName(name string) (Strategy, bool) {
	switch name {
	case RandomSampling{}.Name():
		return RandomSampling{}, true
	case GreedyILS{}.Name():
		return GreedyILS{}, true
	case SimulatedAnnealing{}.Name():
		return SimulatedAnnealing{}, true
	case GeneticAlgorithm{}.Name():
		return GeneticAlgorithm{}, true
	}
	return nil, false
}

// StrategyNames lists the strategy report labels in a stable order.
func StrategyNames() []string {
	return []string{
		RandomSampling{}.Name(),
		GreedyILS{}.Name(),
		SimulatedAnnealing{}.Name(),
		GeneticAlgorithm{}.Name(),
	}
}

// RandomSampling evaluates uniformly random configurations without
// replacement — the strategy the paper uses in §5.4 to isolate the
// effect of construction time from optimizer behavior.
type RandomSampling struct{}

// Name implements Strategy.
func (RandomSampling) Name() string { return "random-sampling" }

// Run implements Strategy.
func (s RandomSampling) Run(rng *rand.Rand, sp Space, obj Objective, budget Budget) Result {
	return RunStepper(s.Stepper(rng, sp, budget), obj, 1)
}

// Stepper implements Strategy. The whole permutation is one eval plan;
// consuming it means the space is exhausted.
func (s RandomSampling) Stepper(rng *rand.Rand, sp Space, budget Budget) Stepper {
	c := newStepCore(s.Name(), sp, budget)
	c.setPlan(rng.Perm(sp.Size()))
	c.step = func() { c.done = true }
	c.drain()
	return c
}

// GreedyILS is greedy iterated local search: repeated best-improvement
// hill climbing over Hamming neighborhoods with random restarts.
type GreedyILS struct{}

// Name implements Strategy.
func (GreedyILS) Name() string { return "greedy-ils" }

// Run implements Strategy.
func (g GreedyILS) Run(rng *rand.Rand, sp Space, obj Objective, budget Budget) Result {
	return RunStepper(g.Stepper(rng, sp, budget), obj, 1)
}

// Stepper implements Strategy.
func (g GreedyILS) Stepper(rng *rand.Rand, sp Space, budget Budget) Stepper {
	c := newStepCore(g.Name(), sp, budget)
	st := &greedyState{c: c, rng: rng}
	c.step = st.step
	st.restart()
	c.drain()
	return c
}

// greedyState is GreedyILS's explicit stepper state.
type greedyState struct {
	c   *stepCore
	rng *rand.Rand
	// cur is the climb position; curScore its score.
	cur      int
	curScore float64
	// neighbors is the Hamming neighborhood being evaluated when
	// climbing is true; otherwise the pending plan is the restart point.
	neighbors []int
	climbing  bool
}

// restart begins a new climb from a random configuration (the outer
// loop of the closed form, including its pre-draw budget check).
func (st *greedyState) restart() {
	if st.c.exhausted() {
		st.c.done = true
		return
	}
	st.cur = st.rng.Intn(st.c.sp.Size())
	st.climbing = false
	st.c.setPlan([]int{st.cur})
}

// step advances after the current plan is fully evaluated.
func (st *greedyState) step() {
	if !st.climbing {
		st.curScore = st.c.visited[st.cur]
		st.beginClimb()
		return
	}
	// Best-improvement move over the just-evaluated neighborhood.
	bestN, bestScore, improved := -1, st.curScore, false
	for _, nb := range st.neighbors {
		if s := st.c.visited[nb]; s > bestScore {
			bestN, bestScore, improved = nb, s, true
		}
	}
	if !improved {
		st.restart() // local optimum
		return
	}
	st.cur, st.curScore = bestN, bestScore
	st.beginClimb()
}

func (st *greedyState) beginClimb() {
	st.neighbors = st.c.sp.HammingNeighbors(st.cur)
	st.climbing = true
	st.c.setPlan(st.neighbors)
}

// SimulatedAnnealing random-walks over Hamming neighbors, accepting
// worsening moves with a temperature-controlled probability.
type SimulatedAnnealing struct {
	// T0 is the initial temperature in score units; 0 selects a default
	// proportional to the first samples' spread.
	T0 float64
	// Alpha is the geometric cooling factor per move (default 0.995).
	Alpha float64
}

// Name implements Strategy.
func (SimulatedAnnealing) Name() string { return "simulated-annealing" }

// Run implements Strategy.
func (sa SimulatedAnnealing) Run(rng *rand.Rand, sp Space, obj Objective, budget Budget) Result {
	return RunStepper(sa.Stepper(rng, sp, budget), obj, 1)
}

// Stepper implements Strategy.
func (sa SimulatedAnnealing) Stepper(rng *rand.Rand, sp Space, budget Budget) Stepper {
	c := newStepCore(sa.Name(), sp, budget)
	alpha := sa.Alpha
	if alpha == 0 {
		alpha = 0.995
	}
	st := &saState{c: c, rng: rng, t0: sa.T0, alpha: alpha, phase: saInit}
	st.cur = rng.Intn(sp.Size())
	c.setPlan([]int{st.cur})
	c.step = st.step
	c.drain()
	return c
}

// saState is SimulatedAnnealing's explicit stepper state.
type saState struct {
	c         *stepCore
	rng       *rand.Rand
	t0, alpha float64
	cur       int
	curScore  float64
	temp      float64
	// noProgress counts proposals since the last accepted move or fresh
	// evaluation; a frozen walk at a fully-explored local optimum is
	// kicked to a random restart rather than spinning.
	noProgress int
	// nb is the proposed neighbor awaiting evaluation; evalsBefore the
	// evaluation count when it was proposed.
	nb          int
	evalsBefore int
	phase       saPhase
}

type saPhase int

const (
	saInit saPhase = iota // evaluating the starting configuration
	saWalk                // evaluating a proposed neighbor
	saRestart
)

// defaultTemp mirrors the closed form's temperature initialization.
func (st *saState) defaultTemp() float64 {
	t := st.t0
	if t == 0 {
		t = math.Abs(st.curScore)/10 + 1e-9
	}
	return t
}

func (st *saState) step() {
	switch st.phase {
	case saInit:
		st.curScore = st.c.visited[st.cur]
		st.temp = st.defaultTemp()
		st.noProgress = 0
		st.propose()
	case saWalk:
		s := st.c.visited[st.nb]
		accepted := s >= st.curScore
		if !accepted {
			// Short-circuit preserved: the acceptance draw happens only
			// for worsening moves.
			accepted = st.rng.Float64() < math.Exp((s-st.curScore)/st.temp)
		}
		if accepted {
			st.cur, st.curScore = st.nb, s
		}
		if accepted || st.c.res.Evaluations > st.evalsBefore {
			st.noProgress = 0
		} else {
			st.noProgress++
			if st.noProgress > 200 {
				st.cur = st.rng.Intn(st.c.sp.Size())
				st.phase = saRestart
				st.c.setPlan([]int{st.cur})
				return
			}
		}
		st.cool()
		st.propose()
	case saRestart:
		st.curScore = st.c.visited[st.cur]
		st.temp = st.defaultTemp()
		st.noProgress = 0
		st.cool()
		st.propose()
	}
}

func (st *saState) cool() {
	st.temp *= st.alpha
	if st.temp < 1e-12 {
		st.temp = 1e-12
	}
}

// propose draws the next neighbor (the walk loop's head, including its
// budget check).
func (st *saState) propose() {
	if st.c.exhausted() {
		st.c.done = true
		return
	}
	nb, ok := st.c.sp.RandomNeighbor(st.rng, st.cur)
	if !ok {
		st.c.done = true
		return
	}
	st.nb = nb
	st.evalsBefore = st.c.res.Evaluations
	st.phase = saWalk
	st.c.setPlan([]int{nb})
}

// GeneticAlgorithm evolves a population with tournament selection,
// uniform crossover repaired through the space's validity index (invalid
// children fall back to a mutation of the fitter parent), and
// Hamming-neighbor mutation — the SearchSpace-backed mutation step that
// §4.4 describes.
type GeneticAlgorithm struct {
	// PopSize is the population size (default 20).
	PopSize int
	// MutationRate is the per-child probability of a Hamming mutation
	// (default 0.3).
	MutationRate float64
	// Crossover performs index-wise uniform crossover when the space
	// supports validity lookup (optional interface below).
	Crossover bool
}

// indexedSpace is the optional interface for crossover support.
type indexedSpace interface {
	Indices(i int) []int32
	Lookup(idx []int32) (int, bool)
}

// Name implements Strategy.
func (GeneticAlgorithm) Name() string { return "genetic-algorithm" }

// Run implements Strategy.
func (ga GeneticAlgorithm) Run(rng *rand.Rand, sp Space, obj Objective, budget Budget) Result {
	return RunStepper(ga.Stepper(rng, sp, budget), obj, 1)
}

// Stepper implements Strategy. An entire generation's children are one
// eval plan: child construction draws from the RNG but never reads a
// child's score, so a generation can be proposed as a batch without
// perturbing the closed form's RNG stream.
func (ga GeneticAlgorithm) Stepper(rng *rand.Rand, sp Space, budget Budget) Stepper {
	c := newStepCore(ga.Name(), sp, budget)
	pop := ga.PopSize
	if pop == 0 {
		pop = 20
	}
	if pop > sp.Size() {
		pop = sp.Size()
	}
	mrate := ga.MutationRate
	if mrate == 0 {
		mrate = 0.3
	}
	idxSp, canCross := sp.(indexedSpace)
	st := &gaState{
		c: c, rng: rng,
		crossover: ga.Crossover && canCross, idxSp: idxSp,
		mrate: mrate,
		rows:  sp.SampleUniform(rng, pop),
	}
	st.scores = make([]float64, len(st.rows))
	c.setPlan(st.rows)
	c.step = st.step
	c.drain()
	return c
}

// gaState is GeneticAlgorithm's explicit stepper state.
type gaState struct {
	c         *stepCore
	rng       *rand.Rand
	crossover bool
	idxSp     indexedSpace
	mrate     float64
	// rows/scores are the current population; nextRows the generation
	// being evaluated (nil while the initial population evaluates).
	rows     []int
	scores   []float64
	nextRows []int
}

func (st *gaState) tournament() int {
	a, b := st.rng.Intn(len(st.rows)), st.rng.Intn(len(st.rows))
	if st.scores[a] >= st.scores[b] {
		return a
	}
	return b
}

func (st *gaState) step() {
	if st.nextRows != nil {
		st.rows = st.nextRows
		st.nextRows = nil
	}
	for i, r := range st.rows {
		st.scores[i] = st.c.visited[r]
	}
	st.generation()
}

// generation breeds the next generation (the closed form's loop body)
// and installs its children as the next eval plan.
func (st *gaState) generation() {
	if st.c.exhausted() {
		st.c.done = true
		return
	}
	if len(st.rows) < 2 {
		// A single-individual population cannot breed: every generation
		// would be the elite alone, an empty eval plan that advances
		// nothing. (The closed loop spun forever here; the service
		// surfaces pop_size, so terminate instead.)
		st.c.done = true
		return
	}
	// Elitism: carry the best individual over (without re-evaluating).
	bestI := 0
	for i := range st.rows {
		if st.scores[i] > st.scores[bestI] {
			bestI = i
		}
	}
	next := make([]int, 0, len(st.rows))
	next = append(next, st.rows[bestI])
	for len(next) < len(st.rows) {
		pa, pb := st.tournament(), st.tournament()
		child := -1
		if st.crossover {
			ia, ib := st.idxSp.Indices(st.rows[pa]), st.idxSp.Indices(st.rows[pb])
			mixed := make([]int32, len(ia))
			for k := range mixed {
				if st.rng.Intn(2) == 0 {
					mixed[k] = ia[k]
				} else {
					mixed[k] = ib[k]
				}
			}
			if row, ok := st.idxSp.Lookup(mixed); ok {
				child = row
			}
		}
		if child < 0 {
			// Mutation fallback: a Hamming step from the fitter parent.
			parent := pa
			if st.scores[pb] > st.scores[pa] {
				parent = pb
			}
			if nb, ok := st.c.sp.RandomNeighbor(st.rng, st.rows[parent]); ok {
				child = nb
			} else {
				child = st.rows[parent]
			}
		}
		if st.rng.Float64() < st.mrate {
			if nb, ok := st.c.sp.RandomNeighbor(st.rng, child); ok {
				child = nb
			}
		}
		next = append(next, child)
	}
	st.nextRows = next
	// The elite's score is known; only the children need evaluating —
	// though cached children still replay through the memo, charging
	// the same stale accounting as the closed form.
	st.c.setPlan(next[1:])
}
