package searchspace

import (
	"runtime"
	"sync"
	"testing"

	"searchspace/internal/bruteforce"
	"searchspace/internal/model"
	"searchspace/internal/workloads"
)

// buildSize builds def with m on one worker through BuildWith and
// returns the resolved size.
func buildSize(t *testing.T, def *model.Definition, m Method) int {
	t.Helper()
	_, stats, err := FromDefinition(def).BuildWith(BuildOpts{Method: m, Workers: 1})
	if err != nil {
		t.Fatalf("%s/%s: %v", def.Name, m, err)
	}
	return stats.Valid
}

// bruteValid counts def's valid configurations by brute force. It splits
// def into one sub-definition per value of its first parameter and counts
// them on GOMAXPROCS goroutines; the sub-definitions partition the
// cartesian product, so their counts sum to def's.
func bruteValid(t *testing.T, def *model.Definition) int {
	t.Helper()
	vals := def.Params[0].Values
	counts := make([]int, len(vals))
	errs := make([]error, len(vals))
	next := make(chan int, len(vals))
	for i := range vals {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(vals)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sub := def.Clone()
				sub.Params[0].Values = vals[i : i+1]
				bf, err := bruteforce.Count(sub)
				if err != nil {
					errs[i] = err
					continue
				}
				counts[i] = bf.Valid
			}
		}()
	}
	wg.Wait()
	valid := 0
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %s = %v: %v", def.Name, def.Params[0].Name, vals[i], err)
		}
		valid += counts[i]
	}
	return valid
}

// TestAllMethodsAgreeOnWorkloads validates every construction method
// against brute force on the real-world spaces that fit a CI budget,
// mirroring §5's "results of each solver were validated against a
// brute-force solution". Each workload and each (workload, method) pair
// is a subtest, so -v shows where the time goes. The brute-force count,
// the bulk of the cost, is split over GOMAXPROCS goroutines (bruteValid).
func TestAllMethodsAgreeOnWorkloads(t *testing.T) {
	defs := []*model.Definition{
		workloads.Dedispersion(),
		workloads.PRL(2),
		workloads.GEMM(),
		workloads.MicroHH(),
	}
	if !testing.Short() {
		defs = append(defs, workloads.ExpDist(), workloads.PRL(4))
	}
	for _, def := range defs {
		t.Run(def.Name, func(t *testing.T) {
			valid := bruteValid(t, def)
			for _, m := range []Method{Optimized, Original, ChainOfTrees, ChainOfTreesInterpreted} {
				t.Run(m.String(), func(t *testing.T) {
					if got := buildSize(t, def, m); got != valid {
						t.Errorf("%s/%s: %d solutions, brute force found %d", def.Name, m, got, valid)
					}
				})
			}
		})
	}
}

// TestIterativeSATAgreesOnPRL2x2 checks the blocking-clause method
// against optimized on ATF PRL 2x2, row for row. Its cost is quadratic
// in the number of solutions, so it runs on this small space only.
func TestIterativeSATAgreesOnPRL2x2(t *testing.T) {
	def := workloads.PRL(2)
	want, _, err := FromDefinition(def).BuildWith(BuildOpts{Method: Optimized, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := FromDefinition(def).BuildWith(BuildOpts{Method: IterativeSAT, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != want.Size() {
		t.Fatalf("iterative-sat: %d solutions, optimized found %d", got.Size(), want.Size())
	}
	for r := 0; r < got.Size(); r++ {
		if !want.Contains(got.Get(r)) {
			t.Fatalf("iterative-sat row %d %v is not in the optimized space", r, got.Get(r))
		}
	}
}

// TestAllMethodsAgreeOnSyntheticSample cross-validates the methods on a
// deterministic sample of the synthetic suite.
func TestAllMethodsAgreeOnSyntheticSample(t *testing.T) {
	suite := workloads.SyntheticSuite()
	stride := 13
	if testing.Short() {
		stride = 26
	}
	for i := 0; i < len(suite); i += stride {
		def := suite[i]
		base := buildSize(t, def, Optimized)
		for _, m := range []Method{BruteForce, Original, ChainOfTrees} {
			if got := buildSize(t, def, m); got != base {
				t.Errorf("%s/%s: %d solutions, optimized found %d", def.Name, m, got, base)
			}
		}
	}
}

// TestPublicAPIOnHotspot runs the paper's flagship space end to end
// through the public API.
func TestPublicAPIOnHotspot(t *testing.T) {
	if testing.Short() {
		t.Skip("constructs a 22.2M-candidate space")
	}
	def := workloads.Hotspot()
	p := NewProblem(def.Name)
	for _, prm := range def.Params {
		vals := make([]any, len(prm.Values))
		for i, v := range prm.Values {
			vals[i] = v.Native()
		}
		p.AddParam(prm.Name, vals...)
	}
	for _, c := range def.Constraints {
		p.AddConstraint(c)
	}
	ss, stats, err := p.BuildTimed(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Size() != 347628 {
		t.Errorf("hotspot size = %d, want 347628", ss.Size())
	}
	if stats.Duration.Seconds() > 30 {
		t.Errorf("construction took %v; expected sub-second-to-seconds", stats.Duration)
	}
	// §2's example configuration must be valid.
	cfg := ss.Get(0)
	if !ss.Contains(cfg) {
		t.Error("first configuration should be contained")
	}
}
