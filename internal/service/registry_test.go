package service

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"searchspace"
	"searchspace/internal/model"
	"searchspace/internal/workloads"
)

// smallDef returns a quick-to-build definition whose resolved size (21)
// is known by enumeration. The name is a display label only — it does
// not distinguish content addresses; use boundedDef for distinct
// spaces.
func smallDef(name string) *model.Definition {
	return boundedDef(name, 64)
}

// boundedDef varies the constraint bound, giving each bound a distinct
// content address.
func boundedDef(name string, bound int) *model.Definition {
	return &model.Definition{
		Name: name,
		Params: []model.Param{
			model.IntsParam("block_size_x", 1, 2, 4, 8, 16, 32),
			model.IntsParam("block_size_y", 1, 2, 4, 8),
		},
		Constraints: []string{fmt.Sprintf("block_size_x * block_size_y <= %d", bound)},
	}
}

func TestGetOrBuildCachesByContent(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	e1, hit1, err := reg.GetOrBuild(context.Background(), smallDef("a"), searchspace.Optimized)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if hit1 {
		t.Error("first build reported as hit")
	}
	if e1.Space.Size() != 21 {
		t.Fatalf("size: got %d want 21", e1.Space.Size())
	}

	// Same content in a fresh Definition object: must hit.
	e2, hit2, err := reg.GetOrBuild(context.Background(), smallDef("a"), searchspace.Optimized)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if !hit2 || e2 != e1 {
		t.Error("identical definition did not hit the cache")
	}

	// Different method is a different address — a miss, not a hit. The
	// Optimized space is a (trivial) superset over the same parameters,
	// so the miss is answered by restricting it into brute-force order
	// rather than running a second solver.
	e3, hit3, err := reg.GetOrBuild(context.Background(), smallDef("a"), searchspace.BruteForce)
	if err != nil {
		t.Fatalf("brute force build: %v", err)
	}
	if hit3 {
		t.Error("different method should not hit")
	}
	if e3.ParentID != e1.ID {
		t.Errorf("method conversion: ParentID = %q, want the optimized space %q", e3.ParentID, e1.ID)
	}

	st := reg.Stats()
	if st.Builds != 1 || st.Restricts != 1 || st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats: %+v", st)
	}
}

// TestConcurrentIdenticalBuildsSingleflight is the dedup acceptance
// check at registry level: N concurrent requests for one definition run
// exactly one construction.
func TestConcurrentIdenticalBuildsSingleflight(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	const n = 16
	var (
		start   sync.WaitGroup
		done    sync.WaitGroup
		mu      sync.Mutex
		entries = make(map[*Entry]struct{})
	)
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			start.Wait()
			e, _, err := reg.GetOrBuild(context.Background(), smallDef("racer"), searchspace.Optimized)
			if err != nil {
				t.Errorf("build: %v", err)
				return
			}
			mu.Lock()
			entries[e] = struct{}{}
			mu.Unlock()
		}()
	}
	start.Done()
	done.Wait()

	if len(entries) != 1 {
		t.Errorf("got %d distinct entries, want 1", len(entries))
	}
	st := reg.Stats()
	if st.Builds != 1 {
		t.Errorf("builds: got %d want exactly 1 (stats %+v)", st.Builds, st)
	}
	if st.Hits+st.Joins != n-1 || st.Misses != 1 {
		t.Errorf("hit accounting: %+v", st)
	}
	if want := float64(n-1) / float64(n); st.HitRatio != want {
		t.Errorf("hit ratio: got %v want %v", st.HitRatio, want)
	}
}

func TestEvictionLRU(t *testing.T) {
	reg := NewRegistry(RegistryConfig{MaxEntries: 2})
	ids := make([]string, 3)
	for i := range ids {
		e, _, err := reg.GetOrBuild(context.Background(), boundedDef(fmt.Sprintf("s%d", i), 8+8*i), searchspace.Optimized)
		if err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
		ids[i] = e.ID
		// Touch s0 after s1 so s1 is the LRU victim when s2 arrives.
		if i == 1 {
			if _, ok := reg.Lookup(ids[0]); !ok {
				t.Fatal("s0 disappeared early")
			}
		}
	}
	if _, ok := reg.Lookup(ids[1]); ok {
		t.Error("s1 should have been evicted (least recently used)")
	}
	for _, id := range []string{ids[0], ids[2]} {
		if _, ok := reg.Lookup(id); !ok {
			t.Errorf("%s should still be cached", id[:12])
		}
	}
	st := reg.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestEvictionByBytes(t *testing.T) {
	// Budget fits one small space but not two; newest always survives.
	e0, _, err := NewRegistry(RegistryConfig{}).GetOrBuild(context.Background(), smallDef("probe"), searchspace.Optimized)
	if err != nil {
		t.Fatalf("probe build: %v", err)
	}
	reg := NewRegistry(RegistryConfig{MaxBytes: e0.Bytes + e0.Bytes/2})
	a, _, err := reg.GetOrBuild(context.Background(), boundedDef("a", 32), searchspace.Optimized)
	if err != nil {
		t.Fatalf("build a: %v", err)
	}
	b, _, err := reg.GetOrBuild(context.Background(), boundedDef("b", 48), searchspace.Optimized)
	if err != nil {
		t.Fatalf("build b: %v", err)
	}
	if _, ok := reg.Lookup(a.ID); ok {
		t.Error("a should have been evicted by the byte budget")
	}
	if _, ok := reg.Lookup(b.ID); !ok {
		t.Error("most recent space must survive even near the budget")
	}
}

func TestFailedBuildsAreNotCached(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	bad := smallDef("bad")
	bad.Constraints = append(bad.Constraints, "unknown_param > 0")
	for i := 0; i < 2; i++ {
		if _, _, err := reg.GetOrBuild(context.Background(), bad, searchspace.Optimized); err == nil {
			t.Fatalf("attempt %d: expected build error", i)
		}
	}
	st := reg.Stats()
	if st.Entries != 0 {
		t.Errorf("failed builds must not occupy the cache: %+v", st)
	}
	if st.Misses != 2 {
		t.Errorf("each failed attempt should retry, not join a cached failure: %+v", st)
	}
}

func TestAdmissionControl(t *testing.T) {
	reg := NewRegistry(RegistryConfig{MaxCartesian: 100})
	big := &model.Definition{
		Name: "big",
		Params: []model.Param{
			model.RangeParam("a", 1, 20),
			model.RangeParam("b", 1, 20),
		},
	}
	if _, _, err := reg.GetOrBuild(context.Background(), big, searchspace.Optimized); err == nil {
		t.Fatal("expected admission rejection for cartesian 400 > limit 100")
	} else if !strings.Contains(err.Error(), "max-cartesian") {
		t.Errorf("admission error should point at the limit: %v", err)
	}
	if st := reg.Stats(); st.Builds != 0 || st.Misses != 0 {
		t.Errorf("rejected definition must not touch build counters: %+v", st)
	}
	if _, _, err := reg.GetOrBuild(context.Background(), smallDef("fits"), searchspace.Optimized); err != nil {
		t.Errorf("definition under the limit rejected: %v", err)
	}
}

func TestExhaustiveAdmission(t *testing.T) {
	// 24 cartesian: fine for optimized, over the exhaustive budget.
	reg := NewRegistry(RegistryConfig{MaxExhaustiveCartesian: 10})
	if _, _, err := reg.GetOrBuild(context.Background(), smallDef("opt"), searchspace.Optimized); err != nil {
		t.Fatalf("optimized should not be bound by the exhaustive limit: %v", err)
	}
	for _, m := range []searchspace.Method{searchspace.BruteForce, searchspace.Original, searchspace.IterativeSAT} {
		_, _, err := reg.GetOrBuild(context.Background(), smallDef("exh"), m)
		if err == nil {
			t.Errorf("%v: expected exhaustive admission rejection", m)
		} else if !strings.Contains(err.Error(), "max-exhaustive-cartesian") {
			t.Errorf("%v: error should point at the exhaustive limit: %v", m, err)
		}
	}
}

// TestDefaultBudgetAdmitsTwoHotspotBuilds pins the byte model against
// spaced's default -max-bytes of 4 GiB: two concurrent Hotspot-sized
// misses must both fit the overcommitted admission budget.
func TestDefaultBudgetAdmitsTwoHotspotBuilds(t *testing.T) {
	const spacedDefaultMaxBytes = 4 << 30
	charge := EstimatePendingBytes(workloads.Hotspot())
	if budget := int64(spacedDefaultMaxBytes * pendingOvercommit); 2*charge > budget {
		t.Fatalf("two Hotspot charges of %d bytes exceed the default admission budget of %d", charge, budget)
	}
}

// TestBuildSemaphoreLiveness: with one build slot, concurrent distinct
// builds all complete (queued, not deadlocked or dropped).
func TestBuildSemaphoreLiveness(t *testing.T) {
	reg := NewRegistry(RegistryConfig{MaxConcurrentBuilds: 1})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := reg.GetOrBuild(context.Background(), boundedDef("sem", 8+8*i), searchspace.Optimized); err != nil {
				t.Errorf("build %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if st := reg.Stats(); st.Builds != 4 {
		t.Errorf("builds: got %d want 4 (%+v)", st.Builds, st)
	}
}

// TestFailedJoinsDoNotInflateHitRatio: requests that piggyback on a
// build that then fails are not hits.
func TestFailedJoinsDoNotInflateHitRatio(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	bad := smallDef("bad-concurrent")
	bad.Constraints = append(bad.Constraints, "unknown_param > 0")
	const n = 8
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
	)
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			start.Wait()
			if _, _, err := reg.GetOrBuild(context.Background(), bad, searchspace.Optimized); err == nil {
				t.Error("expected build error")
			}
		}()
	}
	start.Done()
	done.Wait()
	st := reg.Stats()
	if st.Hits != 0 || st.Joins != 0 {
		t.Errorf("failed requests counted as cache service: %+v", st)
	}
	if st.HitRatio != 0 {
		t.Errorf("hit ratio must be 0 when nothing succeeded: %+v", st)
	}
	if st.Misses != n {
		t.Errorf("all %d failed requests should count as misses: %+v", n, st)
	}
}

// TestWorkerPoolGrants pins the shared build-worker pool's contract: a
// lone build gets the whole pool, a per-request hint caps the grant,
// the grant is recorded in the entry's BuildStats, and utilization
// shows up in the registry stats.
func TestWorkerPoolGrants(t *testing.T) {
	reg := NewRegistry(RegistryConfig{BuildWorkers: 3})

	e, _, err := reg.GetOrBuild(context.Background(), smallDef("pool-full"), searchspace.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats.Workers != 3 {
		t.Errorf("lone build ran with %d workers, want the whole pool (3)", e.Stats.Workers)
	}

	e2, _, err := reg.GetOrBuildN(context.Background(), boundedDef("pool-hint", 48), searchspace.Optimized, 2)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Stats.Workers != 2 {
		t.Errorf("hinted build ran with %d workers, want 2", e2.Stats.Workers)
	}

	// A sequential backend must not reserve workers it cannot use.
	e3, _, err := reg.GetOrBuild(context.Background(), boundedDef("pool-seq", 40), searchspace.BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	if e3.Stats.Workers != 1 {
		t.Errorf("brute-force build reports %d workers, want 1", e3.Stats.Workers)
	}

	st := reg.Stats().BuildPool
	if st.Capacity != 3 {
		t.Errorf("pool capacity %d, want 3", st.Capacity)
	}
	if st.InUse != 0 {
		t.Errorf("pool in-use %d after builds finished, want 0", st.InUse)
	}
	if st.Grants != 3 || st.WorkersGranted != 6 {
		t.Errorf("pool counted %d grants / %d workers, want 3 / 6 (3 + 2 + a single-worker grant for the sequential method)", st.Grants, st.WorkersGranted)
	}
}

// TestWorkerPoolNeverStarves pins the floor: with the pool fully
// granted, another build still runs — with a single worker — rather
// than blocking or failing.
func TestWorkerPoolNeverStarves(t *testing.T) {
	p := newWorkerPool(2)
	if got := p.acquire(0); got != 2 {
		t.Fatalf("first acquire granted %d, want 2", got)
	}
	if got := p.acquire(0); got != 1 {
		t.Fatalf("acquire from an empty pool granted %d, want the floor of 1", got)
	}
	p.release(1)
	p.release(2)
	st := p.stats()
	if st.InUse != 0 || st.PeakInUse != 3 {
		t.Fatalf("in-use %d peak %d, want 0 and 3", st.InUse, st.PeakInUse)
	}
}
