package space

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"searchspace/internal/core"
	"searchspace/internal/model"
	"searchspace/internal/value"
)

// buildSpace resolves a definition with the optimized solver and wraps it.
func buildSpace(t *testing.T, def *model.Definition) *Space {
	t.Helper()
	p, err := def.ToProblem()
	if err != nil {
		t.Fatal(err)
	}
	col := p.Compile(core.DefaultOptions()).SolveColumnar()
	s, err := FromColumnar(def, col)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func gridDef() *model.Definition {
	return &model.Definition{
		Name: "grid",
		Params: []model.Param{
			model.RangeParam("x", 1, 6),
			model.RangeParam("y", 1, 6),
		},
		Constraints: []string{"x * y <= 18"},
	}
}

func TestSizeAndLookup(t *testing.T) {
	s := buildSpace(t, gridDef())
	want := 0
	for x := 1; x <= 6; x++ {
		for y := 1; y <= 6; y++ {
			if x*y <= 18 {
				want++
			}
		}
	}
	if s.Size() != want {
		t.Fatalf("Size = %d, want %d", s.Size(), want)
	}
	if s.NumParams() != 2 {
		t.Fatalf("NumParams = %d", s.NumParams())
	}
	// Every row must round-trip through the index.
	for r := 0; r < s.Size(); r++ {
		got, ok := s.Lookup(s.Indices(r))
		if !ok || got != r {
			t.Fatalf("Lookup(Indices(%d)) = %d, %v", r, got, ok)
		}
	}
	// Invalid configuration (6,6): 36 > 18.
	if _, ok := s.LookupValues([]value.Value{value.OfInt(6), value.OfInt(6)}); ok {
		t.Error("LookupValues(6,6) should be invalid")
	}
	if _, ok := s.LookupValues([]value.Value{value.OfInt(2), value.OfInt(3)}); !ok {
		t.Error("LookupValues(2,3) should be valid")
	}
	if _, ok := s.LookupValues([]value.Value{value.OfInt(2)}); ok {
		t.Error("short value vector should be invalid")
	}
	if _, ok := s.LookupValues([]value.Value{value.OfInt(2), value.OfInt(99)}); ok {
		t.Error("out-of-domain value should be invalid")
	}
}

func TestRowAccessors(t *testing.T) {
	s := buildSpace(t, gridDef())
	r := 0
	row := s.Row(r)
	m := s.RowMap(r)
	if !value.Equal(row[0], m["x"]) || !value.Equal(row[1], m["y"]) {
		t.Errorf("Row and RowMap disagree: %v vs %v", row, m)
	}
	if names := s.Names(); names[0] != "x" || names[1] != "y" {
		t.Errorf("Names = %v", names)
	}
}

func TestTrueBounds(t *testing.T) {
	def := &model.Definition{
		Name: "bounds",
		Params: []model.Param{
			model.IntsParam("a", 1, 2, 4, 8, 16, 32),
			model.IntsParam("b", 1, 2, 4, 8),
		},
		Constraints: []string{"a * b >= 8", "a * b <= 32", "a <= 16"},
	}
	s := buildSpace(t, def)
	bounds := s.TrueBounds()
	// a=32 never valid (a<=16); a=1 valid with b=8.
	if bounds[0].Min != 1 || bounds[0].Max != 16 {
		t.Errorf("a bounds = [%v, %v], want [1, 16]", bounds[0].Min, bounds[0].Max)
	}
	if !bounds[0].Numeric {
		t.Error("a should be numeric")
	}
	if bounds[0].DistinctValues != 5 {
		t.Errorf("a distinct = %d, want 5", bounds[0].DistinctValues)
	}
	active, ok := s.ActiveValues("a")
	if !ok || len(active) != 5 {
		t.Errorf("ActiveValues(a) = %v, %v", active, ok)
	}
	if _, ok := s.ActiveValues("zzz"); ok {
		t.Error("ActiveValues(zzz) should not exist")
	}
}

func TestHammingNeighbors(t *testing.T) {
	s := buildSpace(t, gridDef())
	r, ok := s.LookupValues([]value.Value{value.OfInt(3), value.OfInt(3)})
	if !ok {
		t.Fatal("(3,3) should be valid")
	}
	nb := s.HammingNeighbors(r)
	// Neighbors of (3,3): (x,3) for x≠3 with 3x<=18 → x∈{1,2,4,5,6} ... 6*3=18 ok → 5
	// plus (3,y) for y≠3 with 3y<=18 → 5. Total 10.
	if len(nb) != 10 {
		t.Fatalf("Hamming neighbors of (3,3) = %d, want 10", len(nb))
	}
	for _, q := range nb {
		diff := 0
		a, b := s.Indices(r), s.Indices(q)
		for p := range a {
			if a[p] != b[p] {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("neighbor %d differs in %d params", q, diff)
		}
	}
	// Constrained corner: (6,3) has x-neighbors {1..5} and y-neighbors
	// with 6y<=18 → y∈{1,2}: total 7.
	r, _ = s.LookupValues([]value.Value{value.OfInt(6), value.OfInt(3)})
	if nb := s.HammingNeighbors(r); len(nb) != 7 {
		t.Fatalf("Hamming neighbors of (6,3) = %d, want 7", len(nb))
	}
}

func TestAdjacentNeighbors(t *testing.T) {
	s := buildSpace(t, gridDef())
	r, _ := s.LookupValues([]value.Value{value.OfInt(3), value.OfInt(3)})
	nb := s.AdjacentNeighbors(r)
	// (2,3), (4,3), (3,2), (3,4): all satisfy the constraint.
	if len(nb) != 4 {
		t.Fatalf("adjacent neighbors of (3,3) = %d, want 4", len(nb))
	}
	// (6,3): (5,3) valid, (6,2) valid, (6,4)=24 invalid → 2.
	r, _ = s.LookupValues([]value.Value{value.OfInt(6), value.OfInt(3)})
	if nb := s.AdjacentNeighbors(r); len(nb) != 2 {
		t.Fatalf("adjacent neighbors of (6,3) = %d, want 2", len(nb))
	}
}

func TestRandomNeighbor(t *testing.T) {
	s := buildSpace(t, gridDef())
	rng := rand.New(rand.NewSource(1))
	r, _ := s.LookupValues([]value.Value{value.OfInt(3), value.OfInt(3)})
	nb, ok := s.RandomNeighbor(rng, r)
	if !ok {
		t.Fatal("expected a neighbor")
	}
	if nb == r {
		t.Fatal("neighbor must differ from origin")
	}
	// Single-configuration space has no neighbors.
	one := &model.Definition{
		Name:        "one",
		Params:      []model.Param{model.IntsParam("a", 1), model.IntsParam("b", 2)},
		Constraints: nil,
	}
	s1 := buildSpace(t, one)
	if _, ok := s1.RandomNeighbor(rng, 0); ok {
		t.Fatal("singleton space should have no neighbors")
	}
}

func TestSampleUniform(t *testing.T) {
	s := buildSpace(t, gridDef())
	rng := rand.New(rand.NewSource(7))
	k := 10
	rows := s.SampleUniform(rng, k)
	if len(rows) != k {
		t.Fatalf("got %d samples, want %d", len(rows), k)
	}
	seen := map[int]struct{}{}
	for _, r := range rows {
		if r < 0 || r >= s.Size() {
			t.Fatalf("row %d out of range", r)
		}
		if _, dup := seen[r]; dup {
			t.Fatalf("duplicate row %d in sample", r)
		}
		seen[r] = struct{}{}
	}
	// Oversampling returns the whole space.
	all := s.SampleUniform(rng, s.Size()+5)
	if len(all) != s.Size() {
		t.Fatalf("oversample returned %d rows, want %d", len(all), s.Size())
	}
}

func TestSampleStratifiedCoverage(t *testing.T) {
	s := buildSpace(t, gridDef())
	rng := rand.New(rand.NewSource(3))
	k := 5
	rows := s.SampleStratified(rng, k)
	if len(rows) != k {
		t.Fatalf("got %d, want %d", len(rows), k)
	}
	// One sample per contiguous stratum, in order.
	for i := 1; i < k; i++ {
		if rows[i] <= rows[i-1] {
			t.Fatalf("stratified rows not increasing: %v", rows)
		}
	}
	if got := s.SampleStratified(rng, 0); got != nil {
		t.Errorf("k=0 should return nil, got %v", got)
	}
}

func TestSampleLHSProperties(t *testing.T) {
	s := buildSpace(t, gridDef())
	rng := rand.New(rand.NewSource(11))
	k := 6
	rows := s.SampleLHS(rng, k)
	if len(rows) != k {
		t.Fatalf("got %d samples, want %d", len(rows), k)
	}
	seen := map[int]struct{}{}
	for _, r := range rows {
		if _, dup := seen[r]; dup {
			t.Fatalf("LHS sample has duplicate row %d", r)
		}
		seen[r] = struct{}{}
	}
	// LHS should cover a spread of x values: with k=6 over 6 active x
	// values and a near-square space, expect at least 4 distinct x.
	xs := map[int32]struct{}{}
	for _, r := range rows {
		xs[s.Indices(r)[0]] = struct{}{}
	}
	if len(xs) < 4 {
		t.Errorf("LHS x coverage too low: %d distinct of %d samples", len(xs), k)
	}
	if got := s.SampleLHS(rng, 0); got != nil {
		t.Errorf("k=0 should return nil")
	}
	if got := s.SampleLHS(rng, s.Size()+1); len(got) != s.Size() {
		t.Errorf("oversample LHS = %d rows, want %d", len(got), s.Size())
	}
}

func TestFromColumnarValidation(t *testing.T) {
	def := gridDef()
	if _, err := FromColumnar(def, &core.Columnar{Cols: make([][]int32, 1)}); err == nil {
		t.Fatal("mismatched column count should fail")
	}
}

func TestNeighborsSortedAndDeterministic(t *testing.T) {
	s := buildSpace(t, gridDef())
	r, _ := s.LookupValues([]value.Value{value.OfInt(2), value.OfInt(4)})
	a := s.HammingNeighbors(r)
	b := s.HammingNeighbors(r)
	if !sort.IntsAreSorted(a) {
		t.Error("neighbors should be sorted")
	}
	if len(a) != len(b) {
		t.Error("repeated queries must agree")
	}
}

// TestConcurrentNeighborQueries races the row index's first use from
// every query kind at once; run with -race to catch unsynchronized
// publication (the spaced service shares one Space across requests).
func TestConcurrentNeighborQueries(t *testing.T) {
	s, ref := buildSpace(t, gridDef()), buildSpace(t, gridDef())
	queries := []func(r int) bool{
		func(r int) bool { got, ok := s.Lookup(s.Indices(r)); return ok && got == r },
		func(r int) bool { return s.LookupRows([][]int32{s.Indices(r)})[0] == r },
		func(r int) bool { return slices.Equal(s.HammingNeighbors(r), ref.HammingNeighbors(r)) },
		func(r int) bool { return slices.Equal(s.AdjacentNeighbors(r), ref.AdjacentNeighbors(r)) },
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		query := queries[g%len(queries)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for r := 0; r < s.Size(); r++ {
				if !query(r) {
					t.Errorf("query kind %d disagrees on row %d", g%len(queries), r)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}

// TestLookupDoesNotAllocate pins the hot-path fix: once the row index
// exists, Lookup must not allocate (the GA crossover calls it per
// candidate per generation). LookupValues is allowed its domain scan
// but must not allocate either within the stack-key width.
func TestLookupDoesNotAllocate(t *testing.T) {
	s := buildSpace(t, gridDef())
	idx := s.Indices(s.Size() - 1)
	if _, ok := s.Lookup(idx); !ok {
		t.Fatal("known row not found")
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, ok := s.Lookup(idx); !ok {
			t.Fatal("lookup failed")
		}
	}); avg != 0 {
		t.Fatalf("Lookup allocates %.1f objects per call, want 0", avg)
	}
	vals := s.Row(0)
	if avg := testing.AllocsPerRun(200, func() {
		if _, ok := s.LookupValues(vals); !ok {
			t.Fatal("lookup by values failed")
		}
	}); avg != 0 {
		t.Fatalf("LookupValues allocates %.1f objects per call, want 0", avg)
	}
}

func TestLookupRowsBulk(t *testing.T) {
	s := buildSpace(t, gridDef())
	batch := make([][]int32, 0, s.Size()+3)
	want := make([]int, 0, s.Size()+3)
	for r := 0; r < s.Size(); r++ {
		batch = append(batch, s.Indices(r))
		want = append(want, r)
	}
	// An invalid combination (6*6 > 18), out-of-range indices (the -1
	// that batch contains writes for an unknown value, and one equal to
	// the domain size), and a wrong-width vector all resolve to -1
	// without disturbing neighbors.
	batch = append(batch, []int32{5, 5}, []int32{99, 0}, []int32{-1, 0}, []int32{0, -1},
		[]int32{6, 0}, []int32{0, 6}, []int32{1})
	want = append(want, -1, -1, -1, -1, -1, -1, -1)
	got := s.LookupRows(batch)
	if len(got) != len(want) {
		t.Fatalf("LookupRows returned %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LookupRows[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestLookupRowsStaysOnZeroAllocPath pins the batch inner loop to the
// same allocation-free probe as Lookup: the only allocation per call is
// the result slice, however large the batch.
func TestLookupRowsStaysOnZeroAllocPath(t *testing.T) {
	s := buildSpace(t, gridDef())
	const batchSize = 1024
	batch := make([][]int32, batchSize)
	for i := range batch {
		batch[i] = s.Indices(i % s.Size())
	}
	s.LookupRows(batch[:1]) // build the row index outside the measurement
	avg := testing.AllocsPerRun(100, func() {
		out := s.LookupRows(batch)
		if out[0] != 0 {
			t.Fatal("unexpected row")
		}
	})
	// One allocation for the result slice; anything per-element would
	// show up as hundreds.
	if avg > 1.5 {
		t.Fatalf("LookupRows allocates %.1f objects per %d-element batch, want ~1 (result slice only)", avg, batchSize)
	}
}
