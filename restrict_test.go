package searchspace

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// loadGoldenRecords reads the committed golden enumeration checksums,
// keyed workload/method/wN, for tests that pin against them.
func loadGoldenRecords(t *testing.T) map[string]goldenRecord {
	t.Helper()
	raw, err := os.ReadFile(goldenEnumPath)
	if err != nil {
		t.Fatalf("read golden file: %v", err)
	}
	var recs []goldenRecord
	if err := json.Unmarshal(raw, &recs); err != nil {
		t.Fatalf("parse %s: %v", goldenEnumPath, err)
	}
	want := map[string]goldenRecord{}
	for _, r := range recs {
		want[fmt.Sprintf("%s/%s/w%d", r.Workload, r.Method, r.Workers)] = r
	}
	return want
}

// TestRestrictGoldenParity pins the incremental-construction parity
// contract: for every golden workload with at least two constraints,
// building a superset (the definition minus its last string
// constraint) and restricting it back to the full definition must
// reproduce the golden fresh-build enumeration byte for byte — every
// method, superset built at workers 1 and 7. The golden checksums are
// the same ones the solver parity suite pins, so restrict is held to
// exactly the fresh-build contract. A sequential method's superset is
// built once and restricted for both worker counts.
func TestRestrictGoldenParity(t *testing.T) {
	want := loadGoldenRecords(t)
	parents := map[string]*SearchSpace{}
	for _, tc := range goldenCases() {
		child := tc.problem().Definition()
		// The delta must be a string constraint; the superset must
		// still be constrained (≥2 constraints total) so the test
		// exercises a real lattice step, not build-from-cartesian.
		if child.NumConstraints() < 2 || len(child.Constraints) == 0 {
			continue
		}
		superset := child.Clone()
		superset.Constraints = superset.Constraints[:len(superset.Constraints)-1]
		for _, m := range tc.methods {
			for _, workers := range []int{1, 7} {
				key := fmt.Sprintf("%s/%s/w%d", tc.name, m, workers)
				t.Run("restrict/"+key, func(t *testing.T) {
					w, ok := want[fmt.Sprintf("%s/%s/w1", tc.name, m)]
					if !ok {
						t.Fatalf("no golden record for %s/%s", tc.name, m)
					}
					parent, ok := parents[tc.name+"/"+m.String()]
					if !ok {
						var err error
						parent, _, err = FromDefinition(superset).BuildWith(BuildOpts{Method: m, Workers: workers})
						if err != nil {
							t.Fatalf("build superset: %v", err)
						}
						if !m.Parallelizable() {
							parents[tc.name+"/"+m.String()] = parent
						}
					}
					ss, stats, err := RestrictWith(parent, FromDefinition(child), BuildOpts{Method: m})
					if err != nil {
						t.Fatalf("restrict: %v", err)
					}
					rows, sum := enumChecksum(ss)
					if rows != w.Rows {
						t.Fatalf("row count %d, want %d", rows, w.Rows)
					}
					if sum != w.SHA256 {
						t.Fatalf("restrict enumeration diverged from fresh build:\n got %s\nwant %s", sum, w.SHA256)
					}
					if stats.Nodes != int64(parent.Size()) {
						t.Fatalf("stats.Nodes = %d, want parent size %d", stats.Nodes, parent.Size())
					}
				})
			}
		}
	}
}

// TestRestrictCrossMethod pins the reorder path: a superset built by
// one method restricts into any other method's emission order, still
// byte-identical to that method's golden fresh build. The parent's row
// order differs from the target's, so the radix re-sort must fully
// reconstruct it.
func TestRestrictCrossMethod(t *testing.T) {
	want := loadGoldenRecords(t)
	child := parityProblem().Definition()
	superset := child.Clone()
	superset.Constraints = superset.Constraints[:len(superset.Constraints)-1]
	parent, _, err := FromDefinition(superset).BuildWith(BuildOpts{Method: Optimized, Workers: 1})
	if err != nil {
		t.Fatalf("build superset: %v", err)
	}
	for _, m := range Methods() {
		t.Run(m.String(), func(t *testing.T) {
			w, ok := want[fmt.Sprintf("parity-mixed/%s/w1", m)]
			if !ok {
				t.Fatalf("no golden record for parity-mixed/%s", m)
			}
			ss, _, err := RestrictWith(parent, FromDefinition(child), BuildOpts{Method: m})
			if err != nil {
				t.Fatalf("restrict: %v", err)
			}
			rows, sum := enumChecksum(ss)
			if rows != w.Rows || sum != w.SHA256 {
				t.Fatalf("cross-method restrict to %s diverged (rows %d want %d)", m, rows, w.Rows)
			}
		})
	}
}

// TestRestrictEmptyDelta pins the equal-constraint-set case (a pure
// method conversion): the delta is empty, every parent row survives,
// and the output matches the target method's fresh build.
func TestRestrictEmptyDelta(t *testing.T) {
	def := parityProblem().Definition()
	parent, _, err := FromDefinition(def).BuildWith(BuildOpts{Method: ChainOfTrees, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := FromDefinition(def.Clone()).BuildWith(BuildOpts{Method: Optimized, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RestrictWith(parent, FromDefinition(def.Clone()), BuildOpts{Method: Optimized})
	if err != nil {
		t.Fatal(err)
	}
	_, wantSum := enumChecksum(fresh)
	rows, gotSum := enumChecksum(got)
	if rows != fresh.Size() || gotSum != wantSum {
		t.Fatalf("empty-delta restrict diverged: %d rows want %d", rows, fresh.Size())
	}
}

// TestRestrictUnsatDelta pins the constant-false edge: a delta that
// can never hold lowers to an unsat problem with an empty instruction
// table, which must yield an empty space — not keep every row.
func TestRestrictUnsatDelta(t *testing.T) {
	superset := NewProblem("unsat-delta").
		AddParam("a", 1, 2, 3).
		AddParam("b", 1, 2, 3)
	parent, err := superset.Build(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	child := FromDefinition(superset.Definition().Clone()).AddConstraint("1 > 2")
	ss, err := Restrict(parent, child)
	if err != nil {
		t.Fatalf("restrict: %v", err)
	}
	if ss.Size() != 0 {
		t.Fatalf("unsat delta kept %d rows, want 0", ss.Size())
	}
}

// TestRestrictNotSuperset pins the rejection conditions: different
// parameters, a constraint set that is not a superset, and differing
// Go constraints must all refuse with ErrNotSuperset.
func TestRestrictNotSuperset(t *testing.T) {
	base := func() *Problem {
		return NewProblem("base").
			AddParam("a", 1, 2, 3, 4).
			AddParam("b", 1, 2, 3).
			AddConstraint("a <= b + 2")
	}
	parent, err := base().Build(Optimized)
	if err != nil {
		t.Fatal(err)
	}

	otherDomain := NewProblem("base").
		AddParam("a", 1, 2, 3, 5).
		AddParam("b", 1, 2, 3).
		AddConstraint("a <= b + 2").
		AddConstraint("a > 1")
	if _, err := Restrict(parent, otherDomain); err != ErrNotSuperset {
		t.Fatalf("different domain: err = %v, want ErrNotSuperset", err)
	}

	dropped := NewProblem("base").
		AddParam("a", 1, 2, 3, 4).
		AddParam("b", 1, 2, 3).
		AddConstraint("a > 1") // parent's constraint missing: not a tightening
	if _, err := Restrict(parent, dropped); err != ErrNotSuperset {
		t.Fatalf("dropped constraint: err = %v, want ErrNotSuperset", err)
	}

	goFn := func(args []any) bool { return true }
	withGo := base().AddConstraintFunc([]string{"a"}, goFn)
	if _, err := Restrict(parent, withGo); err != ErrNotSuperset {
		t.Fatalf("added Go constraint: err = %v, want ErrNotSuperset", err)
	}
}

// TestRestrictCanceled pins cooperative cancellation through the
// filter pass.
func TestRestrictCanceled(t *testing.T) {
	superset := NewProblem("cancel").
		AddParam("a", 1, 2, 3, 4, 5, 6, 7, 8).
		AddParam("b", 1, 2, 3, 4, 5, 6, 7, 8)
	parent, err := superset.Build(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	child := FromDefinition(superset.Definition().Clone()).AddConstraint("a * b <= 16")
	_, _, err = RestrictWith(parent, child, BuildOpts{Stop: func() bool { return true }})
	if err != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}
