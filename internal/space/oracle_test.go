package space

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"searchspace/internal/model"
	"searchspace/internal/workloads"
)

// wideDef has 24 parameters of 8 values: 72 bits of packed key, so the
// last three parameters spill out of the key and rows that differ only
// in them share one.
func wideDef() *model.Definition {
	def := &model.Definition{Name: "wide"}
	names := make([]string, 24)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
		def.Params = append(def.Params, model.RangeParam(names[i], 0, 7))
	}
	def.Constraints = []string{strings.Join(names, " + ") + " <= 3"}
	return def
}

// scanLookup is the oracle for Lookup: a linear scan of the columns for
// the row equal to idx, or -1.
func scanLookup(s *Space, idx []int32) int {
next:
	for r := 0; r < s.Size(); r++ {
		for p, col := range s.Columns() {
			if col[r] != idx[p] {
				continue next
			}
		}
		return r
	}
	return -1
}

// scanNeighbors is the oracle for the neighbor queries: the rows that
// differ from row r in exactly one parameter (by one position when
// adjacent), found by a linear scan of the columns.
func scanNeighbors(s *Space, r int, adjacent bool) []int {
	var out []int
	for q := 0; q < s.Size(); q++ {
		diff, step := 0, int32(0)
		for _, col := range s.Columns() {
			if d := col[q] - col[r]; d != 0 {
				diff, step = diff+1, d
			}
		}
		if diff == 1 && (!adjacent || step == 1 || step == -1) {
			out = append(out, q)
		}
	}
	return out
}

// TestQueriesMatchLinearScan checks Lookup, LookupRows and both
// neighbor kinds against linear scans of the columns, on two Table 2
// spaces and on a definition too wide for one 64-bit key.
func TestQueriesMatchLinearScan(t *testing.T) {
	defs := []*model.Definition{wideDef()}
	for _, name := range []string{"Dedispersion", "ATF PRL 4x4"} {
		def, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("workload %q missing", name)
		}
		defs = append(defs, def)
	}
	for _, def := range defs {
		t.Run(def.Name, func(t *testing.T) {
			s := buildSpace(t, def)
			if s.Size() == 0 {
				t.Fatal("empty space")
			}
			if def.Name == "wide" && !sharesKeys(s) {
				t.Fatal("the wide space never takes the equal-key path")
			}
			rng := rand.New(rand.NewSource(1))
			batch := make([][]int32, 240)
			for i := range batch {
				idx := s.Indices(rng.Intn(s.Size()))
				p := rng.Intn(len(idx))
				switch i % 4 {
				case 1: // one field moved: a neighbor or a miss
					idx[p] = int32(rng.Intn(len(s.domains[p])))
				case 2: // a random vector: almost always a miss
					for q := range idx {
						idx[q] = int32(rng.Intn(len(s.domains[q])))
					}
				case 3: // a digit outside the declared domain
					idx[p] = []int32{-1, int32(len(s.domains[p]))}[rng.Intn(2)]
				}
				batch[i] = idx
			}
			got := s.LookupRows(batch)
			for i, idx := range batch {
				want := scanLookup(s, idx)
				if got[i] != want {
					t.Fatalf("LookupRows(%v) = %d, scan finds %d", idx, got[i], want)
				}
				if r, ok := s.Lookup(idx); ok != (want >= 0) || ok && r != want {
					t.Fatalf("Lookup(%v) = %d, %v; scan finds %d", idx, r, ok, want)
				}
			}
			for i := 0; i < 60; i++ {
				r := rng.Intn(s.Size())
				if got, want := s.HammingNeighbors(r), scanNeighbors(s, r, false); !slices.Equal(got, want) {
					t.Fatalf("HammingNeighbors(%d) = %v, scan finds %v", r, got, want)
				}
				if got, want := s.AdjacentNeighbors(r), scanNeighbors(s, r, true); !slices.Equal(got, want) {
					t.Fatalf("AdjacentNeighbors(%d) = %v, scan finds %v", r, got, want)
				}
			}
		})
	}
}

// sharesKeys reports whether some parameter spilled out of the 64-bit
// key and some rows share a key as a result.
func sharesKeys(s *Space) bool {
	keys, _ := s.index()
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return len(s.spill) > 0
		}
	}
	return false
}
