package searchspace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"searchspace/internal/workloads"
)

// updateGolden regenerates testdata/golden_enum.json from the current
// enumeration code. The committed file was captured from the
// pre-kernel-refactor closure-based solver, so a plain test run pins the
// new kernel byte-identical to the old path.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_enum.json from the current code")

const goldenEnumPath = "testdata/golden_enum.json"

// goldenRecord is one (workload, method, workers) enumeration pinned by
// its content hash.
type goldenRecord struct {
	Workload string `json:"workload"`
	Method   string `json:"method"`
	Workers  int    `json:"workers"`
	Rows     int    `json:"rows"`
	SHA256   string `json:"sha256"`
}

// enumChecksum hashes a resolved space's full enumeration: parameter
// names in definition order, then each column's indices little-endian.
// This is the same content the service's /v1/compare checksum covers, so
// a golden match here is exactly the wire-level parity contract.
func enumChecksum(ss *SearchSpace) (int, string) {
	h := sha256.New()
	for _, name := range ss.Names() {
		h.Write([]byte(name))
		h.Write([]byte{0})
	}
	var quad [4]byte
	for _, col := range ss.Columns() {
		for _, di := range col {
			quad[0] = byte(di)
			quad[1] = byte(di >> 8)
			quad[2] = byte(di >> 16)
			quad[3] = byte(di >> 24)
			h.Write(quad[:])
		}
	}
	return ss.Size(), hex.EncodeToString(h.Sum(nil))
}

// tailUnconstrainedProblem is the tail-expansion-specific case: two
// constrained leading variables followed by three variables no
// constraint mentions. Degree-descending ordering puts the unconstrained
// ones last, so the kernel's bulk tail expansion covers three full
// trailing depths (3*4*5 = 60 rows per surviving prefix).
func tailUnconstrainedProblem() *Problem {
	p := NewProblem("tail-unconstrained")
	p.AddParam("a", 1, 2, 3, 4, 5, 6)
	p.AddParam("b", 1, 2, 3, 4, 5)
	p.AddParam("c", 10, 20, 30)
	p.AddParam("d", 1, 2, 3, 4)
	p.AddParam("e", 0, 1, 2, 3, 4)
	p.AddConstraint("a * b <= 15")
	return p
}

// goFuncEscapeProblem exercises the opaque-constraint escape hatch: the
// Go predicate cannot be compiled into the typed instruction table, so
// the kernel must fall back to calling it per node.
func goFuncEscapeProblem() *Problem {
	p := NewProblem("gofunc-escape")
	p.AddParam("x", 1, 2, 3, 4, 5, 6, 7, 8)
	p.AddParam("y", 1, 2, 3, 4, 5, 6)
	p.AddParam("z", 1, 2, 3)
	p.AddConstraint("x * y <= 24")
	p.AddConstraintFunc([]string{"x", "z"}, func(args []any) bool {
		return args[0].(int64)%int64(len(args)) != 1 || args[1].(int64) > 1
	})
	return p
}

// goldenCase couples a workload with the methods cheap enough to pin on
// it. The small spaces run the full method matrix; the two large
// real-world spaces pin only the parallel-capable methods (the
// exhaustive baselines would dominate test time without adding kernel
// coverage — their loops are untouched by the kernel refactor).
type goldenCase struct {
	name    string
	problem func() *Problem
	methods []Method
}

func goldenCases() []goldenCase {
	all := Methods()
	fast := []Method{Optimized, ChainOfTrees, ChainOfTreesInterpreted}
	fromDef := func(defName string) func() *Problem {
		return func() *Problem {
			def, ok := workloads.ByName(defName)
			if !ok {
				panic("unknown workload " + defName)
			}
			return FromDefinition(def)
		}
	}
	return []goldenCase{
		{"parity-mixed", parityProblem, all},
		{"tail-unconstrained", tailUnconstrainedProblem, all},
		{"gofunc-escape", goFuncEscapeProblem, all},
		{"Dedispersion", fromDef("Dedispersion"), all},
		{"GEMM", fromDef("GEMM"), fast},
		{"Hotspot", fromDef("Hotspot"), fast},
	}
}

var goldenWorkers = []int{1, 2, 7}

// goldenBuilds builds golden cases and memoizes the sequential methods'
// builds. Brute-force, original and iterative-sat ignore Workers
// (BuildStats reports 1 worker for them, which the repeat builds of
// TestGoldenEnumerationParity check), so one build per workload stands
// for its w1, w2 and w7 records.
type goldenBuilds map[string]*SearchSpace

// get returns the space tc builds with method m under workers.
func (g goldenBuilds) get(t *testing.T, tc goldenCase, m Method, workers int) *SearchSpace {
	t.Helper()
	key := tc.name + "/" + m.String()
	if ss, ok := g[key]; ok {
		return ss
	}
	seq := !m.Parallelizable()
	if seq {
		workers = 1
	}
	ss, _, err := tc.problem().BuildWith(BuildOpts{Method: m, Workers: workers})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if seq {
		g[key] = ss
	}
	return ss
}

// cheapestCase returns the golden case with the smallest cartesian
// product among those that run method m.
func cheapestCase(m Method) goldenCase {
	var best goldenCase
	size := math.Inf(1)
	for _, tc := range goldenCases() {
		if slices.Contains(tc.methods, m) {
			if s := tc.problem().CartesianSize(); s < size {
				best, size = tc, s
			}
		}
	}
	return best
}

// TestGoldenEnumerationParity pins every construction method's full
// enumeration — names, row order, and cell values — to checksums
// captured from the pre-refactor solver, across sequential and parallel
// worker counts. Any kernel change that perturbs a single byte of any
// method's output fails here. A sequential method is built once per
// workload and that build is checked against all three worker records;
// one repeat build per sequential method, on its cheapest case with 7
// workers, checks that it reports 1 worker and reproduces the record.
func TestGoldenEnumerationParity(t *testing.T) {
	var produced []goldenRecord
	want := map[string]goldenRecord{}
	if !*updateGolden {
		raw, err := os.ReadFile(goldenEnumPath)
		if err != nil {
			t.Fatalf("read golden file (run `go test -run TestGoldenEnumerationParity -update-golden .` to create it): %v", err)
		}
		var recs []goldenRecord
		if err := json.Unmarshal(raw, &recs); err != nil {
			t.Fatalf("parse %s: %v", goldenEnumPath, err)
		}
		for _, r := range recs {
			want[fmt.Sprintf("%s/%s/w%d", r.Workload, r.Method, r.Workers)] = r
		}
		if len(want) == 0 {
			t.Fatalf("%s holds no records", goldenEnumPath)
		}
	}
	check := func(t *testing.T, key string, ss *SearchSpace) {
		t.Helper()
		w, ok := want[key]
		if !ok {
			t.Fatalf("no golden record for %s; regenerate with -update-golden", key)
		}
		rows, sum := enumChecksum(ss)
		if rows != w.Rows {
			t.Fatalf("row count %d, want %d", rows, w.Rows)
		}
		if sum != w.SHA256 {
			t.Fatalf("enumeration checksum drifted from the pre-refactor solver:\n got %s\nwant %s", sum, w.SHA256)
		}
	}

	builds := goldenBuilds{}
	for _, tc := range goldenCases() {
		for _, m := range tc.methods {
			for _, workers := range goldenWorkers {
				key := fmt.Sprintf("%s/%s/w%d", tc.name, m, workers)
				t.Run(key, func(t *testing.T) {
					ss := builds.get(t, tc, m, workers)
					if *updateGolden {
						rows, sum := enumChecksum(ss)
						produced = append(produced, goldenRecord{
							Workload: tc.name, Method: m.String(), Workers: workers,
							Rows: rows, SHA256: sum,
						})
						return
					}
					check(t, key, ss)
				})
			}
		}
	}
	if !*updateGolden {
		for _, m := range Methods() {
			if m.Parallelizable() {
				continue
			}
			tc := cheapestCase(m)
			key := fmt.Sprintf("%s/%s/w7", tc.name, m)
			t.Run("repeat/"+key, func(t *testing.T) {
				ss, stats, err := tc.problem().BuildWith(BuildOpts{Method: m, Workers: 7})
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				if stats.Workers != 1 {
					t.Fatalf("sequential method reported %d workers for Workers: 7, want 1", stats.Workers)
				}
				check(t, key, ss)
			})
		}
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenEnumPath), 0o755); err != nil {
			t.Fatal(err)
		}
		raw, err := json.MarshalIndent(produced, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenEnumPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d records to %s", len(produced), goldenEnumPath)
	}
}

// tableTwoOrderPins holds the optimized solver's ordered enumeration
// checksum (enumChecksum: names, then every column in row order) for
// each Table 2 space, captured from the single-tree kernel before the
// component-product path existed. testdata/golden_enum.json pins row
// order only for Dedispersion, GEMM and Hotspot; the service reference
// data checks the others canonically, so a permuted row order would
// pass there. These pins close that gap.
var tableTwoOrderPins = map[string]struct {
	rows int
	sum  string
}{
	"Dedispersion": {10800, "76fca953393b1cafab83b83904d6be155e82875a12ec27c717ddfd47edd5e15f"},
	"ExpDist":      {302400, "a419d96b739bf955e3ec3b22887c1586d0104d70207684ba685a4be105cbe186"},
	"Hotspot":      {347628, "71c501ca5e1a559bbb1b27db287d579ea076a07d411c4a5042f66a28e3c75c5a"},
	"GEMM":         {121704, "f8e607deb1d1d443efa4f6504dcde5e08c0e0cf593bb26c5040203f9b8c7ab38"},
	"MicroHH":      {130876, "0093b131b4a6cceb12ffd8b1c8f6f9950ed2bc60ce1a03f566ba2367b7cd9c96"},
	"ATF PRL 2x2":  {1521, "3b346ae9753a94d5b17d8defaf85570ca877f86fa856ae610d8fa07d9e1d19a8"},
	"ATF PRL 4x4":  {23104, "16a166bface15d2555baa20caf71c0fae34b514cd423e38fdb7daa6ef7d52098"},
	"ATF PRL 8x8":  {155236, "3f799d0ea652a35da8d1fc92f0c0b7b4a2243f0ec54d388d59a8f54cef9bf9ee"},
}

// TestTableTwoOrderPinned pins the optimized enumeration of all eight
// Table 2 spaces, row order included, at 1 and 7 workers.
func TestTableTwoOrderPinned(t *testing.T) {
	for _, def := range workloads.RealWorld() {
		pin, ok := tableTwoOrderPins[def.Name]
		if !ok {
			t.Fatalf("no order pin for %s", def.Name)
		}
		for _, workers := range []int{1, 7} {
			ss, _, err := FromDefinition(def).BuildWith(BuildOpts{Method: Optimized, Workers: workers})
			if err != nil {
				t.Fatalf("%s/w%d: build: %v", def.Name, workers, err)
			}
			rows, sum := enumChecksum(ss)
			if rows != pin.rows || sum != pin.sum {
				t.Errorf("%s/w%d: %d rows, checksum %s; want %d rows, %s", def.Name, workers, rows, sum, pin.rows, pin.sum)
			}
		}
	}
}
