package core_test

import (
	"testing"

	"searchspace/internal/core"
	"searchspace/internal/workloads"
)

// TestEnumStatsGolden pins the columnar kernel's exact work on the eight
// Table 2 spaces. The counts are deterministic, so a lost survivor
// table, cut-off, bulk block or component split shows up here as a
// changed Nodes or Blocks count, not only as a slower benchmark.
// Dedispersion, ExpDist and the three PRLs split into independent
// components: their Nodes are the component walks' and their Blocks the
// product fill's cartesian blocks (product.go). Hotspot, GEMM and
// MicroHH are one component each and walk one tree.
func TestEnumStatsGolden(t *testing.T) {
	want := map[string]core.EnumStats{
		"Dedispersion": {Nodes: 148, Blocks: 1, BlockRows: 10800},
		"ExpDist":      {Nodes: 119, Blocks: 1792, BlockRows: 302400},
		"Hotspot":      {Nodes: 690091, Blocks: 347628, BlockRows: 347628},
		"GEMM":         {Nodes: 112919, Blocks: 30426, BlockRows: 121704},
		"MicroHH":      {Nodes: 177369, Blocks: 130876, BlockRows: 130876},
		"ATF PRL 2x2":  {Nodes: 372, Blocks: 441, BlockRows: 1521},
		"ATF PRL 4x4":  {Nodes: 1486, Blocks: 10404, BlockRows: 23104},
		"ATF PRL 8x8":  {Nodes: 4026, Blocks: 86436, BlockRows: 155236},
	}
	for _, def := range workloads.RealWorld() {
		p, err := def.ToProblem()
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		col, es, canceled := p.Compile(core.DefaultOptions()).SolveColumnarStatsSink(nil, nil)
		if canceled {
			t.Fatalf("%s: uncancelled run reported canceled", def.Name)
		}
		w, ok := want[def.Name]
		if !ok {
			t.Fatalf("no pinned stats for %s", def.Name)
		}
		if es != w {
			t.Errorf("%s: stats %+v, want %+v", def.Name, es, w)
		}
		if got := int64(col.NumSolutions()); got != es.BlockRows {
			t.Errorf("%s: %d rows but %d block rows; every row should arrive in a bulk block", def.Name, got, es.BlockRows)
		}
	}
}
