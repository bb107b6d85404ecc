// Command ablprobe isolates the contribution of each §4.3 optimization
// (variable ordering, preprocessing, partial checks) by constructing the
// real-world spaces with individual optimizations disabled. Each build
// runs the columnar kernel that construction uses, so every column
// includes the walk plan (survivor tables and cut-offs), which has no
// switch. `go test -bench=Ablation` measures the plain ForEach walk on
// Hotspot through the benchmark harness.
package main

import (
	"fmt"
	"time"

	"searchspace/internal/core"
	"searchspace/internal/report"
	"searchspace/internal/workloads"
)

func main() {
	configs := []struct {
		name string
		opt  core.Options
	}{
		{"all optimizations", core.Options{SortVariables: true, Preprocess: true, PartialChecks: true}},
		{"no variable sort", core.Options{Preprocess: true, PartialChecks: true}},
		{"no preprocessing", core.Options{SortVariables: true, PartialChecks: true}},
		{"no partial checks", core.Options{SortVariables: true, Preprocess: true}},
		{"none", core.Options{}},
	}
	var rows [][]string
	for _, def := range workloads.RealWorld() {
		p, err := def.ToProblem()
		if err != nil {
			panic(err)
		}
		row := []string{def.Name}
		for _, c := range configs {
			best := time.Duration(1 << 62)
			for r := 0; r < 3; r++ {
				start := time.Now()
				p.Compile(c.opt).SolveColumnar()
				if el := time.Since(start); el < best {
					best = el
				}
			}
			row = append(row, report.Seconds(best.Seconds()))
		}
		rows = append(rows, row)
	}
	headers := []string{"Workload"}
	for _, c := range configs {
		headers = append(headers, c.name)
	}
	fmt.Println("Ablation: construction time with individual optimizations disabled")
	fmt.Println()
	fmt.Print(report.Table(headers, rows))
}
