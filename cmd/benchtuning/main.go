// Command benchtuning regenerates Figures 6 and 7: the best configuration
// found over a fixed auto-tuning budget for the hotspot and GEMM kernels
// under different search-space construction methods, using random
// sampling (10 repeats) so the construction method is the only variable.
//
// Construction times are measured for real; kernel execution is simulated
// by a deterministic performance model (internal/tuner/kernels.go)
// rather than on a GPU. The budget defaults to a laptop-scale 10
// seconds for hotspot; GEMM's budget is scaled by the
// valid-configuration ratio, as in the paper (§5.4).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"searchspace/internal/harness"
	"searchspace/internal/model"
	"searchspace/internal/report"
	"searchspace/internal/workloads"
)

func main() {
	kernel := flag.String("kernel", "hotspot", "kernel to tune: hotspot (Figure 6) or gemm (Figure 7)")
	budget := flag.Float64("budget", 10, "hotspot tuning budget in seconds (GEMM scales by valid-count ratio)")
	repeats := flag.Int("repeats", 10, "tuning repetitions to average")
	seed := flag.Int64("seed", 1, "landscape/strategy seed")
	flag.Parse()

	opt := harness.DefaultTuningOptions()
	opt.Repeats = *repeats
	opt.Seed = *seed

	switch *kernel {
	case "hotspot":
		opt.BudgetSeconds = *budget
		def := workloads.Hotspot()
		fmt.Printf("Figure 6: best configuration over a %.3gs tuning budget (%s, random sampling, %d repeats)\n\n",
			opt.BudgetSeconds, def.Name, opt.Repeats)
		run(def, opt)
	case "gemm":
		// The paper scales the GEMM budget by the valid-configuration
		// ratio between GEMM and hotspot (Table 2).
		hot, err := harness.ComputeTable2Row(workloads.Hotspot())
		if err != nil {
			log.Fatal(err)
		}
		gemm, err := harness.ComputeTable2Row(workloads.GEMM())
		if err != nil {
			log.Fatal(err)
		}
		opt.BudgetSeconds = *budget * float64(gemm.Valid) / float64(hot.Valid)
		def := workloads.GEMM()
		fmt.Printf("Figure 7: best configuration over a %.3gs tuning budget (%s, random sampling, %d repeats)\n\n",
			opt.BudgetSeconds, def.Name, opt.Repeats)
		run(def, opt)
	default:
		fmt.Fprintln(os.Stderr, "unknown kernel; use -kernel hotspot or -kernel gemm")
		os.Exit(2)
	}
}

func run(def *model.Definition, opt harness.TuningOptions) {
	curves, err := harness.RunTuning(def, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("construction time and tuning outcome per method:")
	var rows [][]string
	for _, c := range curves {
		rows = append(rows, []string{
			c.Method.String(),
			report.Seconds(c.ConstructSeconds),
			fmt.Sprintf("%.0f", c.Evaluations),
			fmt.Sprintf("%.2f", c.FinalBest),
		})
	}
	fmt.Print(report.Table([]string{"Method", "construction", "mean evals", "mean best score"}, rows))

	fmt.Println("\nbest-so-far score over time (sparkline per method; leading flat = construction):")
	for _, c := range curves {
		fmt.Printf("  %-32s %s\n", c.Method, report.Sparkline(c.Best))
	}

	fmt.Println("\nseries (time s → mean best score), every 10th sample:")
	header := []string{"t (s)"}
	for _, c := range curves {
		header = append(header, c.Method.String())
	}
	var series [][]string
	for i := 0; i < len(curves[0].Times); i += 10 {
		row := []string{fmt.Sprintf("%.2f", curves[0].Times[i])}
		for _, c := range curves {
			row = append(row, fmt.Sprintf("%.2f", c.Best[i]))
		}
		series = append(series, row)
	}
	fmt.Print(report.Table(header, series))
}
