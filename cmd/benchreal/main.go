// Command benchreal regenerates Figure 5: search space construction
// performance of every method on the eight real-world benchmarks, viewed
// against valid-configuration count (A), Cartesian size (B), as a time
// distribution (C), against sparsity (D), against parameter count (E),
// and as suite totals (F).
//
// Brute force on ATF PRL 8x8 (2.4 billion candidates — the paper's run
// took ~27 hours) is extrapolated from a measured 1M-candidate prefix
// unless -full is given.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"searchspace"
	"searchspace/internal/harness"
	"searchspace/internal/report"
	"searchspace/internal/stats"
	"searchspace/internal/workloads"
)

func main() {
	full := flag.Bool("full", false, "run brute force on every space, however long it takes")
	flag.Parse()

	opt := harness.DefaultOptions()
	if *full {
		opt.BruteCap = 0
	}
	defs := workloads.RealWorld()
	methods := harness.Fig3Methods()
	timings, err := harness.RunSuite(defs, methods, opt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Figure 5: search space construction on the real-world benchmarks")
	fmt.Println()

	// Panels A/B/D/E data: the per-space measurements.
	headers := []string{"Workload", "valid", "Cartesian", "sparsity", "#params"}
	for _, m := range methods {
		headers = append(headers, m.String())
	}
	var rows [][]string
	for _, def := range defs {
		per := map[searchspace.Method]harness.Timing{}
		var any harness.Timing
		for _, t := range timings {
			if t.Workload == def.Name {
				per[t.Method] = t
				any = t
			}
		}
		row := []string{
			def.Name,
			report.Count(float64(any.Valid)),
			report.Count(any.Cartesian),
			fmt.Sprintf("%.4f", any.Sparsity()),
			fmt.Sprintf("%d", any.NumParams),
		}
		for _, m := range methods {
			t := per[m]
			cell := report.Seconds(t.Seconds)
			if t.Estimated {
				cell += "*"
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	fmt.Print(report.Table(headers, rows))
	fmt.Println("(* extrapolated; see -full)")

	// Panel A/B fits.
	fmt.Println("\nlog-log fits (A: on valid configurations):")
	var fitRows [][]string
	for _, m := range methods {
		fit, err := harness.FitMethod(timings, m)
		if err != nil {
			continue
		}
		sig := ""
		if fit.PValue <= 0.05 {
			sig = "significant"
		}
		fitRows = append(fitRows, []string{
			m.String(), fmt.Sprintf("%.3f", fit.Slope), fmt.Sprintf("%.3f", fit.R2),
			fmt.Sprintf("%.3g", fit.PValue), sig,
		})
	}
	fmt.Print(report.Table([]string{"Method", "slope", "R²", "p", ""}, fitRows))

	// Panel C: KDE of log-times.
	fmt.Println("\nC: distribution of log10(construction seconds):")
	for _, m := range methods {
		_, ys := harness.MethodSeries(timings, m)
		var ls []float64
		for _, y := range ys {
			if y > 0 {
				ls = append(ls, math.Log10(y))
			}
		}
		s := stats.Summarize(ls)
		at := stats.Linspace(s.Min, s.Max, 32)
		fmt.Printf("  %-32s [%s .. %s] %s\n", m,
			report.Seconds(math.Pow(10, s.Min)), report.Seconds(math.Pow(10, s.Max)),
			report.Sparkline(stats.KDE(ls, at)))
	}

	// Panel F: totals and speedups.
	fmt.Println("\nF: total construction time over the eight spaces:")
	refTotal := harness.Total(timings, searchspace.Optimized)
	var totRows [][]string
	for _, m := range methods {
		t := harness.Total(timings, m)
		totRows = append(totRows, []string{
			m.String(), report.Seconds(t), fmt.Sprintf("%.0fx", t/refTotal),
		})
	}
	fmt.Print(report.Table([]string{"Method", "total", "vs optimized"}, totRows))
}
