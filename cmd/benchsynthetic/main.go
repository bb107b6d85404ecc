// Command benchsynthetic regenerates the synthetic-suite figures:
//
//	benchsynthetic -figure 2   — distribution of the 78 synthetic spaces'
//	                             characteristics (Figure 2)
//	benchsynthetic -figure 3   — construction time per method with
//	                             log-log slopes, KDE and totals (Figure 3)
//	benchsynthetic -figure 4   — blocking-clause (PySMT-style) solver on
//	                             the reduced suite (Figure 4)
//
// -spaces N restricts the suite to its first N spaces for quick runs.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"searchspace"
	"searchspace/internal/harness"
	"searchspace/internal/model"
	"searchspace/internal/report"
	"searchspace/internal/stats"
	"searchspace/internal/workloads"
)

func main() {
	figure := flag.Int("figure", 3, "figure to regenerate (2, 3 or 4)")
	nspaces := flag.Int("spaces", 0, "restrict to the first N synthetic spaces (0 = all 78)")
	flag.Parse()

	limit := func(defs []*model.Definition) []*model.Definition {
		if *nspaces > 0 && *nspaces < len(defs) {
			return defs[:*nspaces]
		}
		return defs
	}

	switch *figure {
	case 2:
		figure2(limit(workloads.SyntheticSuite()))
	case 3:
		figure3(limit(workloads.SyntheticSuite()))
	case 4:
		figure4(limit(workloads.SyntheticReducedSuite()))
	default:
		fmt.Fprintln(os.Stderr, "unknown figure; use -figure 2, 3 or 4")
		os.Exit(2)
	}
}

func figure2(defs []*model.Definition) {
	data, err := harness.ComputeFig2(defs)
	if err != nil {
		log.Fatal(err)
	}
	cart, valid, sparsity := data.Summaries()
	fmt.Printf("Figure 2: density of three characteristics of the %d synthetic search spaces\n\n", len(defs))
	rows := [][]string{
		summaryRow("A: Cartesian size", cart),
		summaryRow("B: valid configurations", valid),
		summaryRow("C: fraction constrained", sparsity),
	}
	fmt.Print(report.Table([]string{"Characteristic", "min", "Q1", "median", "Q3", "max", "mean"}, rows))
	fmt.Println("\nKDE of log10(valid configurations):")
	printKDE(logs(data.Valid))
	fmt.Println("\nKDE of fraction constrained:")
	printKDE(data.Sparsity)
}

func summaryRow(name string, s stats.Summary) []string {
	return []string{
		name,
		fmt.Sprintf("%.4g", s.Min), fmt.Sprintf("%.4g", s.Q1),
		fmt.Sprintf("%.4g", s.Median), fmt.Sprintf("%.4g", s.Q3),
		fmt.Sprintf("%.4g", s.Max), fmt.Sprintf("%.4g", s.Mean),
	}
}

func logs(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x > 0 {
			out = append(out, math.Log10(x))
		}
	}
	return out
}

func printKDE(sample []float64) {
	s := stats.Summarize(sample)
	at := stats.Linspace(s.Min, s.Max, 40)
	dens := stats.KDE(sample, at)
	fmt.Printf("  [%.3g .. %.3g] %s\n", s.Min, s.Max, report.Sparkline(dens))
}

func figure3(defs []*model.Definition) {
	methods := harness.Fig3Methods()
	timings, err := harness.RunSuite(defs, methods, harness.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Figure 3: search space construction on %d synthetic spaces\n\n", len(defs))
	printMethodComparison(timings, methods, searchspace.Optimized)
}

func figure4(defs []*model.Definition) {
	methods := harness.Fig4Methods()
	// Figure 4 runs the blocking-clause solver for real (the suite is
	// already reduced 10x), but still caps the largest spaces so the
	// figure regenerates in minutes, as the paper notes its own runs
	// took up to a thousand seconds.
	opt := harness.DefaultOptions()
	opt.IterCap = 4000
	timings, err := harness.RunSuite(defs, methods, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Figure 4: blocking-clause enumeration on %d reduced synthetic spaces\n\n", len(defs))
	printMethodComparison(timings, methods, searchspace.Optimized)
}

// printMethodComparison prints the per-method log-log fit (Figure A
// panels), the KDE of times (B panels), and the totals bar chart (C/F
// panels) shared by Figures 3, 4 and 5.
func printMethodComparison(timings []harness.Timing, methods []searchspace.Method, ref searchspace.Method) {
	fmt.Println("log-log regression of construction time on valid configurations:")
	var rows [][]string
	for _, m := range methods {
		fit, err := harness.FitMethod(timings, m)
		if err != nil {
			rows = append(rows, []string{m.String(), "n/a", "", "", ""})
			continue
		}
		rows = append(rows, []string{
			m.String(),
			fmt.Sprintf("%.3f", fit.Slope),
			fmt.Sprintf("%.3f", fit.R2),
			fmt.Sprintf("%.2g", fit.PValue),
			fmt.Sprintf("%d", fit.N),
		})
	}
	fmt.Print(report.Table([]string{"Method", "slope", "R²", "p-value", "n"}, rows))

	fmt.Println("\nKDE of log10(construction seconds) per method:")
	for _, m := range methods {
		_, ys := harness.MethodSeries(timings, m)
		ls := logs(ys)
		if len(ls) == 0 {
			continue
		}
		s := stats.Summarize(ls)
		at := stats.Linspace(s.Min, s.Max, 32)
		fmt.Printf("  %-32s [%s .. %s] %s\n", m,
			report.Seconds(math.Pow(10, s.Min)), report.Seconds(math.Pow(10, s.Max)),
			report.Sparkline(stats.KDE(ls, at)))
	}

	fmt.Println("\ntotal construction time over the suite:")
	refTotal := harness.Total(timings, ref)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, m := range methods {
		t := harness.Total(timings, m)
		lo, hi = math.Min(lo, t), math.Max(hi, t)
	}
	rows = nil
	for _, m := range methods {
		t := harness.Total(timings, m)
		speedup := t / refTotal
		note := ""
		for _, tm := range timings {
			if tm.Method == m && tm.Estimated {
				note = "(includes extrapolated entries)"
				break
			}
		}
		rows = append(rows, []string{
			m.String(), report.Seconds(t),
			fmt.Sprintf("%.1fx", speedup),
			report.Bar(t, lo, hi, 40) + " " + note,
		})
	}
	fmt.Print(report.Table([]string{"Method", "total", "vs optimized", ""}, rows))

	// Crossover extrapolations, as in §5.2.2.
	if refFit, err := harness.FitMethod(timings, ref); err == nil {
		for _, m := range methods {
			if m == ref {
				continue
			}
			if fit, err := harness.FitMethod(timings, m); err == nil {
				if x, ok := stats.CrossoverX(refFit, fit); ok && fit.Slope < refFit.Slope && x > 1 {
					fmt.Printf("\nextrapolated: %s would overtake optimized at ~%.3g valid configurations\n", m, x)
				}
			}
		}
	}
}
