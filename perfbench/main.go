// Command perfbench is the repository's benchmark: one runner, three
// workloads, the same end-to-end metrics on each, and a traced mode
// that reports per-layer numbers.
//
//	bash perfbench/run.sh --workload construct|tune|churn --seed N --seconds S --trace 0|1
//
// It drives the public API in-process and the spaced handler over
// loopback TCP, served by service.NewServerObs inside this process; it
// starts no child process. Each layer is measured from outside: by
// timing calls into that layer's functions and by reading the counters
// the program exports (/v1/stats, /metrics, runtime/metrics).
//
// The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// preceded by one line recording the environment and sample counts.
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set, and the spans behind them are written as JSON lines to
// .bench_build/spans/<workload>-seed<N>.jsonl.
//
// Every op's output is checked against reference answers, never against
// the code under test: committed row counts and enumeration checksums
// (testdata/reference.json), chain-of-trees builds, and the scores the
// client itself told the tuner. A failed check counts the op as failed;
// a run with a failed op prints "correct": false and exits 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"searchspace/internal/model"
	"searchspace/internal/obs"
	"searchspace/internal/workloads"
)

// processStart is taken during package initialisation, before main, so
// the first set-up's time includes the program's own start.
var processStart = time.Now()

// setupReps is how many set-ups an untraced run makes: five where
// set-up is cheap, three for tune, whose set-up builds every neighbor
// partition and takes seconds. setup_s is their median.
var setupReps = map[string]int{"construct": 5, "tune": 3, "churn": 5}

type options struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	clients   int
	setupReps int
	// refPath is the reference answer file; workDir holds span files and
	// the churn workload's snapshot store.
	refPath string
	workDir string
	// suite is the definitions a run uses: the Table 2 spaces, or a
	// smaller set in tests.
	suite []*model.Definition
	start time.Time
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int64
	// checkErr is the first verification failure, if any.
	checkErr error
	metrics  map[string]float64
	// samples counts the values behind each timing metric.
	samples map[string]int
	// setups is every set-up's duration in seconds, the first one timed
	// from process start.
	setups []float64
}

func (o *outcome) fail(err error) {
	o.failed++
	if o.checkErr == nil {
		o.checkErr = err
	}
}

// putUntraced records the end-to-end metrics every untraced run reports
// besides its closed loop's: set-up time, peak memory, success rate.
func (o *outcome) putUntraced(setups []float64, rss float64) {
	o.metrics["setup_s"] = median(setups)
	o.samples["setup_s"] = len(setups)
	o.setups = setups
	o.metrics["peak_rss_mb"] = rss
	o.metrics["success_rate"] = float64(o.attempted-o.failed) / float64(o.attempted)
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	o := options{start: processStart, suite: workloads.RealWorld(), refPath: referencePath, workDir: ".bench_build"}
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "construct, tune or churn")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.IntVar(&o.clients, "clients", min(2, runtime.NumCPU()), "closed-loop clients (at most the CPU count)")
	flag.Parse()
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	o.setupReps = setupReps[o.workload]
	if err := o.validate(trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// Library layers (the snapshot store's warnings) log through the
	// process default, as they do in the daemon.
	slog.SetDefault(obs.NewLogger(os.Stderr, "text", slog.LevelInfo))

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	out, rec, err := run(ctx, o)
	if rec != nil {
		path := filepath.Join(o.workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if werr := rec.writeFile(path); werr != nil {
			err = errors.Join(err, werr)
		} else {
			fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if out.checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: verification failed:", out.checkErr)
	}
	if err := printResult(o, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if out.failed > 0 || out.checkErr != nil {
		return 1
	}
	return 0
}

func (o options) validate(trace int) error {
	switch o.workload {
	case "construct", "tune", "churn":
	default:
		return fmt.Errorf("--workload must be construct, tune or churn, got %q", o.workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if o.clients < 1 || o.clients > runtime.NumCPU() {
		return fmt.Errorf("--clients %d: client concurrency must be between 1 and the CPU count %d", o.clients, runtime.NumCPU())
	}
	return nil
}

// run executes one workload. The recorder is non-nil in traced runs,
// including failed ones, so the caller can still write the spans out.
func run(ctx context.Context, o options) (*outcome, *recorder, error) {
	var rec *recorder
	if o.trace {
		// setup_s is not reported by a traced run, so one set-up suffices.
		rec = newRecorder()
		o.setupReps = 1
	}
	var out *outcome
	var err error
	switch o.workload {
	case "construct":
		out, err = runConstruct(ctx, o, rec)
	case "tune":
		out, err = runTune(ctx, o, rec)
	case "churn":
		out, err = runChurn(ctx, o, rec)
	}
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	return out, rec, err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult prints the environment line and then the result line.
func printResult(o options, out *outcome) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.failed == 0 && out.checkErr == nil && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: out.metrics[d.Name], Unit: d.Unit}
	}
	commit := os.Getenv("BENCH_COMMIT")
	if info, ok := debug.ReadBuildInfo(); ok && commit == "" {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	env := map[string]any{
		"env": map[string]any{
			"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "commit": commit, "seed": o.seed,
			"workload": o.workload, "clients": o.clients, "seconds": o.seconds.Seconds(),
			"trace": o.trace,
		},
		"samples": out.samples,
	}
	if out.setups != nil {
		env["setups_s"] = out.setups
	}
	for _, v := range []any{env, res} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}
