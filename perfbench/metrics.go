package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
)

// metricDef names one reported metric. Moves says which end-to-end
// metric a per-layer metric should move, and on which workload; it is
// the record BENCHMARK.json has no field for.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Moves  string `json:"-"`
}

// endToEnd is printed by every untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "median of the run's set-ups, each to the first timed op, warm-up included; the first from process start, the later ones from the previous set-up's teardown and heap return"},
	{"ops_per_s", "1/s", "higher", "completed ops per second of the closed loops' timed phase"},
	{"latency_p50_ms", "ms", "lower", "per op, client-observed"},
	{"latency_p99_ms", "ms", "lower", "per op, client-observed; runs time at least 1000 ops"},
	{"configs_per_s", "1/s", "higher", "valid configurations per second of solver build time (construct: timed builds; tune and churn: the set-ups' fresh solves)"},
	{"peak_rss_mb", "MB", "lower", "VmHWM at the end of the timed phase; each workload runs in its own process"},
	{"success_rate", "ratio", "higher", "ops that returned 2xx and passed verification over ops attempted"},
}

// perLayer is printed by every traced run, on every workload; a layer a
// workload leaves idle reads 0. A ".hotspot" metric is the Hotspot build
// alone; its plain twin is per suite pass (the sum over the eight
// Table 2 builds of one pass, median over passes).
var perLayer = func() []metricDef {
	var out []metricDef
	for _, m := range []metricDef{
		{"model.to_problem_ms", "ms", "lower", "construct: latency_p50_ms"},
		{"core.compile_ms", "ms", "lower", "construct: latency_p50_ms"},
		{"core.enumerate_ms", "ms", "lower", "construct: ops_per_s, latency_p99_ms, configs_per_s"},
		{"core.nodes", "count", "lower", "construct: ops_per_s, latency_p99_ms, configs_per_s"},
		{"core.blocks", "count", "lower", "construct: ops_per_s, latency_p99_ms, configs_per_s"},
		{"core.ns_per_node", "ns", "lower", "construct: ops_per_s, latency_p99_ms, configs_per_s"},
		{"core.rows_per_node", "ratio", "higher", "construct: ops_per_s, latency_p99_ms, configs_per_s"},
		{"space.materialize_ms", "ms", "lower", "construct: configs_per_s"},
		{"go.alloc_mb_per_build", "MB", "lower", "construct: peak_rss_mb"},
		{"build.buildwith_ms", "ms", "lower", "construct: latency_p50_ms (the whole BuildWith call)"},
		{"build.layer_sum_ms", "ms", "lower", "construct: latency_p50_ms (sum of the four layer spans)"},
	} {
		twin := m
		twin.Name += ".hotspot"
		out = append(out, m, twin)
	}
	out = append(out,
		metricDef{"build.unattributed_pct", "%", "lower", "construct: BuildWith time not covered by the layer spans"},
		metricDef{"space.row_index_ms", "ms", "lower", "tune: setup_s"},
		metricDef{"space.partition_ms", "ms", "lower", "tune: setup_s"},
		metricDef{"space.index_heap_mb", "MB", "lower", "tune: peak_rss_mb"},
	)
	for _, rt := range []string{"ask", "tell", "hit", "batch_contains"} {
		out = append(out,
			metricDef{"http.rtt_ms." + rt, "ms", "lower", "tune: latency_p50_ms"},
			metricDef{"service.handler_ms." + rt, "ms", "lower", "tune: latency_p50_ms"},
			metricDef{"http.transport_ms." + rt, "ms", "lower", "tune: latency_p50_ms"},
		)
	}
	out = append(out,
		metricDef{"session.evals_per_ask", "ratio", "higher", "tune: ops_per_s"},
		metricDef{"go.gc_cycles", "count", "lower", "tune: latency_p99_ms"},
		metricDef{"go.gc_pause_ms", "ms", "lower", "tune: latency_p99_ms"},
		metricDef{"go.gc_cpu_s", "s", "lower", "tune: latency_p99_ms"},
	)
	for _, ph := range []string{"build", "restrict", "superset_probe", "bounds", "write_through", "restore_decode", "queue_wait"} {
		out = append(out, metricDef{"registry.phase_ms." + ph, "ms", "lower", "churn: latency_p50_ms, latency_p99_ms"})
	}
	out = append(out,
		metricDef{"store.put_ms", "ms", "lower", "churn: latency_p99_ms"},
		metricDef{"store.get_ms", "ms", "lower", "churn: latency_p99_ms"},
		metricDef{"registry.builds", "count", "lower", "churn: ops_per_s"},
		metricDef{"registry.restricts", "count", "higher", "churn: ops_per_s"},
		metricDef{"registry.restores", "count", "higher", "churn: ops_per_s"},
		metricDef{"registry.demotions", "count", "lower", "churn: ops_per_s"},
		metricDef{"registry.hit_ratio", "ratio", "higher", "churn: ops_per_s"},
		metricDef{"registry.restrict_share", "ratio", "higher", "churn: ops_per_s"},
		metricDef{"service.handler_ms.build", "ms", "lower", "churn: latency_p50_ms, latency_p99_ms"},
		metricDef{"http.rtt_ms.build", "ms", "lower", "churn: latency_p50_ms, latency_p99_ms"},
		metricDef{"trace.overhead_p50_pct", "%", "lower", "all: traced minus untraced latency_p50_ms, as a share of untraced"},
		metricDef{"trace.overhead_ops_pct", "%", "lower", "all: untraced minus traced ops_per_s, as a share of untraced"},
	)
	return out
}()

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// pctDiff is (a-b)/b in percent, 0 when b is 0.
func pctDiff(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (a - b) / b * 100
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// goStats is a sample of the runtime counters the per-layer GC metrics
// difference.
type goStats struct {
	cycles  uint32
	pauseNs uint64
	gcCPU   float64
}

func readGoStats() goStats {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{cycles: ms.NumGC, pauseNs: ms.PauseTotalNs, gcCPU: s[0].Value.Float64()}
}

// allocBytes reads only the cumulative heap allocation counter; cheap
// enough to call around every traced build.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// putGCMetrics records the runtime's GC work between two samples.
func putGCMetrics(m map[string]float64, before, after goStats) {
	m["go.gc_cycles"] = float64(after.cycles - before.cycles)
	m["go.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
	m["go.gc_cpu_s"] = after.gcCPU - before.gcCPU
}
