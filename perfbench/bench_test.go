package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"searchspace/internal/model"
	"searchspace/internal/workloads"
)

// smallSuite keeps test runs short: two Table 2 spaces with cheap
// builds and neighbor partitions.
func smallSuite(t *testing.T) []*model.Definition {
	t.Helper()
	var out []*model.Definition
	for _, name := range []string{"Dedispersion", "ATF PRL 2x2"} {
		def, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		out = append(out, def)
	}
	return out
}

func smallOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload, seed: 3, seconds: 300 * time.Millisecond, trace: trace,
		clients: min(2, runtime.NumCPU()), setupReps: 2,
		refPath: "testdata/reference.json", workDir: t.TempDir(),
		suite: smallSuite(t), start: time.Now(),
	}
}

// listeningPorts lists the local TCP ports in LISTEN state.
func listeningPorts(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for _, path := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) > 3 && fields[3] == "0A" {
				out[fields[1]] = true
			}
		}
		f.Close()
	}
	return out
}

// checkNothingLeft fails the test if the run left a listener, a
// goroutine or a file in its work directory behind.
func checkNothingLeft(t *testing.T, o options, ports map[string]bool, goroutines int) {
	t.Helper()
	for port := range listeningPorts(t) {
		if !ports[port] {
			t.Errorf("listener %s outlived the run", port)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after the run, %d before:\n%s", n, goroutines, buf[:runtime.Stack(buf, true)])
	}
	entries, err := os.ReadDir(o.workDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("%s left behind in the work directory", e.Name())
	}
}

func TestRunLeavesNothingBehind(t *testing.T) {
	for _, workload := range []string{"construct", "tune", "churn"} {
		for _, trace := range []bool{false, true} {
			name := workload
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				o := smallOptions(t, workload, trace)
				ports, goroutines := listeningPorts(t), runtime.NumGoroutine()
				out, _, err := run(context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				if out.attempted == 0 || out.failed != 0 || out.checkErr != nil {
					t.Fatalf("attempted %d, failed %d: %v", out.attempted, out.failed, out.checkErr)
				}
				if !trace {
					for _, d := range endToEnd {
						if out.metrics[d.Name] <= 0 {
							t.Errorf("metric %s = %v, want > 0", d.Name, out.metrics[d.Name])
						}
					}
				}
				checkNothingLeft(t, o, ports, goroutines)
			})
		}
	}
}

// TestInterruptedRunCleansUp cancels runs part-way, as SIGINT or
// SIGTERM does through the run's context.
func TestInterruptedRunCleansUp(t *testing.T) {
	for _, workload := range []string{"tune", "churn"} {
		for _, after := range []time.Duration{20 * time.Millisecond, 400 * time.Millisecond} {
			t.Run(workload+"/"+after.String(), func(t *testing.T) {
				o := smallOptions(t, workload, false)
				o.seconds = 5 * time.Second
				ports, goroutines := listeningPorts(t), runtime.NumGoroutine()
				ctx, cancel := context.WithTimeout(context.Background(), after)
				defer cancel()
				if _, _, err := run(ctx, o); err == nil {
					t.Fatal("interrupted run reported success")
				}
				checkNothingLeft(t, o, ports, goroutines)
			})
		}
	}
}

// TestCorruptedReferenceFails checks that a run fails when a reference
// answer is wrong, so the answers really are checked against it.
func TestCorruptedReferenceFails(t *testing.T) {
	raw, err := os.ReadFile("testdata/reference.json")
	if err != nil {
		t.Fatal(err)
	}
	var ref reference
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(*refSpace)) string {
		bad := reference{Scheme: ref.Scheme, Spaces: append([]refSpace(nil), ref.Spaces...)}
		for i := range bad.Spaces {
			if bad.Spaces[i].Name == "ATF PRL 2x2" {
				mutate(&bad.Spaces[i])
			}
		}
		out, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "reference.json")
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		workload string
		mutate   func(*refSpace)
	}{
		{"construct", func(s *refSpace) { s.Canonical = strings.Repeat("0", 64) }},
		{"tune", func(s *refSpace) { s.Rows++ }},
		{"churn", func(s *refSpace) { s.Rows++ }},
	}
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			o := smallOptions(t, tc.workload, false)
			o.refPath = corrupt(tc.mutate)
			ports, goroutines := listeningPorts(t), runtime.NumGoroutine()
			out, _, err := run(context.Background(), o)
			if err == nil && out.failed == 0 {
				t.Fatal("run passed against a corrupted reference")
			}
			checkNothingLeft(t, o, ports, goroutines)
		})
	}
}

// TestBenchmarkJSONMatchesMetrics checks that BENCHMARK.json declares
// exactly the metrics the runner prints, with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		json, code []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the runner prints %d", tc.name, len(tc.json), len(tc.code))
			continue
		}
		for i, m := range tc.code {
			j := tc.json[i]
			if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s %s, the runner %s %s %s", tc.name, i, j.Name, j.Unit, j.Better, m.Name, m.Unit, m.Better)
			}
		}
	}
}
