package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"searchspace/internal/model"
	"searchspace/internal/workloads"
)

// compareOptimized races the optimized solver alone through /v1/compare
// at the requested worker count and returns its one result. Compare
// bypasses the cache, so every call is a real construction.
func compareOptimized(tb testing.TB, base string, def *model.Definition, workers int) CompareResult {
	tb.Helper()
	raw, err := MarshalProblem(def)
	if err != nil {
		tb.Fatalf("%s: %v", def.Name, err)
	}
	body := fmt.Sprintf(`{"problem": %s, "methods": ["optimized"], "workers": %d}`, raw, workers)
	var resp CompareResponse
	if code := post(tb, base+"/v1/compare", body, &resp); code != http.StatusOK {
		tb.Fatalf("%s workers=%d: compare status %d", def.Name, workers, code)
	}
	if len(resp.Results) != 1 || resp.Results[0].Error != "" {
		tb.Fatalf("%s workers=%d: compare results %+v", def.Name, workers, resp.Results)
	}
	return resp.Results[0]
}

// TestCompareWorkerSweep is the determinism contract over the wire: on
// a server whose build pool holds two workers, Hotspot and GEMM built
// at workers 1, 2, 4 and GOMAXPROCS each give exactly one output
// checksum, and no leg is granted more workers than the pool holds.
func TestCompareWorkerSweep(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{BuildWorkers: 2})
	for _, def := range []*model.Definition{workloads.Hotspot(), workloads.GEMM()} {
		checksums := map[string]bool{}
		for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
			r := compareOptimized(t, ts.URL, def, workers)
			if r.Workers < 1 || r.Workers > 2 {
				t.Errorf("%s workers=%d: granted %d, want 1..2", def.Name, workers, r.Workers)
			}
			checksums[r.Checksum] = true
		}
		if len(checksums) != 1 {
			t.Errorf("%s: %d distinct output checksums across the sweep, want 1", def.Name, len(checksums))
		}
	}
}

// BenchmarkCompareTwoWorkers reports the two-worker speedup of the
// optimized solver on a server with a two-worker pool: the fastest of
// at least three sequential constructions over the fastest of at least
// three two-worker ones, both timed by the server (wall_seconds).
func BenchmarkCompareTwoWorkers(b *testing.B) {
	_, ts := newTestServer(b, RegistryConfig{BuildWorkers: 2})
	for _, def := range []*model.Definition{workloads.Hotspot(), workloads.GEMM()} {
		b.Run(def.Name, func(b *testing.B) {
			best := map[int]float64{1: math.Inf(1), 2: math.Inf(1)}
			for i := 0; i < b.N || i < 3; i++ {
				for _, workers := range []int{1, 2} {
					r := compareOptimized(b, ts.URL, def, workers)
					if r.Workers != workers {
						b.Fatalf("workers=%d: granted %d", workers, r.Workers)
					}
					best[workers] = min(best[workers], r.WallSeconds)
				}
			}
			b.ReportMetric(best[1]/best[2], "speedup")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkBatchLookup resolves the genotypes of a space's first 1,024
// rows over loopback TCP twice: as 1,024 single-genotype batch/lookup
// requests and as one 1,024-genotype request. It reports both rates in
// configs/s (fastest of at least three runs each) and their ratio.
// Both forms must answer rows 0..1023 in order.
func BenchmarkBatchLookup(b *testing.B) {
	_, ts := newTestServer(b, RegistryConfig{})
	def := &model.Definition{
		Name: "batch-load",
		Params: []model.Param{
			model.RangeParam("block_size_x", 1, 16),
			model.RangeParam("block_size_y", 1, 16),
			model.RangeParam("tile", 1, 16),
		},
		Constraints: []string{"block_size_x * block_size_y <= 64"},
	}
	raw, err := MarshalProblem(def)
	if err != nil {
		b.Fatal(err)
	}
	var built BuildResponse
	if code := post(b, ts.URL+"/v1/spaces", fmt.Sprintf(`{"problem": %s}`, raw), &built); code != http.StatusOK {
		b.Fatalf("build: status %d", code)
	}
	base := ts.URL + "/v1/spaces/" + built.ID
	const n = 1024
	var page struct {
		Count   int       `json:"count"`
		Columns [][]int32 `json:"columns"`
	}
	if code := get(b, fmt.Sprintf("%s/rows?repr=indices&limit=%d", base, n), &page); code != http.StatusOK || page.Count != n {
		b.Fatalf("genotype page: status %d, %d rows", code, page.Count)
	}
	single := make([]string, n)
	for i := range single {
		cols := make([][]int32, len(page.Columns))
		for p := range cols {
			cols[p] = []int32{page.Columns[p][i]}
		}
		body, _ := json.Marshal(map[string]any{"indices": cols})
		single[i] = string(body)
	}
	whole, _ := json.Marshal(map[string]any{"indices": page.Columns})
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}

	singleBest, batchBest := math.Inf(1), math.Inf(1)
	b.ResetTimer()
	for i := 0; i < b.N || i < 3; i++ {
		rows := make([]int, 0, n)
		t0 := time.Now()
		for _, body := range single {
			var resp BatchRowsResponse
			if code := post(b, base+"/batch/lookup", body, &resp); code != http.StatusOK {
				b.Fatalf("single lookup: status %d", code)
			}
			rows = append(rows, resp.Rows...)
		}
		singleBest = min(singleBest, time.Since(t0).Seconds())
		if !reflect.DeepEqual(rows, want) {
			b.Fatal("single lookups did not resolve rows 0..1023 in order")
		}

		var resp BatchRowsResponse
		t0 = time.Now()
		if code := post(b, base+"/batch/lookup", string(whole), &resp); code != http.StatusOK {
			b.Fatalf("batched lookup: status %d", code)
		}
		batchBest = min(batchBest, time.Since(t0).Seconds())
		if !reflect.DeepEqual(resp.Rows, want) {
			b.Fatal("batched lookup did not resolve rows 0..1023 in order")
		}
	}
	b.ReportMetric(n/singleBest, "single_configs/s")
	b.ReportMetric(n/batchBest, "batch_configs/s")
	b.ReportMetric(singleBest/batchBest, "speedup")
	b.ReportMetric(0, "ns/op")
}

// BenchmarkCacheHitObs measures what the observability planes cost on
// the cheapest path the daemon has, the cache-hit submit. Three servers
// differ only in ObsConfig: full (trace ring and event journal), trace
// (ring only) and off (neither). Each sub-benchmark alternates one hit
// on its server with one on the off server, so ambient drift hits both
// alike, and reports its median hit latency and its overhead against
// off's median; off against itself reads the method's own bias. Medians keep a GC pause or a scheduler stall in one
// round trip from swinging the reading.
func BenchmarkCacheHitObs(b *testing.B) {
	body := buildBody("obs-bench", "")
	configs := []struct {
		name string
		ocfg ObsConfig
	}{
		{"full", ObsConfig{TraceBuffer: 512, EventBuffer: 1024}},
		{"trace", ObsConfig{TraceBuffer: 512}},
		{"off", ObsConfig{}},
	}
	urls := map[string]string{}
	for _, c := range configs {
		_, ts := newObsTestServer(b, RegistryConfig{MaxEntries: 64}, c.ocfg)
		hit(b, ts.URL, body) // the cold build; every later submit hits
		urls[c.name] = ts.URL
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < 16; i++ { // warm connections and the heap
				hit(b, urls[c.name], body)
				hit(b, urls["off"], body)
			}
			on := make([]time.Duration, b.N)
			off := make([]time.Duration, b.N)
			for i := 0; i < b.N; i++ {
				if i%2 == 0 { // alternate which goes first: the first of a pair reads slower
					on[i] = hit(b, urls[c.name], body)
					off[i] = hit(b, urls["off"], body)
				} else {
					off[i] = hit(b, urls["off"], body)
					on[i] = hit(b, urls[c.name], body)
				}
			}
			onMed, offMed := median(on), median(off)
			b.ReportMetric(float64(onMed.Nanoseconds()), "ns/hit")
			b.ReportMetric(100*(onMed.Seconds()-offMed.Seconds())/offMed.Seconds(), "overhead_%")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// median sorts ds in place and returns its middle element.
func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// hit submits body and returns the client-observed round trip.
func hit(tb testing.TB, base, body string) time.Duration {
	t0 := time.Now()
	resp := postResp(tb, base+"/v1/spaces", body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("submit: status %d", resp.StatusCode)
	}
	return d
}
