package service

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"searchspace/internal/obs"
)

func newObsTestServer(t testing.TB, cfg RegistryConfig, ocfg ObsConfig) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry(cfg)
	srv := NewServerObs(reg, SessionConfig{}, ocfg)
	ts := httptest.NewServer(srv)
	// As in newTestServer: let demotion writes land before the test's
	// temporary directories are removed.
	t.Cleanup(func() {
		ts.Close()
		reg.Wait()
	})
	return srv, ts
}

// postRaw posts a JSON body and returns the full response, so callers
// can read headers (the JSON helpers in handlers_test.go drop them).
func postResp(t testing.TB, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

// TestRequestIDContract: every response carries X-Request-ID — generated
// when absent, echoed when the client supplies a valid one, replaced
// when the supplied one is malformed.
func TestRequestIDContract(t *testing.T) {
	_, ts := newObsTestServer(t, RegistryConfig{}, DefaultObsConfig())

	resp := postResp(t, ts.URL+"/v1/spaces", buildBody("rid", ""))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	generated := resp.Header.Get("X-Request-ID")
	if !obs.ValidRequestID(generated) {
		t.Fatalf("generated request ID %q is not valid", generated)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/stats", nil)
	req.Header.Set("X-Request-ID", "client-chosen.id-42")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got != "client-chosen.id-42" {
		t.Fatalf("valid client request ID not echoed: got %q", got)
	}

	req, _ = http.NewRequest("GET", ts.URL+"/v1/stats", nil)
	req.Header.Set("X-Request-ID", "has spaces and a pipe |")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Request-ID"); !obs.ValidRequestID(got) || got == "has spaces and a pipe |" {
		t.Fatalf("malformed client request ID should be replaced, got %q", got)
	}
}

// TestTraceIntegration drives a cold build through a store-backed
// server and checks the published trace end to end: resolvable by the
// response's X-Request-ID, spans present and ordered (admission before
// build before write_through), solver node counts attached, and span
// time contained within the request's measured duration.
func TestTraceIntegration(t *testing.T) {
	cfg := RegistryConfig{
		Store: openTestStore(t, t.TempDir()),
		// One worker forces the sequential optimized path, the only one
		// that reports per-node enumeration counts on the build span.
		BuildWorkers:        1,
		MaxConcurrentBuilds: 2,
	}
	_, ts := newObsTestServer(t, cfg, ObsConfig{TraceBuffer: 16})

	resp := postResp(t, ts.URL+"/v1/spaces", buildBody("traced", ""))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("build: HTTP %d", resp.StatusCode)
	}
	rid := resp.Header.Get("X-Request-ID")
	if rid == "" {
		t.Fatal("build response carried no X-Request-ID")
	}

	var tr obs.Trace
	if code := get(t, ts.URL+"/v1/trace/"+rid, &tr); code != http.StatusOK {
		t.Fatalf("GET /v1/trace/%s: HTTP %d", rid, code)
	}
	if tr.ID != rid || tr.Route != "POST /v1/spaces" || tr.Status != http.StatusOK {
		t.Fatalf("trace header mismatch: id=%q route=%q status=%d", tr.ID, tr.Route, tr.Status)
	}
	if tr.DurationNs <= 0 {
		t.Fatalf("trace has no duration: %d", tr.DurationNs)
	}

	idx := map[string]int{}
	for i, sp := range tr.Spans {
		if _, dup := idx[sp.Name]; !dup {
			idx[sp.Name] = i
		}
	}
	for _, want := range []string{"admission", "queue_wait", "build", "write_through", "encode"} {
		if _, ok := idx[want]; !ok {
			t.Fatalf("trace missing span %q; have %+v", want, tr.Spans)
		}
	}
	if !(idx["admission"] < idx["build"] && idx["build"] < idx["write_through"]) {
		t.Fatalf("spans out of order: %+v", tr.Spans)
	}

	build := tr.Spans[idx["build"]]
	if build.Attrs["nodes"] <= 0 || build.Attrs["valid"] <= 0 {
		t.Fatalf("build span should carry solver counts, got attrs %v", build.Attrs)
	}
	if build.Attrs["workers"] != 1 {
		t.Fatalf("build span workers = %d, want 1", build.Attrs["workers"])
	}

	// The spans are disjoint slices of the request, so their total time
	// cannot exceed the request's own measured duration (up to clock
	// slack), and the build span must dominate a cold build's latency
	// budget far less than the whole.
	var sum int64
	for _, sp := range tr.Spans {
		if sp.StartNs < 0 || sp.DurationNs < 0 {
			t.Fatalf("span %q has negative offset or duration: %+v", sp.Name, sp)
		}
		sum += sp.DurationNs
	}
	slack := int64(20 * time.Millisecond)
	if sum > tr.DurationNs+slack {
		t.Fatalf("span durations sum to %dns, more than the request's %dns", sum, tr.DurationNs)
	}

	// A cache hit of the same definition must not adopt the builder's
	// phases: its trace is admission + encode only.
	resp = postResp(t, ts.URL+"/v1/spaces", buildBody("traced", ""))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	var hitTrace obs.Trace
	if code := get(t, ts.URL+"/v1/trace/"+resp.Header.Get("X-Request-ID"), &hitTrace); code != http.StatusOK {
		t.Fatalf("hit trace: HTTP %d", code)
	}
	for _, sp := range hitTrace.Spans {
		if sp.Name == "build" {
			t.Fatalf("cache hit trace claims a build: %+v", hitTrace.Spans)
		}
	}
}

// TestTraceEndpointsDisabled pins the -trace-buffer 0 -event-buffer 0
// behavior: request IDs still flow, but trace and event lookups 404
// with a helpful message.
func TestTraceEndpointsDisabled(t *testing.T) {
	_, ts := newObsTestServer(t, RegistryConfig{}, ObsConfig{TraceBuffer: 0})
	resp := postResp(t, ts.URL+"/v1/spaces", buildBody("off", ""))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rid := resp.Header.Get("X-Request-ID")
	if rid == "" {
		t.Fatal("request ID contract must hold with tracing off")
	}
	if code := get(t, ts.URL+"/v1/trace/"+rid, nil); code != http.StatusNotFound {
		t.Fatalf("trace lookup with tracing off: HTTP %d, want 404", code)
	}
	if code := get(t, ts.URL+"/v1/trace/recent", nil); code != http.StatusNotFound {
		t.Fatalf("trace recent with tracing off: HTTP %d, want 404", code)
	}
	if code := get(t, ts.URL+"/v1/events", nil); code != http.StatusNotFound {
		t.Fatalf("events with the journal off: HTTP %d, want 404", code)
	}
}

// TestClientDisconnectCounted: a request whose client has gone away is
// a 499 and lands in the per-route disconnect counter, not the error
// counter — a dashboard must be able to tell load-shedding clients from
// server faults.
func TestClientDisconnectCounted(t *testing.T) {
	srv := NewServer(NewRegistry(RegistryConfig{}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/spaces", strings.NewReader(buildBody("gone", ""))).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("canceled request: HTTP %d, want %d", rec.Code, statusClientClosedRequest)
	}

	snap := srv.Metrics().Snapshot(srv.Registry().Stats(), nil, SessionTableStats{})
	var ep *EndpointStats
	for i := range snap.Endpoints {
		if snap.Endpoints[i].Route == "POST /v1/spaces" {
			ep = &snap.Endpoints[i]
		}
	}
	if ep == nil {
		t.Fatalf("no endpoint row for POST /v1/spaces: %+v", snap.Endpoints)
	}
	if ep.ClientDisconnects != 1 {
		t.Fatalf("client_disconnects = %d, want 1", ep.ClientDisconnects)
	}
	if ep.Errors != 0 {
		t.Fatalf("a 499 must not count as an error, got errors = %d", ep.Errors)
	}
}

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

var (
	// The label block is matched greedily: label VALUES may contain
	// braces (routes like "POST /v1/spaces/{id}/sessions"), so the
	// block ends at the last close brace before the value.
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (-?[0-9.]+(?:[eE][-+]?[0-9]+)?|\+Inf|-Inf|NaN)$`)
	labelRe  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

func parseExposition(t *testing.T, text string) (samples []promSample, typed map[string]string) {
	t.Helper()
	typed = map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line does not match the exposition sample grammar: %q", line)
		}
		s := promSample{name: m[1], labels: map[string]string{}}
		for _, lm := range labelRe.FindAllStringSubmatch(m[2], -1) {
			s.labels[lm[1]] = lm[2]
		}
		switch m[3] {
		case "+Inf":
			s.value = math.Inf(1)
		case "-Inf":
			s.value = math.Inf(-1)
		default:
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Fatalf("bad sample value in %q: %v", line, err)
			}
			s.value = v
		}
		samples = append(samples, s)
	}
	return samples, typed
}

// baseFamily strips the histogram sample suffixes so a sample can be
// matched to its # TYPE declaration.
func baseFamily(name string, typed map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name {
			if typ, ok := typed[base]; ok && typ == "histogram" {
				return base
			}
		}
	}
	return name
}

// labelKey canonicalizes a label set (minus le) for grouping histogram
// series.
func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == "le" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return strings.Join(parts, ",")
}

// TestMetricsExposition exercises the daemon, scrapes /metrics, and
// validates the exposition line by line: every sample belongs to a
// declared family, and every histogram satisfies the Prometheus
// invariants (cumulative non-decreasing buckets, +Inf bucket equal to
// _count, a _sum present per series).
func TestMetricsExposition(t *testing.T) {
	cfg := RegistryConfig{Store: openTestStore(t, t.TempDir()), MaxConcurrentBuilds: 2}
	_, ts := newObsTestServer(t, cfg, DefaultObsConfig())

	// Traffic: a build, a cache hit, an error, a session round trip —
	// so counters, histograms, and phase families all have data.
	post(t, ts.URL+"/v1/spaces", buildBody("expo", ""), nil)
	post(t, ts.URL+"/v1/spaces", buildBody("expo", ""), nil)
	post(t, ts.URL+"/v1/spaces", `{"problem": null}`, nil)
	var built BuildResponse
	post(t, ts.URL+"/v1/spaces", buildBody("expo", ""), &built)
	var sess struct {
		ID string `json:"id"`
	}
	post(t, ts.URL+"/v1/spaces/"+built.ID+"/sessions",
		`{"seed": 1, "budget": {"max_evals": 5}}`, &sess)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("wrong exposition content type: %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	samples, typed := parseExposition(t, string(raw))
	if len(samples) == 0 {
		t.Fatal("no samples in exposition")
	}

	// Every sample must belong to a declared # TYPE family.
	seen := map[string]bool{}
	for _, s := range samples {
		base := baseFamily(s.name, typed)
		if _, ok := typed[base]; !ok {
			t.Fatalf("sample %q has no # TYPE declaration", s.name)
		}
		seen[base] = true
	}

	// The families the daemon must always export.
	for _, family := range []string{
		"spaced_uptime_seconds",
		"spaced_http_requests_total",
		"spaced_http_request_errors_total",
		"spaced_http_client_disconnects_total",
		"spaced_http_slow_requests_total",
		"spaced_http_request_duration_seconds",
		"spaced_build_duration_seconds",
		"spaced_build_phase_duration_seconds",
		"spaced_cache_entries",
		"spaced_cache_events_total",
		"spaced_store_blobs",
		"spaced_store_io_seconds",
		"spaced_sessions_active",
		"spaced_trace_ring_capacity",
		"spaced_journal_ring_capacity",
		"spaced_lifecycle_events_total",
		"spaced_http_inflight_requests",
		"spaced_http_inflight_peak",
		"go_goroutines",
		"go_heap_objects_bytes",
		"go_gc_cycles_total",
		"go_gc_pause_seconds",
		"go_sched_latency_seconds",
	} {
		if !seen[family] {
			t.Fatalf("family %q missing from exposition", family)
		}
	}

	// Histogram invariants per series.
	type histSeries struct {
		buckets []promSample
		sum     *promSample
		count   *promSample
	}
	series := map[string]*histSeries{}
	key := func(family string, labels map[string]string) string {
		return family + "|" + labelKey(labels)
	}
	for i, s := range samples {
		base := baseFamily(s.name, typed)
		if typed[base] != "histogram" {
			continue
		}
		hs := series[key(base, s.labels)]
		if hs == nil {
			hs = &histSeries{}
			series[key(base, s.labels)] = hs
		}
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			hs.buckets = append(hs.buckets, s)
		case strings.HasSuffix(s.name, "_sum"):
			hs.sum = &samples[i]
		case strings.HasSuffix(s.name, "_count"):
			hs.count = &samples[i]
		}
	}
	if len(series) == 0 {
		t.Fatal("no histogram series found")
	}
	for k, hs := range series {
		if hs.sum == nil || hs.count == nil {
			t.Fatalf("histogram %s missing _sum or _count", k)
		}
		if len(hs.buckets) == 0 {
			t.Fatalf("histogram %s has no buckets", k)
		}
		bounds := make([]float64, len(hs.buckets))
		for i, b := range hs.buckets {
			le, ok := b.labels["le"]
			if !ok {
				t.Fatalf("histogram %s bucket missing le label", k)
			}
			if le == "+Inf" {
				bounds[i] = math.Inf(1)
			} else {
				v, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("histogram %s: bad le %q", k, le)
				}
				bounds[i] = v
			}
		}
		if !sort.Float64sAreSorted(bounds) {
			t.Fatalf("histogram %s buckets not in ascending le order: %v", k, bounds)
		}
		if !math.IsInf(bounds[len(bounds)-1], 1) {
			t.Fatalf("histogram %s missing +Inf bucket", k)
		}
		prev := -1.0
		for i, b := range hs.buckets {
			if b.value < prev {
				t.Fatalf("histogram %s bucket %d not cumulative: %v then %v", k, i, prev, b.value)
			}
			prev = b.value
		}
		if inf := hs.buckets[len(hs.buckets)-1].value; inf != hs.count.value {
			t.Fatalf("histogram %s: +Inf bucket %v != _count %v", k, inf, hs.count.value)
		}
		if hs.sum.value < 0 {
			t.Fatalf("histogram %s: negative _sum %v", k, hs.sum.value)
		}
	}

	// The exposition and /v1/stats are rendered from the same
	// aggregator under the same lock; the request totals must agree.
	var snap MetricsSnapshot
	get(t, ts.URL+"/v1/stats", &snap)
	want := map[string]float64{}
	for _, ep := range snap.Endpoints {
		want[ep.Route] = float64(ep.Count)
	}
	for _, s := range samples {
		if s.name != "spaced_http_requests_total" {
			continue
		}
		route := s.labels["route"]
		// The scrapes themselves shift the counters by at most one in
		// either direction: the /v1/stats snapshot ran after /metrics
		// rendered (so it counts that scrape), and the /metrics scrape
		// registers its own route before rendering but counts itself only
		// after.
		if diff := s.value - want[route]; diff < -1 || diff > 1 {
			t.Fatalf("route %q: /metrics says %v requests, /v1/stats said %v", route, s.value, want[route])
		}
	}
}

// TestTraceRecent: the ring serves the most recently finished traces,
// newest first, honoring ?n.
func TestTraceRecent(t *testing.T) {
	_, ts := newObsTestServer(t, RegistryConfig{}, ObsConfig{TraceBuffer: 8})
	for i := 0; i < 5; i++ {
		post(t, ts.URL+"/v1/spaces", buildBody(fmt.Sprintf("r%d", i), ""), nil)
	}
	var res TraceRecentResponse
	if code := get(t, ts.URL+"/v1/trace/recent?n=3", &res); code != http.StatusOK {
		t.Fatalf("recent: HTTP %d", code)
	}
	if len(res.Traces) != 3 {
		t.Fatalf("asked for 3 recent traces, got %d", len(res.Traces))
	}
	for i := 1; i < len(res.Traces); i++ {
		if res.Traces[i-1].Start.Before(res.Traces[i].Start) {
			t.Fatalf("recent traces not newest-first: %v then %v", res.Traces[i-1].Start, res.Traces[i].Start)
		}
	}
}

// TestTraceRecordingUnderConcurrentBuilds hammers builds, trace reads,
// and scrapes together; run under -race this pins the lock discipline
// of the tracer ring and the phase adoption handoff.
func TestTraceRecordingUnderConcurrentBuilds(t *testing.T) {
	cfg := RegistryConfig{MaxConcurrentBuilds: 4, BuildWorkers: 2}
	_, ts := newObsTestServer(t, cfg, ObsConfig{TraceBuffer: 4})

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				resp, err := http.Post(ts.URL+"/v1/spaces", "application/json",
					strings.NewReader(buildBody(fmt.Sprintf("race-%d-%d", w, i%3), "")))
				if err != nil {
					t.Error(err)
					return
				}
				rid := resp.Header.Get("X-Request-ID")
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				// Interleave reads of the trace just published (or
				// already evicted — both must be safe), the recent
				// listing, and the exposition.
				for _, url := range []string{
					ts.URL + "/v1/trace/" + rid,
					ts.URL + "/v1/trace/recent",
					ts.URL + "/metrics",
				} {
					r2, err := http.Get(url)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, r2.Body)
					r2.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()

	var res TraceRecentResponse
	if code := get(t, ts.URL+"/v1/trace/recent", &res); code != http.StatusOK || len(res.Traces) == 0 {
		t.Fatalf("after the hammer, recent traces: HTTP %d, %d traces", code, len(res.Traces))
	}
}

// TestSlowRequestCounter: with a 0ns threshold every request is slow;
// the per-route slow counter and the JSON snapshot must see it.
func TestSlowRequestCounter(t *testing.T) {
	srv := NewServerObs(NewRegistry(RegistryConfig{}), SessionConfig{},
		ObsConfig{TraceBuffer: 4, SlowThreshold: time.Nanosecond})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	post(t, ts.URL+"/v1/spaces", buildBody("slow", ""), nil)
	snap := srv.Metrics().Snapshot(srv.Registry().Stats(), nil, SessionTableStats{})
	for _, ep := range snap.Endpoints {
		if ep.Route == "POST /v1/spaces" {
			if ep.SlowRequests != 1 {
				t.Fatalf("slow_requests = %d, want 1", ep.SlowRequests)
			}
			return
		}
	}
	t.Fatal("no endpoint row for POST /v1/spaces")
}
