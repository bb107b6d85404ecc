package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// smallDoc is the wire form of smallDef (size 21).
func smallDoc(name string) string {
	return fmt.Sprintf(`{
		"name": %q,
		"params": [
			{"name": "block_size_x", "values": [1, 2, 4, 8, 16, 32]},
			{"name": "block_size_y", "values": [1, 2, 4, 8]}
		],
		"constraints": ["block_size_x * block_size_y <= 64"]
	}`, name)
}

func buildBody(name, method string) string {
	if method == "" {
		return fmt.Sprintf(`{"problem": %s}`, smallDoc(name))
	}
	return fmt.Sprintf(`{"problem": %s, "method": %q}`, smallDoc(name), method)
}

func newTestServer(t testing.TB, cfg RegistryConfig) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(NewRegistry(cfg))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// post sends a JSON body and decodes the JSON response into out.
func post(t testing.TB, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: bad response %s: %v", url, raw, err)
		}
	}
	return resp.StatusCode
}

func get(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("GET %s: bad response %s: %v", url, raw, err)
		}
	}
	return resp.StatusCode
}

func TestBuildThenCacheHit(t *testing.T) {
	srv, ts := newTestServer(t, RegistryConfig{})

	var first BuildResponse
	if code := post(t, ts.URL+"/v1/spaces", buildBody("hs", ""), &first); code != http.StatusOK {
		t.Fatalf("build: status %d", code)
	}
	if first.Cached {
		t.Error("first build must not report cached")
	}
	if first.Size != 21 || first.Build.Valid != 21 {
		t.Errorf("size: %+v", first)
	}
	if first.Build.Method != "optimized" || first.Build.Cartesian != 24 {
		t.Errorf("build stats not wired through: %+v", first.Build)
	}
	if first.Build.WallSeconds <= 0 {
		t.Errorf("wall time missing: %+v", first.Build)
	}

	var second BuildResponse
	post(t, ts.URL+"/v1/spaces", buildBody("hs", ""), &second)
	if !second.Cached {
		t.Error("identical resubmission must be a cache hit")
	}
	if second.ID != first.ID {
		t.Errorf("content address changed: %s vs %s", second.ID, first.ID)
	}
	if st := srv.Registry().Stats(); st.Builds != 1 {
		t.Errorf("builds: got %d want 1", st.Builds)
	}
}

// TestConcurrentBuildsOverHTTP is the acceptance criterion end to end:
// concurrent identical POSTs trigger exactly one construction, visible
// in /v1/stats, and queries on the cached space don't rebuild.
func TestConcurrentBuildsOverHTTP(t *testing.T) {
	srv, ts := newTestServer(t, RegistryConfig{})

	const n = 2
	var (
		wg  sync.WaitGroup
		ids [n]string
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			var resp BuildResponse
			if code := post(t, ts.URL+"/v1/spaces", buildBody("conc", ""), &resp); code != http.StatusOK {
				t.Errorf("build %d: status %d", i, code)
				return
			}
			ids[i] = resp.ID
		}(i)
	}
	wg.Wait()
	if ids[0] != ids[1] || ids[0] == "" {
		t.Fatalf("ids disagree: %q vs %q", ids[0], ids[1])
	}

	var stats MetricsSnapshot
	get(t, ts.URL+"/v1/stats", &stats)
	if stats.Cache.Builds != 1 {
		t.Errorf("builds: got %d want exactly 1", stats.Cache.Builds)
	}
	if want := 0.5; stats.Cache.HitRatio != want {
		t.Errorf("hit ratio: got %v want %v", stats.Cache.HitRatio, want)
	}

	// contains and sample on the cached space must not rebuild.
	var cresp ContainsResponse
	body := `{"config": {"block_size_x": 8, "block_size_y": 8}}`
	if code := post(t, ts.URL+"/v1/spaces/"+ids[0]+"/contains", body, &cresp); code != http.StatusOK {
		t.Fatalf("contains: status %d", code)
	}
	if len(cresp.Results) != 1 || !cresp.Results[0].Contains {
		t.Errorf("contains: %+v", cresp)
	}
	var sresp SampleResponse
	post(t, ts.URL+"/v1/spaces/"+ids[0]+"/sample", `{"k": 5, "seed": 7}`, &sresp)
	if len(sresp.Rows) != 5 {
		t.Errorf("sample: %+v", sresp)
	}
	if st := srv.Registry().Stats(); st.Builds != 1 {
		t.Errorf("queries caused a rebuild: builds=%d", st.Builds)
	}
}

func TestSamplingDeterminism(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{})
	var built BuildResponse
	post(t, ts.URL+"/v1/spaces", buildBody("det", ""), &built)

	for _, strategy := range []string{"uniform", "stratified", "lhs"} {
		body := fmt.Sprintf(`{"k": 8, "strategy": %q, "seed": 1234}`, strategy)
		var a, b SampleResponse
		post(t, ts.URL+"/v1/spaces/"+built.ID+"/sample", body, &a)
		post(t, ts.URL+"/v1/spaces/"+built.ID+"/sample", body, &b)
		if !reflect.DeepEqual(a.Rows, b.Rows) {
			t.Errorf("%s: same seed gave different rows: %v vs %v", strategy, a.Rows, b.Rows)
		}
		var c SampleResponse
		post(t, ts.URL+"/v1/spaces/"+built.ID+"/sample",
			fmt.Sprintf(`{"k": 8, "strategy": %q, "seed": 99}`, strategy), &c)
		if reflect.DeepEqual(a.Rows, c.Rows) {
			t.Errorf("%s: different seeds gave identical rows %v", strategy, a.Rows)
		}
	}
}

func TestContainsBatchAndMisses(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{})
	var built BuildResponse
	post(t, ts.URL+"/v1/spaces", buildBody("mem", ""), &built)

	body := `{"configs": [
		{"block_size_x": 1, "block_size_y": 1},
		{"block_size_x": 32, "block_size_y": 8},
		{"block_size_x": 3, "block_size_y": 1},
		{"block_size_x": 1}
	]}`
	var resp ContainsResponse
	post(t, ts.URL+"/v1/spaces/"+built.ID+"/contains", body, &resp)
	want := []bool{true, false, false, false}
	if len(resp.Results) != len(want) {
		t.Fatalf("results: %+v", resp)
	}
	for i, w := range want {
		if resp.Results[i].Contains != w {
			t.Errorf("config %d: contains=%v want %v", i, resp.Results[i].Contains, w)
		}
	}
	if resp.Results[0].Index == nil {
		t.Error("valid config should carry its row index")
	}
}

func TestNeighbors(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{})
	var built BuildResponse
	post(t, ts.URL+"/v1/spaces", buildBody("nbr", ""), &built)

	var byConfig NeighborsResponse
	body := `{"config": {"block_size_x": 8, "block_size_y": 8}, "kind": "hamming"}`
	if code := post(t, ts.URL+"/v1/spaces/"+built.ID+"/neighbors", body, &byConfig); code != http.StatusOK {
		t.Fatalf("neighbors: status %d", code)
	}
	if len(byConfig.Rows) == 0 {
		t.Fatal("expected hamming neighbors")
	}
	var byRow NeighborsResponse
	post(t, ts.URL+"/v1/spaces/"+built.ID+"/neighbors",
		fmt.Sprintf(`{"row": %d, "kind": "hamming"}`, byConfig.Row), &byRow)
	if !reflect.DeepEqual(byConfig.Rows, byRow.Rows) {
		t.Errorf("row/config forms disagree: %v vs %v", byConfig.Rows, byRow.Rows)
	}
	var adj NeighborsResponse
	post(t, ts.URL+"/v1/spaces/"+built.ID+"/neighbors",
		fmt.Sprintf(`{"row": %d, "kind": "adjacent"}`, byConfig.Row), &adj)
	if len(adj.Rows) > len(byConfig.Rows) {
		t.Errorf("adjacent neighbors (%d) cannot exceed hamming neighbors (%d)",
			len(adj.Rows), len(byConfig.Rows))
	}
}

func TestDescribe(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{})
	var built BuildResponse
	post(t, ts.URL+"/v1/spaces", buildBody("desc", ""), &built)

	var desc DescribeResponse
	if code := get(t, ts.URL+"/v1/spaces/"+built.ID, &desc); code != http.StatusOK {
		t.Fatalf("describe: status %d", code)
	}
	if desc.Size != 21 || desc.Cartesian != 24 || desc.Constraints != 1 {
		t.Errorf("describe: %+v", desc)
	}
	if len(desc.Bounds) != 2 {
		t.Fatalf("bounds: %+v", desc.Bounds)
	}
	// True bounds: block_size_y can still reach 8 (8*8=64) but x*y<=64
	// keeps every declared x value (32*2=64), so max x stays 32.
	if b := desc.Bounds[0]; b.Name != "block_size_x" || b.Max != 32 {
		t.Errorf("bounds[0]: %+v", b)
	}
	if b := desc.Bounds[1]; b.Name != "block_size_y" || b.Max != 8 {
		t.Errorf("bounds[1]: %+v", b)
	}
}

func TestMethodsAndCompare(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{})

	var methods MethodsResponse
	get(t, ts.URL+"/v1/methods", &methods)
	if len(methods.Methods) != 6 || methods.Default != "optimized" {
		t.Errorf("methods: %+v", methods)
	}

	var cmp CompareResponse
	body := fmt.Sprintf(`{"problem": %s, "methods": ["optimized", "brute-force", "chain-of-trees"]}`,
		smallDoc("race"))
	if code := post(t, ts.URL+"/v1/compare", body, &cmp); code != http.StatusOK {
		t.Fatalf("compare: status %d", code)
	}
	if len(cmp.Results) != 3 || !cmp.Agree {
		t.Fatalf("compare: %+v", cmp)
	}
	for _, res := range cmp.Results {
		if res.Error != "" || res.Valid != 21 {
			t.Errorf("method %s: %+v", res.Method, res)
		}
	}
}

// TestDeeplyNestedConstraintIs422: a constraint nested far past the
// parser's limit, well under the body cap, is a 422 and leaves the
// daemon serving. Unbounded, nesting a few million deep overflows the
// goroutine stack, which kills the whole process.
func TestDeeplyNestedConstraintIs422(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{})
	const depth = 100_000
	constraint := strings.Repeat("(", depth) + "p > 0" + strings.Repeat(")", depth)
	deep := fmt.Sprintf(`{"problem": {"name": "deep", "params": [{"name": "p", "values": [1, 2]}], "constraints": [%q]}}`, constraint)
	var apiErr apiError
	if code := post(t, ts.URL+"/v1/spaces", deep, &apiErr); code != http.StatusUnprocessableEntity {
		t.Fatalf("deeply nested constraint: status %d, want 422", code)
	}
	if !strings.Contains(apiErr.Error, "nested more than") {
		t.Fatalf("422 body does not name the nesting limit: %.200s", apiErr.Error)
	}
	var built BuildResponse
	if code := post(t, ts.URL+"/v1/spaces", buildBody("after-deep", ""), &built); code != http.StatusOK || built.Size != 21 {
		t.Fatalf("build after the rejected one: status %d, size %d", code, built.Size)
	}
}

// TestLongChainConstraintIs422: a left-deep chain p+p+...+p as long as
// the body cap allows, and one just past the parser's node budget, are
// both 422s, and the daemon keeps building. Unbounded, the body-cap
// chain overflows the goroutine stack in the passes after parsing,
// which kills the whole process.
func TestLongChainConstraintIs422(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{})
	const prefix, suffix = `{"problem": {"name": "chain", "params": [{"name": "p", "values": [1, 2]}], "constraints": ["`, ` >= 0"]}}`
	operands := (maxBodyBytes - len(prefix) - len(suffix)) / 2
	cases := []struct {
		name, body, limit string
	}{
		{"body-cap chain", prefix + strings.Repeat("p+", operands-1) + "p" + suffix, "tokens"},
		{"chain past the node budget", prefix + strings.Repeat("p+", 5000) + "p" + suffix, "nodes"},
	}
	for _, tc := range cases {
		if len(tc.body) > maxBodyBytes {
			t.Fatalf("%s: body of %d bytes is over the cap", tc.name, len(tc.body))
		}
		var apiErr apiError
		if code := post(t, ts.URL+"/v1/spaces", tc.body, &apiErr); code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422", tc.name, code)
		}
		if !strings.Contains(apiErr.Error, tc.limit) {
			t.Fatalf("%s: 422 body does not name the %s limit: %.200s", tc.name, tc.limit, apiErr.Error)
		}
	}
	var built BuildResponse
	if code := post(t, ts.URL+"/v1/spaces", buildBody("after-chain", ""), &built); code != http.StatusOK || built.Size != 21 {
		t.Fatalf("build after the rejected ones: status %d, size %d", code, built.Size)
	}
}

func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{})

	if code := post(t, ts.URL+"/v1/spaces", `{not json`, nil); code != http.StatusBadRequest {
		t.Errorf("bad json: status %d", code)
	}
	if code := post(t, ts.URL+"/v1/spaces", `{}`, nil); code != http.StatusBadRequest {
		t.Errorf("missing problem: status %d", code)
	}
	if code := post(t, ts.URL+"/v1/spaces", buildBody("m", "no-such-method"), nil); code != http.StatusBadRequest {
		t.Errorf("unknown method: status %d", code)
	}
	invalid := `{"problem": {"name": "x", "params": [{"name": "p", "values": [1]}], "constraints": ["q > 0"]}}`
	if code := post(t, ts.URL+"/v1/spaces", invalid, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("invalid problem: status %d", code)
	}
	if code := get(t, ts.URL+"/v1/spaces/"+strings.Repeat("0", 64), nil); code != http.StatusNotFound {
		t.Errorf("unknown id: status %d", code)
	}
	if code := post(t, ts.URL+"/v1/spaces/"+strings.Repeat("0", 64)+"/sample", `{"k": 1}`, nil); code != http.StatusNotFound {
		t.Errorf("sample on unknown id: status %d", code)
	}

	var built BuildResponse
	post(t, ts.URL+"/v1/spaces", buildBody("err", ""), &built)
	if code := post(t, ts.URL+"/v1/spaces/"+built.ID+"/sample", `{"k": 0}`, nil); code != http.StatusBadRequest {
		t.Errorf("k=0: status %d", code)
	}
	if code := post(t, ts.URL+"/v1/spaces/"+built.ID+"/sample", `{"k": 3, "strategy": "bogus"}`, nil); code != http.StatusBadRequest {
		t.Errorf("bogus strategy: status %d", code)
	}
	if code := post(t, ts.URL+"/v1/spaces/"+built.ID+"/neighbors", `{"row": 9999}`, nil); code != http.StatusBadRequest {
		t.Errorf("row out of range: status %d", code)
	}
	if code := post(t, ts.URL+"/v1/spaces/"+built.ID+"/contains", `{}`, nil); code != http.StatusBadRequest {
		t.Errorf("empty contains: status %d", code)
	}
}

func TestStatsEndpointShape(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{})
	post(t, ts.URL+"/v1/spaces", buildBody("st", ""), nil)
	post(t, ts.URL+"/v1/spaces", buildBody("st", ""), nil)

	var snap MetricsSnapshot
	get(t, ts.URL+"/v1/stats", &snap)
	var buildRoute *EndpointStats
	for i := range snap.Endpoints {
		if snap.Endpoints[i].Route == "POST /v1/spaces" {
			buildRoute = &snap.Endpoints[i]
		}
	}
	if buildRoute == nil || buildRoute.Count != 2 {
		t.Fatalf("endpoint counters: %+v", snap.Endpoints)
	}
	total := int64(0)
	for _, n := range snap.BuildTimeHist {
		total += n
	}
	if total != 1 {
		t.Errorf("build histogram should hold exactly the one real build: %+v", snap.BuildTimeHist)
	}
	if snap.Cache.HitRatio != 0.5 {
		t.Errorf("cache hit ratio: %+v", snap.Cache)
	}
}

// TestValueKindsOverHTTP pushes float/bool/string parameters through
// the full wire path: build, then membership with kind-sensitive
// values.
func TestValueKindsOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{})
	doc := `{"problem": {
		"name": "kinds",
		"params": [
			{"name": "n", "values": [1, 2]},
			{"name": "scale", "values": [0.5, 2.0]},
			{"name": "fast", "values": [true, false]},
			{"name": "layout", "values": ["row", "col"]}
		],
		"constraints": ["n * scale <= 4"]
	}}`
	var built BuildResponse
	if code := post(t, ts.URL+"/v1/spaces", doc, &built); code != http.StatusOK {
		t.Fatalf("build: status %d", code)
	}
	if built.Size != 16 {
		t.Errorf("size: got %d want 16", built.Size)
	}
	var resp ContainsResponse
	body := `{"configs": [
		{"n": 2, "scale": 2.0, "fast": true, "layout": "row"},
		{"n": 2, "scale": 2.5, "fast": true, "layout": "row"},
		{"n": 2, "scale": 2.0, "fast": true, "layout": "diag"}
	]}`
	post(t, ts.URL+"/v1/spaces/"+built.ID+"/contains", body, &resp)
	want := []bool{true, false, false}
	for i, w := range want {
		if resp.Results[i].Contains != w {
			t.Errorf("config %d: contains=%v want %v", i, resp.Results[i].Contains, w)
		}
	}
}

// TestLargeBodyRejected guards the MaxBytesReader limit.
func TestLargeBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{})
	var huge bytes.Buffer
	huge.WriteString(`{"problem": {"name": "`)
	huge.Write(bytes.Repeat([]byte("x"), maxBodyBytes+1))
	huge.WriteString(`"}}`)
	if code := post(t, ts.URL+"/v1/spaces", huge.String(), nil); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", code)
	}
}

// TestCompareSingleMethodField covers the "method" (singular) form of
// /v1/compare and the rejection of the ambiguous both-fields case.
func TestCompareSingleMethodField(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{})
	var cmp CompareResponse
	body := fmt.Sprintf(`{"problem": %s, "method": "optimized"}`, smallDoc("solo"))
	if code := post(t, ts.URL+"/v1/compare", body, &cmp); code != http.StatusOK {
		t.Fatalf("compare: status %d", code)
	}
	if len(cmp.Results) != 1 || cmp.Results[0].Method != "optimized" {
		t.Fatalf("single method not honored: %+v", cmp)
	}
	both := fmt.Sprintf(`{"problem": %s, "method": "optimized", "methods": ["brute-force"]}`, smallDoc("solo"))
	if code := post(t, ts.URL+"/v1/compare", both, nil); code != http.StatusBadRequest {
		t.Errorf("method+methods together: status %d, want 400", code)
	}
}

// TestOversizedDefinitionRejected drives the admission control through
// both build and compare.
func TestOversizedDefinitionRejected(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{MaxCartesian: 10})
	for _, path := range []string{"/v1/spaces", "/v1/compare"} {
		if code := post(t, ts.URL+path, buildBody("huge", ""), nil); code != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422 for cartesian 24 > limit 10", path, code)
		}
	}
}

// TestCompareSkipsInadmissibleMethods: an exhaustive method over its
// budget gets an error row while admissible methods still race.
func TestCompareSkipsInadmissibleMethods(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{MaxExhaustiveCartesian: 10})
	var cmp CompareResponse
	body := fmt.Sprintf(`{"problem": %s, "methods": ["optimized", "brute-force"]}`, smallDoc("mixed"))
	if code := post(t, ts.URL+"/v1/compare", body, &cmp); code != http.StatusOK {
		t.Fatalf("compare: status %d", code)
	}
	if len(cmp.Results) != 2 {
		t.Fatalf("results: %+v", cmp)
	}
	if cmp.Results[0].Method != "optimized" || cmp.Results[0].Error != "" || cmp.Results[0].Valid != 21 {
		t.Errorf("optimized should have raced: %+v", cmp.Results[0])
	}
	if cmp.Results[1].Method != "brute-force" || !strings.Contains(cmp.Results[1].Error, "max-exhaustive-cartesian") {
		t.Errorf("brute-force should carry an admission error: %+v", cmp.Results[1])
	}
}

// TestRenamedDefinitionSharesBuild: the content address ignores the
// display name, so a renamed resubmission is a cache hit that echoes
// the new name.
func TestRenamedDefinitionSharesBuild(t *testing.T) {
	srv, ts := newTestServer(t, RegistryConfig{})
	var a, b BuildResponse
	post(t, ts.URL+"/v1/spaces", buildBody("first-name", ""), &a)
	post(t, ts.URL+"/v1/spaces", buildBody("second-name", ""), &b)
	if a.ID != b.ID || !b.Cached {
		t.Errorf("renamed resubmission should hit: %+v vs %+v", a, b)
	}
	if a.Name != "first-name" || b.Name != "second-name" {
		t.Errorf("responses should echo the submitted names: %q, %q", a.Name, b.Name)
	}
	if st := srv.Registry().Stats(); st.Builds != 1 {
		t.Errorf("builds: got %d want 1", st.Builds)
	}
}

// TestBuildRejectsMethodsField: the plural "methods" is the compare
// shape; /v1/spaces must not silently substitute the default method.
func TestBuildRejectsMethodsField(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{})
	body := fmt.Sprintf(`{"problem": %s, "methods": ["brute-force"]}`, smallDoc("plural"))
	if code := post(t, ts.URL+"/v1/spaces", body, nil); code != http.StatusBadRequest {
		t.Errorf("methods on build endpoint: status %d, want 400", code)
	}
}

// TestCompareNothingRanCannotAgree: all methods inadmissible must not
// report agreement.
func TestCompareNothingRanCannotAgree(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{MaxExhaustiveCartesian: 10})
	var cmp CompareResponse
	body := fmt.Sprintf(`{"problem": %s, "methods": ["brute-force", "original"]}`, smallDoc("void"))
	if code := post(t, ts.URL+"/v1/compare", body, &cmp); code != http.StatusOK {
		t.Fatalf("compare: status %d", code)
	}
	if cmp.Agree {
		t.Errorf("a race in which nothing ran must not agree: %+v", cmp)
	}
	for _, res := range cmp.Results {
		if res.Error == "" {
			t.Errorf("expected admission error for %s", res.Method)
		}
	}
}

// TestLHSSampleCap: lhs has a tighter k bound than uniform/stratified.
func TestLHSSampleCap(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{})
	var built BuildResponse
	post(t, ts.URL+"/v1/spaces", buildBody("lhscap", ""), &built)
	if code := post(t, ts.URL+"/v1/spaces/"+built.ID+"/sample",
		fmt.Sprintf(`{"k": %d, "strategy": "lhs", "seed": 1}`, maxLHSK+1), nil); code != http.StatusBadRequest {
		t.Errorf("lhs over cap: status %d, want 400", code)
	}
	var ok SampleResponse
	if code := post(t, ts.URL+"/v1/spaces/"+built.ID+"/sample",
		fmt.Sprintf(`{"k": %d, "strategy": "uniform", "seed": 1}`, maxLHSK+1), &ok); code != http.StatusOK {
		t.Errorf("uniform with the same k should pass: status %d", code)
	}
}

// TestCompareDedupsMethods: a repeated method races once.
func TestCompareDedupsMethods(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{})
	var cmp CompareResponse
	body := fmt.Sprintf(`{"problem": %s, "methods": ["optimized", "optimized", "optimized"]}`, smallDoc("dup"))
	if code := post(t, ts.URL+"/v1/compare", body, &cmp); code != http.StatusOK {
		t.Fatalf("compare: status %d", code)
	}
	if len(cmp.Results) != 1 {
		t.Errorf("duplicated methods should collapse to one race: %+v", cmp.Results)
	}
}

// TestDescribeStringParams: non-numeric parameters carry +/-Inf bound
// sentinels internally, which JSON cannot encode — describe must still
// serve a full body.
func TestDescribeStringParams(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{})
	doc := `{"problem": {
		"name": "strs",
		"params": [
			{"name": "layout", "values": ["row", "col"]},
			{"name": "n", "values": [1, 2]}
		]
	}}`
	var built BuildResponse
	if code := post(t, ts.URL+"/v1/spaces", doc, &built); code != http.StatusOK {
		t.Fatalf("build: status %d", code)
	}
	var desc DescribeResponse
	if code := get(t, ts.URL+"/v1/spaces/"+built.ID, &desc); code != http.StatusOK {
		t.Fatalf("describe: status %d", code)
	}
	if len(desc.Bounds) != 2 {
		t.Fatalf("bounds: %+v", desc)
	}
	if b := desc.Bounds[0]; b.Numeric || b.Min != 0 || b.Max != 0 || b.DistinctValues != 2 {
		t.Errorf("string param bounds: %+v", b)
	}
	if b := desc.Bounds[1]; !b.Numeric || b.Min != 1 || b.Max != 2 {
		t.Errorf("numeric param bounds: %+v", b)
	}
}
