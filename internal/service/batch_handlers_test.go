package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
)

// buildSmall builds the 21-row test space and returns its id plus the
// resolved entry for oracle access.
func buildSmall(t *testing.T, srv *Server, ts string) (string, *Entry) {
	t.Helper()
	var built BuildResponse
	if code := post(t, ts+"/v1/spaces", buildBody("batch", ""), &built); code != http.StatusOK {
		t.Fatalf("build: status %d", code)
	}
	entry, ok := srv.Registry().Lookup(built.ID)
	if !ok {
		t.Fatalf("built space %s not resident", built.ID)
	}
	return built.ID, entry
}

// TestTrailingGarbageRejectedOnEveryPOSTRoute pins the readJSON fix: a
// request body holding two JSON documents (or a document plus stray
// bytes) is a 400 on every POST route. Decoder.More missed both shapes
// when the second document followed immediately or the trailing byte
// made its peek error out.
func TestTrailingGarbageRejectedOnEveryPOSTRoute(t *testing.T) {
	srv, ts := newTestServer(t, RegistryConfig{})
	id, _ := buildSmall(t, srv, ts.URL)

	var sess struct {
		Session string `json:"session"`
	}
	if code := post(t, ts.URL+"/v1/spaces/"+id+"/sessions", `{"seed":1,"budget":{"max_evals":8}}`, &sess); code != http.StatusOK {
		t.Fatalf("session create: status %d", code)
	}
	sid := sess.Session

	routes := []string{
		"/v1/spaces",
		"/v1/compare",
		"/v1/spaces/" + id + "/contains",
		"/v1/spaces/" + id + "/sample",
		"/v1/spaces/" + id + "/neighbors",
		"/v1/spaces/" + id + "/batch/contains",
		"/v1/spaces/" + id + "/batch/lookup",
		"/v1/spaces/" + id + "/batch/neighbors",
		"/v1/spaces/" + id + "/batch/sample",
		"/v1/spaces/" + id + "/sessions",
		"/v1/spaces/" + id + "/sessions/" + sid + "/ask",
		"/v1/spaces/" + id + "/sessions/" + sid + "/tell",
	}
	for _, route := range routes {
		for _, body := range []string{
			`{"k":1}{"k":999}`, // second document
			`{"k":1}]`,         // trailing byte that errors Decoder.More's peek
			`{"k":1} garbage`,  // non-JSON tail
		} {
			var apiErr apiError
			if code := post(t, ts.URL+route, body, &apiErr); code != http.StatusBadRequest {
				t.Errorf("POST %s with body %q: status %d, want 400 (error %q)", route, body, code, apiErr.Error)
			}
		}
	}
}

// TestContainsMixedFormRejected pins the contract choice for the old
// silent-prepend bug: config and configs together are a 400, each form
// alone still answers by input position.
func TestContainsMixedFormRejected(t *testing.T) {
	srv, ts := newTestServer(t, RegistryConfig{})
	id, _ := buildSmall(t, srv, ts.URL)
	url := ts.URL + "/v1/spaces/" + id + "/contains"

	var apiErr apiError
	mixed := `{"config": {"block_size_x": 8, "block_size_y": 8},
	           "configs": [{"block_size_x": 1, "block_size_y": 1}]}`
	if code := post(t, url, mixed, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("mixed form: status %d, want 400", code)
	}

	var single ContainsResponse
	if code := post(t, url, `{"config": {"block_size_x": 8, "block_size_y": 8}}`, &single); code != http.StatusOK {
		t.Fatalf("config form: status %d", code)
	}
	if len(single.Results) != 1 || !single.Results[0].Contains {
		t.Fatalf("config form: %+v", single)
	}

	var many ContainsResponse
	body := `{"configs": [{"block_size_x": 8, "block_size_y": 8}, {"block_size_x": 32, "block_size_y": 8}]}`
	if code := post(t, url, body, &many); code != http.StatusOK {
		t.Fatalf("configs form: status %d", code)
	}
	if len(many.Results) != 2 || !many.Results[0].Contains || many.Results[1].Contains {
		t.Fatalf("configs form answers out of position: %+v", many)
	}
}

// TestSampleRowsOnly pins the oversized-sample fix: k beyond the config
// materialization cap needs rows_only and the error routes the client
// to the paging plane; rows_only responses omit configs entirely.
func TestSampleRowsOnly(t *testing.T) {
	srv, ts := newTestServer(t, RegistryConfig{})
	id, _ := buildSmall(t, srv, ts.URL)
	url := ts.URL + "/v1/spaces/" + id + "/sample"

	var apiErr apiError
	big := fmt.Sprintf(`{"k": %d, "seed": 1}`, maxSampleConfigsK+1)
	if code := post(t, url, big, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("oversized k without rows_only: status %d, want 400", code)
	}

	var rowsOnly SampleResponse
	bigRowsOnly := fmt.Sprintf(`{"k": %d, "seed": 1, "rows_only": true}`, maxSampleConfigsK+1)
	if code := post(t, url, bigRowsOnly, &rowsOnly); code != http.StatusOK {
		t.Fatalf("oversized k with rows_only: status %d", code)
	}
	if len(rowsOnly.Rows) != 21 || rowsOnly.Configs != nil {
		t.Fatalf("rows_only response: %d rows, configs %v", len(rowsOnly.Rows), rowsOnly.Configs)
	}

	// The two forms draw the same rows for the same seed.
	var full SampleResponse
	if code := post(t, url, `{"k": 5, "seed": 9}`, &full); code != http.StatusOK {
		t.Fatalf("sample: status %d", code)
	}
	var lean SampleResponse
	post(t, url, `{"k": 5, "seed": 9, "rows_only": true}`, &lean)
	if !reflect.DeepEqual(full.Rows, lean.Rows) {
		t.Fatalf("rows_only changed the draw: %v vs %v", full.Rows, lean.Rows)
	}
	if len(full.Configs) != 5 || lean.Configs != nil {
		t.Fatalf("configs presence: full %d, lean %v", len(full.Configs), lean.Configs)
	}
}

// columnarize renders rows of the entry's space as the batch/contains
// wire columns for the given parameter order.
func columnarize(entry *Entry, params []string, rows [][]any) string {
	cols := make([][]any, len(params))
	names := entry.Space.Names()
	for wi, name := range params {
		p := -1
		for i, n := range names {
			if n == name {
				p = i
			}
		}
		col := make([]any, len(rows))
		for i, row := range rows {
			col[i] = row[p]
		}
		cols[wi] = col
	}
	doc := map[string]any{"params": params, "values": cols}
	raw, _ := json.Marshal(doc)
	return string(raw)
}

func TestBatchContainsParity(t *testing.T) {
	srv, ts := newTestServer(t, RegistryConfig{})
	id, entry := buildSmall(t, srv, ts.URL)

	// Every valid row, two invalid combinations, one out-of-domain value.
	var queries [][]any
	for r := 0; r < entry.Space.Size(); r++ {
		queries = append(queries, entry.Space.GetValues(r))
	}
	queries = append(queries,
		[]any{int64(32), int64(4)}, // 128 > 64: invalid combination
		[]any{int64(16), int64(8)}, // 128 > 64: invalid combination
		[]any{int64(3), int64(1)},  // 3 not in block_size_x's domain
	)

	var batch BatchRowsResponse
	body := columnarize(entry, entry.Space.Names(), queries)
	if code := post(t, ts.URL+"/v1/spaces/"+id+"/batch/contains", body, &batch); code != http.StatusOK {
		t.Fatalf("batch contains: status %d", code)
	}
	if batch.Count != len(queries) || len(batch.Rows) != len(queries) {
		t.Fatalf("batch shape: %+v", batch)
	}
	if batch.Found != entry.Space.Size() {
		t.Fatalf("found = %d, want %d", batch.Found, entry.Space.Size())
	}

	// Per-request parity: each batch row must equal the per-request
	// contains verdict for the same configuration.
	names := entry.Space.Names()
	for i, q := range queries {
		cfg := map[string]any{}
		for p, name := range names {
			cfg[name] = q[p]
		}
		raw, _ := json.Marshal(map[string]any{"config": cfg})
		var single ContainsResponse
		if code := post(t, ts.URL+"/v1/spaces/"+id+"/contains", string(raw), &single); code != http.StatusOK {
			t.Fatalf("contains %d: status %d", i, code)
		}
		res := single.Results[0]
		if res.Contains != (batch.Rows[i] >= 0) {
			t.Fatalf("query %d: batch row %d vs per-request contains %v", i, batch.Rows[i], res.Contains)
		}
		if res.Contains && *res.Index != batch.Rows[i] {
			t.Fatalf("query %d: batch row %d vs per-request index %d", i, batch.Rows[i], *res.Index)
		}
	}

	// Columns may arrive in any parameter order.
	reversed := []string{names[1], names[0]}
	var permuted BatchRowsResponse
	post(t, ts.URL+"/v1/spaces/"+id+"/batch/contains", columnarize(entry, reversed, queries), &permuted)
	if !reflect.DeepEqual(permuted.Rows, batch.Rows) {
		t.Fatalf("parameter order changed answers: %v vs %v", permuted.Rows, batch.Rows)
	}

	// Malformed shapes are 400s: unknown param, missing param, ragged
	// columns, empty batch.
	for _, body := range []string{
		`{"params": ["block_size_x", "nope"], "values": [[1], [1]]}`,
		`{"params": ["block_size_x"], "values": [[1]]}`,
		`{"params": ["block_size_x", "block_size_y"], "values": [[1, 2], [1]]}`,
		`{"params": ["block_size_x", "block_size_y"], "values": [[], []]}`,
	} {
		if code := post(t, ts.URL+"/v1/spaces/"+id+"/batch/contains", body, nil); code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, code)
		}
	}
}

func TestBatchLookupParity(t *testing.T) {
	srv, ts := newTestServer(t, RegistryConfig{})
	id, entry := buildSmall(t, srv, ts.URL)

	n := entry.Space.Size()
	nParams := entry.Space.NumParams()
	// Columnar genotypes: every valid row plus two misses.
	cols := make([][]int32, nParams)
	for r := 0; r < n; r++ {
		g := entry.Space.Indices(r)
		for p := 0; p < nParams; p++ {
			cols[p] = append(cols[p], g[p])
		}
	}
	cols[0] = append(cols[0], 5, 99) // (32,8): invalid combo; 99: out of range
	cols[1] = append(cols[1], 3, 0)

	raw, _ := json.Marshal(map[string]any{"indices": cols})
	var batch BatchRowsResponse
	if code := post(t, ts.URL+"/v1/spaces/"+id+"/batch/lookup", string(raw), &batch); code != http.StatusOK {
		t.Fatalf("batch lookup: status %d", code)
	}
	if batch.Count != n+2 || batch.Found != n {
		t.Fatalf("batch lookup shape: %+v", batch)
	}
	for r := 0; r < n; r++ {
		if batch.Rows[r] != r {
			t.Fatalf("row %d resolved to %d", r, batch.Rows[r])
		}
	}
	if batch.Rows[n] != -1 || batch.Rows[n+1] != -1 {
		t.Fatalf("invalid genotypes resolved: %v", batch.Rows[n:])
	}

	// Wrong column count is a 400.
	if code := post(t, ts.URL+"/v1/spaces/"+id+"/batch/lookup", `{"indices": [[0]]}`, nil); code != http.StatusBadRequest {
		t.Fatalf("wrong column count: status %d, want 400", code)
	}
}

func TestBatchNeighborsParity(t *testing.T) {
	srv, ts := newTestServer(t, RegistryConfig{})
	id, entry := buildSmall(t, srv, ts.URL)

	rows := make([]int, entry.Space.Size())
	for i := range rows {
		rows[i] = i
	}
	// An omitted kind means hamming on both planes.
	for _, kind := range []string{"hamming", "adjacent", ""} {
		want := kind
		if want == "" {
			want = "hamming"
		}
		raw, _ := json.Marshal(map[string]any{"rows": rows, "kind": kind})
		var batch BatchNeighborsResponse
		if code := post(t, ts.URL+"/v1/spaces/"+id+"/batch/neighbors", string(raw), &batch); code != http.StatusOK {
			t.Fatalf("batch neighbors %q: status %d", kind, code)
		}
		if batch.Kind != want || batch.Count != len(rows) {
			t.Fatalf("batch neighbors shape: %+v", batch)
		}
		for _, row := range rows {
			var single NeighborsResponse
			body := fmt.Sprintf(`{"row": %d, "kind": %q}`, row, kind)
			post(t, ts.URL+"/v1/spaces/"+id+"/neighbors", body, &single)
			if single.Kind != want || !reflect.DeepEqual(single.Rows, batch.Neighbors[row]) {
				t.Fatalf("%q neighbors of %d: batch %v vs per-request %s %v", kind, row, batch.Neighbors[row], single.Kind, single.Rows)
			}
		}
	}

	// An unknown kind is the same 400 with the same text on both planes.
	assertSameError(t,
		ts.URL+"/v1/spaces/"+id+"/neighbors", `{"row": 0, "kind": "diagonal"}`,
		ts.URL+"/v1/spaces/"+id+"/batch/neighbors", `{"rows": [0], "kind": "diagonal"}`)

	// Out-of-range rows poison the whole batch with a 400 naming the slot.
	if code := post(t, ts.URL+"/v1/spaces/"+id+"/batch/neighbors", `{"rows": [0, 99]}`, nil); code != http.StatusBadRequest {
		t.Fatalf("out-of-range row: status %d, want 400", code)
	}
}

func TestBatchSampleParity(t *testing.T) {
	srv, ts := newTestServer(t, RegistryConfig{})
	id, _ := buildSmall(t, srv, ts.URL)

	seeds := []int64{1, 7, 42}
	var batch BatchSampleResponse
	if code := post(t, ts.URL+"/v1/spaces/"+id+"/batch/sample", `{"k": 6, "seeds": [1, 7, 42]}`, &batch); code != http.StatusOK {
		t.Fatalf("batch sample: status %d", code)
	}
	if batch.Count != 3 || batch.K != 6 || batch.Strategy != "uniform" {
		t.Fatalf("batch sample shape: %+v", batch)
	}
	for i, seed := range seeds {
		var single SampleResponse
		body := fmt.Sprintf(`{"k": 6, "seed": %d}`, seed)
		post(t, ts.URL+"/v1/spaces/"+id+"/sample", body, &single)
		if !reflect.DeepEqual(single.Rows, batch.Rows[i]) {
			t.Fatalf("seed %d: batch %v vs per-request %v", seed, batch.Rows[i], single.Rows)
		}
	}

	// Every strategy draws alike on both planes, rows_only or not.
	for _, strategy := range []string{"uniform", "stratified", "lhs"} {
		var batch BatchSampleResponse
		body := fmt.Sprintf(`{"k": 5, "seeds": [3, 9], "strategy": %q}`, strategy)
		if code := post(t, ts.URL+"/v1/spaces/"+id+"/batch/sample", body, &batch); code != http.StatusOK {
			t.Fatalf("batch sample %s: status %d", strategy, code)
		}
		for i, seed := range []int64{3, 9} {
			var single SampleResponse
			body := fmt.Sprintf(`{"k": 5, "seed": %d, "strategy": %q, "rows_only": true}`, seed, strategy)
			post(t, ts.URL+"/v1/spaces/"+id+"/sample", body, &single)
			if single.Strategy != strategy || batch.Strategy != strategy || !reflect.DeepEqual(single.Rows, batch.Rows[i]) {
				t.Fatalf("%s seed %d: batch %s %v vs per-request %s %v", strategy, seed, batch.Strategy, batch.Rows[i], single.Strategy, single.Rows)
			}
		}
	}

	// Unknown strategies and oversized lhs draws are the same 400 with
	// the same text on both planes.
	assertSameError(t,
		ts.URL+"/v1/spaces/"+id+"/sample", `{"k": 2, "seed": 1, "strategy": "sobol"}`,
		ts.URL+"/v1/spaces/"+id+"/batch/sample", `{"k": 2, "seeds": [1], "strategy": "sobol"}`)
	assertSameError(t,
		ts.URL+"/v1/spaces/"+id+"/sample", fmt.Sprintf(`{"k": %d, "seed": 1, "strategy": "lhs"}`, maxLHSK+1),
		ts.URL+"/v1/spaces/"+id+"/batch/sample", fmt.Sprintf(`{"k": %d, "seeds": [1], "strategy": "lhs"}`, maxLHSK+1))

	// Total-draw and lhs caps.
	tooMany := fmt.Sprintf(`{"k": %d, "seeds": [1, 2, 3]}`, maxSampleK/2)
	if code := post(t, ts.URL+"/v1/spaces/"+id+"/batch/sample", tooMany, nil); code != http.StatusBadRequest {
		t.Fatalf("over-budget batch sample: status %d, want 400", code)
	}
	lhsBig := fmt.Sprintf(`{"k": %d, "seeds": [1], "strategy": "lhs"}`, maxLHSK+1)
	if code := post(t, ts.URL+"/v1/spaces/"+id+"/batch/sample", lhsBig, nil); code != http.StatusBadRequest {
		t.Fatalf("lhs over-limit: status %d, want 400", code)
	}
}

// assertSameError posts one bad request to each plane and requires the
// same 400 with the same error text from both.
func assertSameError(t *testing.T, url1, body1, url2, body2 string) {
	t.Helper()
	var e1, e2 apiError
	c1, c2 := post(t, url1, body1, &e1), post(t, url2, body2, &e2)
	if c1 != http.StatusBadRequest || c2 != http.StatusBadRequest || e1.Error == "" || e1 != e2 {
		t.Fatalf("planes disagree: %d %q vs %d %q", c1, e1.Error, c2, e2.Error)
	}
}

// RowsPage mirrors the GET .../rows response shape.
type RowsPage struct {
	Offset     int             `json:"offset"`
	Limit      int             `json:"limit"`
	Total      int             `json:"total"`
	Count      int             `json:"count"`
	Repr       string          `json:"repr"`
	NextOffset *int            `json:"next_offset"`
	Params     []string        `json:"params"`
	Columns    [][]json.Number `json:"columns"`
}

func TestRowsPagingContract(t *testing.T) {
	srv, ts := newTestServer(t, RegistryConfig{})
	id, entry := buildSmall(t, srv, ts.URL)
	base := ts.URL + "/v1/spaces/" + id + "/rows"
	total := entry.Space.Size()

	// Walk the space in pages of 8 and reassemble the enumeration.
	var gotCols [][]json.Number
	offset, pages := 0, 0
	for {
		var page RowsPage
		if code := get(t, fmt.Sprintf("%s?offset=%d&limit=8", base, offset), &page); code != http.StatusOK {
			t.Fatalf("page at %d: status %d", offset, code)
		}
		if page.Total != total || page.Offset != offset || page.Repr != "values" {
			t.Fatalf("page header: %+v", page)
		}
		if !reflect.DeepEqual(page.Params, entry.Space.Names()) {
			t.Fatalf("params: %v", page.Params)
		}
		if gotCols == nil {
			gotCols = make([][]json.Number, len(page.Columns))
		}
		for p := range page.Columns {
			if len(page.Columns[p]) != page.Count {
				t.Fatalf("column %d has %d cells, count says %d", p, len(page.Columns[p]), page.Count)
			}
			gotCols[p] = append(gotCols[p], page.Columns[p]...)
		}
		pages++
		if page.NextOffset == nil {
			if page.Offset+page.Count != total {
				t.Fatalf("last page ends at %d of %d", page.Offset+page.Count, total)
			}
			break
		}
		if *page.NextOffset != offset+page.Count {
			t.Fatalf("next_offset %d, want %d", *page.NextOffset, offset+page.Count)
		}
		offset = *page.NextOffset
	}
	if pages != (total+7)/8 {
		t.Fatalf("walked %d pages for %d rows of 8", pages, total)
	}
	// The reassembled columns are the kernel's enumeration, in order.
	for p := range gotCols {
		for r := 0; r < total; r++ {
			want := fmt.Sprintf("%v", entry.Space.GetValues(r)[p])
			if string(gotCols[p][r]) != want {
				t.Fatalf("cell (%d,%d) = %s, want %s", p, r, gotCols[p][r], want)
			}
		}
	}

	// repr=indices returns the raw kernel columns.
	var idxPage RowsPage
	if code := get(t, base+"?limit=65536&repr=indices", &idxPage); code != http.StatusOK {
		t.Fatalf("indices page: status %d", code)
	}
	cols := entry.Space.Columns()
	for p := range cols {
		for r := 0; r < total; r++ {
			if string(idxPage.Columns[p][r]) != fmt.Sprintf("%d", cols[p][r]) {
				t.Fatalf("index cell (%d,%d) = %s, want %d", p, r, idxPage.Columns[p][r], cols[p][r])
			}
		}
	}

	// Past-the-end offsets answer an empty page with no next_offset.
	var empty RowsPage
	if code := get(t, fmt.Sprintf("%s?offset=%d", base, total+5), &empty); code != http.StatusOK {
		t.Fatalf("past-the-end page: status %d", code)
	}
	if empty.Count != 0 || empty.NextOffset != nil {
		t.Fatalf("past-the-end page: %+v", empty)
	}

	// The per-page cap is hard, and malformed paging params are 400s.
	for _, q := range []string{"?limit=65537", "?limit=0", "?limit=-1", "?offset=-1", "?offset=x", "?repr=rows"} {
		if code := get(t, base+q, nil); code != http.StatusBadRequest {
			t.Errorf("GET rows%s: status %d, want 400", q, code)
		}
	}
}

// TestBatchQueriesDuringDemotion drives the batch plane while the space
// is repeatedly demoted to disk by competing builds: every batch query
// must transparently restore the space and answer correctly — never a
// 404 or 500. Run under -race this also exercises concurrent restore
// against the lazily built row index.
func TestBatchQueriesDuringDemotion(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, RegistryConfig{MaxEntries: 1, Store: openTestStore(t, dir)})
	id, entry := buildSmall(t, srv, ts.URL)

	genotype := entry.Space.Indices(0)
	lookupBody, _ := json.Marshal(map[string]any{
		"indices": [][]int32{{genotype[0]}, {genotype[1]}},
	})
	containsBody := columnarize(entry, entry.Space.Names(), [][]any{entry.Space.GetValues(0)})

	var wg sync.WaitGroup
	const queriers = 4
	stop := make(chan struct{})
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var rows BatchRowsResponse
				var code int
				if i%2 == 0 {
					code = post(t, ts.URL+"/v1/spaces/"+id+"/batch/lookup", string(lookupBody), &rows)
				} else {
					code = post(t, ts.URL+"/v1/spaces/"+id+"/batch/contains", containsBody, &rows)
				}
				if code != http.StatusOK {
					t.Errorf("batch query during demotion: status %d", code)
					return
				}
				if len(rows.Rows) != 1 || rows.Rows[0] != 0 {
					t.Errorf("batch query during demotion answered %+v", rows)
					return
				}
				var page RowsPage
				if code := get(t, ts.URL+"/v1/spaces/"+id+"/rows?limit=8", &page); code != http.StatusOK {
					t.Errorf("rows page during demotion: status %d", code)
					return
				}
			}
		}()
	}

	// Each build of a different definition evicts the LRU entry; with
	// MaxEntries=1 every one demotes the queried space (or a competitor)
	// to its snapshot, forcing the queriers through the restore path.
	for v := 0; v < 6; v++ {
		body := fmt.Sprintf(`{"problem": %s}`, smallDoc(fmt.Sprintf("evict-%d", v)))
		body = fmt.Sprintf(`{"problem": {
			"name": "evict-%d",
			"params": [
				{"name": "block_size_x", "values": [1, 2, 4, 8, 16, 32]},
				{"name": "block_size_y", "values": [1, 2, 4, 8]},
				{"name": "tag", "values": [%d]}
			],
			"constraints": ["block_size_x * block_size_y <= 64"]
		}}`, v, v)
		if code := post(t, ts.URL+"/v1/spaces", body, nil); code != http.StatusOK {
			t.Fatalf("evicting build %d: status %d", v, code)
		}
	}
	close(stop)
	wg.Wait()

	if st := srv.Registry().Stats(); st.Restores == 0 {
		t.Error("no restores happened: the test never exercised the demotion path")
	}
}
