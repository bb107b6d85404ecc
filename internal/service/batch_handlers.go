package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"searchspace/internal/obs"
)

// The batch query plane: columnar request bodies resolved in one
// decode, one tight loop over the zero-alloc lookup kernel, and one
// encode. A GA evaluating a 10k population pays ~10 HTTP round trips
// instead of 10k, so the per-request JSON tax stops drowning the
// O(log n) membership path the resolved representation exists to provide.
//
// All batch requests and responses are columnar or index-based — no
// per-configuration ConfigDoc maps. Clients that need full value maps
// resolve rows through GET /v1/spaces/{id}/rows paging.

// maxBatchQueries bounds one batch request's query count; bigger
// populations split into several requests.
const maxBatchQueries = 65536

// maxBatchNeighborRows bounds batch neighbor expansion tighter: every
// input row can fan out to hundreds of neighbor rows, so the response
// grows multiplicatively where contains/lookup answers stay one int
// per query.
const maxBatchNeighborRows = 4096

// maxRowsPageLimit is the hard per-page cap of GET /v1/spaces/{id}/rows;
// requests above it are 400s, not clamps, so clients learn the paging
// contract instead of silently receiving short pages.
const maxRowsPageLimit = 65536

// defaultRowsPageLimit is the page size when the client omits limit.
const defaultRowsPageLimit = 4096

// readBatchJSON is the batch plane's readJSON: same size and
// trailing-garbage rules, but the decode lands in the trace as a
// "batch_decode" span and feeds the batch_decode phase histogram.
func (s *Server) readBatchJSON(w http.ResponseWriter, r *http.Request, v any) error {
	start := time.Now()
	defer func() { s.metrics.ObserveBuildPhase("batch_decode", time.Since(start)) }()
	return readJSONSpan(w, r, v, "batch_decode")
}

// writeBatchJSON mirrors writeJSON with a "batch_encode" span and the
// batch_encode phase histogram.
func (s *Server) writeBatchJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	start := time.Now()
	defer func() { s.metrics.ObserveBuildPhase("batch_encode", time.Since(start)) }()
	writeJSONSpan(w, r, status, v, "batch_encode")
}

// BatchContainsRequest asks for membership of many configurations in
// columnar form: values[p] is the column for params[p], so query i is
// (values[0][i], values[1][i], ...). Params must name every parameter
// of the space exactly once, in any order.
type BatchContainsRequest struct {
	Params []string     `json:"params"`
	Values [][]ValueDoc `json:"values"`
}

// BatchRowsResponse answers batch/contains and batch/lookup: one row
// per query in input order, -1 for combinations that are not valid
// configurations. Found counts the non-negative rows.
type BatchRowsResponse struct {
	Count int   `json:"count"`
	Found int   `json:"found"`
	Rows  []int `json:"rows"`
}

// batchColumns validates the columnar shape shared by contains and
// lookup requests: nCols columns, equal length, at most maxBatchQueries
// queries. It returns the query count and writes the 400 itself on
// failure.
func batchColumns[T any](w http.ResponseWriter, r *http.Request, cols [][]T, nCols int, what string) (int, bool) {
	if len(cols) != nCols {
		writeError(w, r, http.StatusBadRequest, "%q needs one column per parameter: got %d columns, space has %d parameters", what, len(cols), nCols)
		return 0, false
	}
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	}
	for p := range cols {
		if len(cols[p]) != n {
			writeError(w, r, http.StatusBadRequest, "%q columns are ragged: column %d has %d entries, column 0 has %d", what, p, len(cols[p]), n)
			return 0, false
		}
	}
	if n == 0 {
		writeError(w, r, http.StatusBadRequest, "%q has no queries", what)
		return 0, false
	}
	if n > maxBatchQueries {
		writeError(w, r, http.StatusBadRequest, "batch of %d queries exceeds the per-request limit %d; split into multiple requests", n, maxBatchQueries)
		return 0, false
	}
	return n, true
}

func (s *Server) handleBatchContains(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req BatchContainsRequest
	if err := s.readBatchJSON(w, r, &req); err != nil {
		writeBodyError(w, r, err)
		return
	}
	params := entry.Space.Definition().Params
	if len(req.Params) != len(params) {
		writeError(w, r, http.StatusBadRequest, "\"params\" must name all %d parameters of the space, got %d", len(params), len(req.Params))
		return
	}
	n, ok := batchColumns(w, r, req.Values, len(params), "values")
	if !ok {
		return
	}
	// Wire columns may arrive in any order; colOf[p] is the wire column
	// holding declaration-order parameter p.
	colOf := make([]int, len(params))
	seen := make(map[string]bool, len(params))
	for wi, name := range req.Params {
		found := false
		for p := range params {
			if params[p].Name == name {
				if seen[name] {
					writeError(w, r, http.StatusBadRequest, "duplicate parameter %q in \"params\"", name)
					return
				}
				seen[name] = true
				colOf[p] = wi
				found = true
				break
			}
		}
		if !found {
			writeError(w, r, http.StatusBadRequest, "unknown parameter %q in \"params\"", name)
			return
		}
	}
	// Resolve values to domain indices through per-parameter key maps
	// built once for the batch: one probe per cell, no domain scans.
	domIdx := make([]map[string]int32, len(params))
	for p := range params {
		m := make(map[string]int32, len(params[p].Values))
		for k, v := range params[p].Values {
			m[v.Key()] = int32(k)
		}
		domIdx[p] = m
	}
	flat := make([]int32, n*len(params))
	batch := make([][]int32, n)
	for i := range batch {
		batch[i] = flat[i*len(params) : (i+1)*len(params)]
	}
	// An out-of-domain value means "not contained", never an error —
	// the same verdict the per-request contains endpoint gives. The
	// genotype is poisoned with -1 so the row probe cannot alias a
	// real configuration.
	for p := range params {
		col := req.Values[colOf[p]]
		for i := 0; i < n; i++ {
			di, found := domIdx[p][col[i].V.Key()]
			if !found {
				di = -1
			}
			batch[i][p] = di
		}
	}
	rows := entry.Space.LookupRows(batch)
	found := 0
	for _, row := range rows {
		if row >= 0 {
			found++
		}
	}
	s.reg.NoteRows(entry.ID, int64(n))
	s.writeBatchJSON(w, r, http.StatusOK, BatchRowsResponse{Count: n, Found: found, Rows: rows})
}

// BatchLookupRequest asks for the rows of many genotypes in columnar
// form: indices[p][i] is query i's domain index for parameter p, in
// declaration order — the vectors Indices returns and crossover
// recombines.
type BatchLookupRequest struct {
	Indices [][]int32 `json:"indices"`
}

func (s *Server) handleBatchLookup(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req BatchLookupRequest
	if err := s.readBatchJSON(w, r, &req); err != nil {
		writeBodyError(w, r, err)
		return
	}
	nParams := entry.Space.NumParams()
	n, ok := batchColumns(w, r, req.Indices, nParams, "indices")
	if !ok {
		return
	}
	flat := make([]int32, n*nParams)
	batch := make([][]int32, n)
	for i := range batch {
		batch[i] = flat[i*nParams : (i+1)*nParams]
	}
	for p := 0; p < nParams; p++ {
		col := req.Indices[p]
		for i := 0; i < n; i++ {
			batch[i][p] = col[i]
		}
	}
	rows := entry.Space.LookupRows(batch)
	found := 0
	for _, row := range rows {
		if row >= 0 {
			found++
		}
	}
	s.reg.NoteRows(entry.ID, int64(n))
	s.writeBatchJSON(w, r, http.StatusOK, BatchRowsResponse{Count: n, Found: found, Rows: rows})
}

// BatchNeighborsRequest asks for the neighbors of many rows at once.
type BatchNeighborsRequest struct {
	Rows []int  `json:"rows"`
	Kind string `json:"kind,omitempty"` // hamming (default) | adjacent
}

// BatchNeighborsResponse answers POST .../batch/neighbors: neighbors[i]
// holds the neighbor rows of input row i, exactly what the per-request
// endpoint reports as "rows" for that row.
type BatchNeighborsResponse struct {
	Kind      string  `json:"kind"`
	Count     int     `json:"count"`
	Neighbors [][]int `json:"neighbors"`
}

func (s *Server) handleBatchNeighbors(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req BatchNeighborsRequest
	if err := s.readBatchJSON(w, r, &req); err != nil {
		writeBodyError(w, r, err)
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, r, http.StatusBadRequest, "\"rows\" has no queries")
		return
	}
	if len(req.Rows) > maxBatchNeighborRows {
		writeError(w, r, http.StatusBadRequest, "batch of %d rows exceeds the neighbors limit %d (each row fans out); split into multiple requests", len(req.Rows), maxBatchNeighborRows)
		return
	}
	kind, neighbors, err := neighborFunc(entry.Space, req.Kind)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%s", err)
		return
	}
	size := entry.Space.Size()
	for i, row := range req.Rows {
		if row < 0 || row >= size {
			writeError(w, r, http.StatusBadRequest, "rows[%d]=%d out of range [0,%d)", i, row, size)
			return
		}
	}
	resp := BatchNeighborsResponse{Kind: kind, Count: len(req.Rows), Neighbors: make([][]int, len(req.Rows))}
	for i, row := range req.Rows {
		resp.Neighbors[i] = neighbors(row)
	}
	s.reg.NoteRows(entry.ID, int64(len(req.Rows)))
	s.writeBatchJSON(w, r, http.StatusOK, resp)
}

// BatchSampleRequest draws k rows per seed: one decode amortizes a
// whole family of reproducible draws (a population per restart, say).
// Rows only by design — resolve configurations via rows paging.
type BatchSampleRequest struct {
	K        int     `json:"k"`
	Seeds    []int64 `json:"seeds"`
	Strategy string  `json:"strategy,omitempty"` // uniform (default) | stratified | lhs
}

// BatchSampleResponse answers POST .../batch/sample: rows[i] is the
// draw for seeds[i], identical to the per-request sample response's
// "rows" for the same (k, strategy, seed).
type BatchSampleResponse struct {
	Strategy string  `json:"strategy"`
	K        int     `json:"k"`
	Count    int     `json:"count"`
	Rows     [][]int `json:"rows"`
}

func (s *Server) handleBatchSample(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req BatchSampleRequest
	if err := s.readBatchJSON(w, r, &req); err != nil {
		writeBodyError(w, r, err)
		return
	}
	if req.K <= 0 {
		writeError(w, r, http.StatusBadRequest, "\"k\" must be positive")
		return
	}
	if len(req.Seeds) == 0 {
		writeError(w, r, http.StatusBadRequest, "\"seeds\" has no entries")
		return
	}
	if req.K > maxSampleK/len(req.Seeds) {
		writeError(w, r, http.StatusBadRequest, "k=%d across %d seeds draws more than %d total rows; shrink k or split the seeds", req.K, len(req.Seeds), maxSampleK)
		return
	}
	strategy, draw, err := sampler(entry.Space, req.Strategy, req.K)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%s", err)
		return
	}
	resp := BatchSampleResponse{Strategy: strategy, K: req.K, Count: len(req.Seeds), Rows: make([][]int, len(req.Seeds))}
	for i, seed := range req.Seeds {
		resp.Rows[i] = draw(seed)
	}
	s.reg.NoteRows(entry.ID, int64(req.K*len(req.Seeds)))
	s.writeBatchJSON(w, r, http.StatusOK, resp)
}

// queryInt parses a non-negative integer query parameter, falling back
// to def when absent or empty.
func queryInt(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	return strconv.Atoi(raw)
}

// handleRows serves GET /v1/spaces/{id}/rows?offset=&limit=&repr= — the
// streaming enumeration plane. Pages are columnar slices of the
// kernel's enumeration order, which is deterministic and stable for a
// given space id (the id is a content address, and construction is
// byte-identical at any worker count), so a client can walk next_offset
// page by page and reassemble the exact enumeration. The page body is
// streamed cell by cell rather than buffered, and the hard per-page cap
// bounds what one request can make the server hold.
func (s *Server) handleRows(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.lookup(w, r)
	if !ok {
		return
	}
	offset, err := queryInt(r, "offset", 0)
	if err != nil || offset < 0 {
		writeError(w, r, http.StatusBadRequest, "\"offset\" must be a non-negative integer")
		return
	}
	limit, err := queryInt(r, "limit", defaultRowsPageLimit)
	if err != nil || limit <= 0 {
		writeError(w, r, http.StatusBadRequest, "\"limit\" must be a positive integer")
		return
	}
	if limit > maxRowsPageLimit {
		writeError(w, r, http.StatusBadRequest, "\"limit\" %d exceeds the per-page cap %d; walk next_offset instead", limit, maxRowsPageLimit)
		return
	}
	repr := r.URL.Query().Get("repr")
	if repr == "" {
		repr = "values"
	}
	if repr != "values" && repr != "indices" {
		writeError(w, r, http.StatusBadRequest, "unknown repr %q (want values or indices)", repr)
		return
	}

	total := entry.Space.Size()
	count := total - offset
	if count < 0 {
		count = 0
	}
	if count > limit {
		count = limit
	}
	names := entry.Space.Names()
	cols := entry.Space.Columns()
	params := entry.Space.Definition().Params

	start := time.Now()
	defer func() { s.metrics.ObserveBuildPhase("batch_encode", time.Since(start)) }()
	defer obs.TraceFrom(r.Context()).StartSpan("batch_encode")()

	// The page streams straight to the wire: scalar fields first (so
	// clients can parse the paging contract before the bulk), then the
	// columns cell by cell through one buffered writer. Everything that
	// can 400 has by now, so the 200 status is safe to commit.
	w.Header().Set("Content-Type", "application/json")
	bw := bufio.NewWriterSize(w, 32<<10)
	bw.WriteString(`{"offset":`)
	bw.WriteString(strconv.Itoa(offset))
	bw.WriteString(`,"limit":`)
	bw.WriteString(strconv.Itoa(limit))
	bw.WriteString(`,"total":`)
	bw.WriteString(strconv.Itoa(total))
	bw.WriteString(`,"count":`)
	bw.WriteString(strconv.Itoa(count))
	bw.WriteString(`,"repr":"`)
	bw.WriteString(repr)
	bw.WriteString(`"`)
	if offset+count < total {
		bw.WriteString(`,"next_offset":`)
		bw.WriteString(strconv.Itoa(offset + count))
	}
	bw.WriteString(`,"params":[`)
	for i, name := range names {
		if i > 0 {
			bw.WriteByte(',')
		}
		nb, _ := json.Marshal(name)
		bw.Write(nb)
	}
	bw.WriteString(`],"columns":[`)
	var scratch [20]byte
	for p := range cols {
		if p > 0 {
			bw.WriteByte(',')
		}
		bw.WriteByte('[')
		col := cols[p]
		for i := 0; i < count; i++ {
			if i > 0 {
				bw.WriteByte(',')
			}
			di := col[offset+i]
			if repr == "indices" {
				bw.Write(strconv.AppendInt(scratch[:0], int64(di), 10))
				continue
			}
			cell, err := ValueDoc{V: params[p].Values[di]}.appendJSON(scratch[:0])
			if err != nil {
				// Unreachable for decoded domains (all four kinds encode);
				// emit null rather than corrupt the stream mid-page.
				cell = []byte("null")
			}
			bw.Write(cell)
		}
		bw.WriteByte(']')
	}
	bw.WriteString("]}\n")
	// A flush error means the client went away mid-stream; the
	// connection is gone and there is nothing left to do with it.
	_ = bw.Flush()
}
