package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"time"

	"searchspace"
	"searchspace/internal/obs"
	"searchspace/internal/value"
)

// maxBodyBytes caps request bodies; a definition with thousands of
// parameter values fits in a fraction of this.
const maxBodyBytes = 8 << 20

// statusClientClosedRequest is nginx's non-standard 499: the client
// disconnected before the response was ready. The connection is
// already gone, so the status only feeds the per-route disconnect
// counters in /v1/stats and /metrics.
const statusClientClosedRequest = 499

// Server wires the registry and metrics into an http.Handler exposing
// the spaced v1 API:
//
//	POST /v1/spaces                   build (or cache-hit) a space
//	GET  /v1/spaces/{id}              metadata and true bounds
//	POST /v1/spaces/{id}/contains     membership tests
//	POST /v1/spaces/{id}/sample      	seeded uniform/stratified/lhs sampling
//	POST /v1/spaces/{id}/neighbors    hamming/adjacent neighbors
//	POST .../batch/contains           columnar batch membership (values)
//	POST .../batch/lookup             columnar batch genotype→row lookup
//	POST .../batch/neighbors          neighbors of many rows at once
//	POST .../batch/sample             one k, many seeds, rows only
//	GET  /v1/spaces/{id}/rows         paged enumeration (offset/limit)
//	POST /v1/spaces/{id}/sessions     create an ask/tell tuning session
//	POST .../sessions/{sid}/ask       next batch of configurations
//	POST .../sessions/{sid}/tell      report measured costs
//	GET  .../sessions/{sid}/best      best configuration + trace
//	DEL  .../sessions/{sid}           end the session
//	GET  /v1/spaces/{id}/stats        per-space cost attribution
//	GET  /v1/methods                  available construction methods
//	POST /v1/compare                  race methods on one definition
//	GET  /v1/stats                    request + cache + session metrics
//	GET  /v1/builds                   in-flight builds/restores, live progress
//	GET  /v1/events                   lifecycle event journal (?n=&type=)
//	GET  /v1/trace/{id}               one request's span waterfall
//	GET  /v1/trace/recent             latest completed traces
//	GET  /metrics                     Prometheus text exposition
//	GET  /healthz                     liveness
//
// Every response carries an X-Request-ID header — the client's own id
// when it sent a valid one, a generated one otherwise — which is also
// the key for GET /v1/trace/{id}.
type Server struct {
	reg      *Registry
	sessions *Sessions
	metrics  *Metrics
	tracer   *obs.Tracer
	journal  *obs.Journal
	logger   *slog.Logger
	slow     time.Duration
	mux      *http.ServeMux
}

// ObsConfig sets the server's observability knobs.
type ObsConfig struct {
	// TraceBuffer is the completed-trace ring capacity; 0 disables
	// tracing entirely (requests still get X-Request-IDs).
	TraceBuffer int
	// EventBuffer is the lifecycle event journal's ring capacity; 0
	// disables journaling (GET /v1/events answers 404).
	EventBuffer int
	// SlowThreshold emits a warning log line for any request at or
	// above it; 0 disables slow logging.
	SlowThreshold time.Duration
	// Logger receives request and slow-request lines; nil uses
	// slog.Default().
	Logger *slog.Logger
}

// DefaultObsConfig enables a modest trace ring and event journal and
// no slow threshold.
func DefaultObsConfig() ObsConfig {
	return ObsConfig{TraceBuffer: 256, EventBuffer: 256}
}

// NewServer builds a Server around the given registry with the default
// session limits and observability config.
func NewServer(reg *Registry) *Server {
	return NewServerObs(reg, DefaultSessionConfig(), DefaultObsConfig())
}

// NewServerObs builds a Server with explicit session limits and
// observability config.
func NewServerObs(reg *Registry, scfg SessionConfig, ocfg ObsConfig) *Server {
	logger := ocfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	s := &Server{
		reg:     reg,
		metrics: NewMetrics(),
		tracer:  obs.NewTracer(ocfg.TraceBuffer),
		journal: obs.NewJournal(ocfg.EventBuffer, logger),
		logger:  logger,
		slow:    ocfg.SlowThreshold,
		mux:     http.NewServeMux(),
	}
	s.sessions = NewSessions(scfg, s.metrics)
	// Completed build phases feed the per-phase histograms regardless
	// of whether the initiating request carried a trace.
	reg.SetPhaseObserver(s.metrics.ObserveBuildPhase)
	// The registry and session table write lifecycle events; Record is
	// nil-safe, so a disabled journal costs nothing.
	reg.SetJournal(s.journal)
	s.sessions.SetJournal(s.journal)
	if st := reg.Store(); st != nil {
		// The store predates the server (Open runs first), so its
		// observability attaches here: IO timings feed the
		// spaced_store_io_seconds histograms, damage and GC feed the
		// journal.
		st.SetIOObserver(s.metrics.ObserveStoreIO)
		st.SetEventHook(func(kind, id string) {
			switch kind {
			case "quarantine":
				s.journal.Record("quarantine", id, "", "snapshot failed verification", nil)
			case "gc":
				s.journal.Record("store_gc", id, "", "snapshot dropped past the disk budget", nil)
			}
		})
	}
	// Registry eviction must stop sessions' steppers from pinning the
	// evicted space in memory. When the eviction was a demotion (a
	// snapshot survives on disk) the sessions merely dehydrate — the
	// next ask restores the space and replays them; only when the space
	// is truly gone are they killed.
	reg.SetEvictionHook(func(id string, demoted bool) {
		if demoted {
			s.sessions.DehydrateBySpace(id)
		} else {
			s.sessions.KillBySpace(id)
		}
	})
	routes := []struct {
		pattern string
		handler http.HandlerFunc
	}{
		{"POST /v1/spaces", s.handleBuild},
		{"GET /v1/spaces/{id}", s.handleDescribe},
		{"POST /v1/spaces/{id}/contains", s.handleContains},
		{"POST /v1/spaces/{id}/sample", s.handleSample},
		{"POST /v1/spaces/{id}/neighbors", s.handleNeighbors},
		{"POST /v1/spaces/{id}/batch/contains", s.handleBatchContains},
		{"POST /v1/spaces/{id}/batch/lookup", s.handleBatchLookup},
		{"POST /v1/spaces/{id}/batch/neighbors", s.handleBatchNeighbors},
		{"POST /v1/spaces/{id}/batch/sample", s.handleBatchSample},
		{"GET /v1/spaces/{id}/rows", s.handleRows},
		{"POST /v1/spaces/{id}/sessions", s.handleSessionCreate},
		{"POST /v1/spaces/{id}/sessions/{sid}/ask", s.handleSessionAsk},
		{"POST /v1/spaces/{id}/sessions/{sid}/tell", s.handleSessionTell},
		{"GET /v1/spaces/{id}/sessions/{sid}/best", s.handleSessionBest},
		{"DELETE /v1/spaces/{id}/sessions/{sid}", s.handleSessionDelete},
		{"GET /v1/spaces/{id}/stats", s.handleSpaceStats},
		{"GET /v1/methods", s.handleMethods},
		{"POST /v1/compare", s.handleCompare},
		{"GET /v1/stats", s.handleStats},
		{"GET /v1/builds", s.handleBuilds},
		{"GET /v1/events", s.handleEvents},
		{"GET /v1/trace/recent", s.handleTraceRecent},
		{"GET /v1/trace/{id}", s.handleTraceGet},
		{"GET /metrics", s.handleMetrics},
		{"GET /healthz", s.handleHealthz},
	}
	for _, rt := range routes {
		s.mux.HandleFunc(rt.pattern, s.instrument(rt.pattern, rt.handler))
	}
	return s
}

// instrument wraps a handler with the request-scoped observability
// stack: it fixes the request id (accepting a valid client-supplied
// X-Request-ID, generating one otherwise), opens a trace, threads both
// through the request context, and on completion feeds the per-route
// metrics, publishes the trace, and emits slow-request log lines.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		reqID := obs.EnsureRequestID(req.Header.Get("X-Request-ID"))
		w.Header().Set("X-Request-ID", reqID)
		ctx := obs.WithRequestID(req.Context(), reqID)
		tr := s.tracer.Start(reqID, route)
		if tr != nil {
			ctx = obs.WithTrace(ctx, tr)
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		s.metrics.RequestBegin(route)
		start := time.Now()
		h(rec, req.WithContext(ctx))
		dur := time.Since(start)
		s.metrics.ObserveRequest(route, rec.status, dur)
		s.tracer.Finish(tr, rec.status, dur)
		if s.slow > 0 && dur >= s.slow {
			s.metrics.ObserveSlow(route)
			span, spanDur := tr.SlowestSpan()
			s.logger.Warn("slow request",
				"request_id", reqID, "route", route, "status", rec.status,
				"duration_ms", durMs(dur), "slowest_span", span, "slowest_span_ms", durMs(spanDur))
		} else if rec.status >= 500 {
			s.logger.Warn("request failed",
				"request_id", reqID, "route", route, "status", rec.status, "duration_ms", durMs(dur))
		} else {
			s.logger.Debug("request",
				"request_id", reqID, "route", route, "status", rec.status, "duration_ms", durMs(dur))
		}
	}
}

// durMs renders a duration as fractional milliseconds for log lines.
func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics exposes the server's metrics aggregator (used by tests and
// the daemon's shutdown log).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Registry exposes the backing registry.
func (s *Server) Registry() *Registry { return s.reg }

// Sessions exposes the session table (used by tests and the daemon's
// shutdown log).
func (s *Server) Sessions() *Sessions { return s.sessions }

// apiError is the uniform error envelope.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON marshals before touching the ResponseWriter so an
// unencodable value becomes a clean 500 instead of a 200 with an empty
// body (json cannot represent NaN/Inf, and the status is immutable
// once the header is written). Serialization time lands in the
// request trace as an "encode" span.
func writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	writeJSONSpan(w, r, status, v, "encode")
}

// writeJSONSpan is writeJSON with an explicit trace-span name, so the
// batch plane can label its single encode "batch_encode".
func writeJSONSpan(w http.ResponseWriter, r *http.Request, status int, v any, span string) {
	defer obs.TraceFrom(r.Context()).StartSpan(span)()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		http.Error(w, `{"error":"response serialization failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

func writeError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	writeJSON(w, r, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// readJSON decodes the request body into v, rejecting oversized bodies
// and trailing garbage. Decode time lands in the request trace as a
// "decode" span.
func readJSON(w http.ResponseWriter, r *http.Request, v any) error {
	return readJSONSpan(w, r, v, "decode")
}

// readJSONSpan is readJSON with an explicit trace-span name, so the
// batch plane can label its single decode "batch_decode".
func readJSONSpan(w http.ResponseWriter, r *http.Request, v any, span string) error {
	defer obs.TraceFrom(r.Context()).StartSpan(span)()
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Exactly one document per request: a second Decode must hit clean
	// EOF. Decoder.More cannot enforce this — it peeks one byte and
	// reports false on any peek error, so bodies like `{...}]` or
	// `{...}{...}` slipped through when it was the trailing check.
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// writeBodyError maps a readJSON failure to its status: 413 when the
// body blew the size limit (the client should shrink the payload, not
// fix its JSON), 400 otherwise.
func writeBodyError(w http.ResponseWriter, r *http.Request, err error) {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		writeError(w, r, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxErr.Limit)
		return
	}
	writeError(w, r, http.StatusBadRequest, "bad request body: %v", err)
}

// BuildRequest is the POST /v1/spaces and /v1/compare payload.
type BuildRequest struct {
	Problem *ProblemDoc `json:"problem"`
	// Method selects the construction algorithm by report label;
	// empty means "optimized". Compare accepts Methods instead.
	Method  string   `json:"method,omitempty"`
	Methods []string `json:"methods,omitempty"`
	// Workers hints how many solver workers a fresh construction should
	// use; the server's shared -build-workers pool caps it, and 0 (or
	// omitted) asks for the whole pool. Cache hits ignore it — the
	// space is identical at any worker count.
	Workers int `json:"workers,omitempty"`
}

// BuildStatsDoc is the wire form of searchspace.BuildStats, shared by
// the build and compare responses so the service reports the same
// numbers as cmd/benchtables.
type BuildStatsDoc struct {
	Method      string  `json:"method"`
	WallSeconds float64 `json:"wall_seconds"`
	Cartesian   float64 `json:"cartesian"`
	Valid       int     `json:"valid"`
	// Workers is the parallelism the construction actually ran with
	// (the pool's grant, not the request's hint).
	Workers int `json:"workers"`
}

func statsDoc(st searchspace.BuildStats) BuildStatsDoc {
	return BuildStatsDoc{
		Method:      st.Method.String(),
		WallSeconds: st.Duration.Seconds(),
		Cartesian:   st.Cartesian,
		Valid:       st.Valid,
		Workers:     st.Workers,
	}
}

// BuildResponse answers POST /v1/spaces.
type BuildResponse struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Size   int    `json:"size"`
	Params int    `json:"params"`
	Cached bool   `json:"cached"`
	// Parent, when set, is the id of the cached superset this space was
	// delta-built (restricted) from instead of solved.
	Parent string        `json:"parent,omitempty"`
	Build  BuildStatsDoc `json:"build"`
}

func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	var req BuildRequest
	if err := readJSON(w, r, &req); err != nil {
		writeBodyError(w, r, err)
		return
	}
	if req.Problem == nil {
		writeError(w, r, http.StatusBadRequest, "missing \"problem\"")
		return
	}
	if len(req.Methods) > 0 {
		writeError(w, r, http.StatusBadRequest, "\"methods\" belongs to POST /v1/compare; this endpoint takes a single \"method\"")
		return
	}
	method := searchspace.Optimized
	if req.Method != "" {
		m, ok := searchspace.MethodByName(req.Method)
		if !ok {
			writeError(w, r, http.StatusBadRequest, "unknown method %q", req.Method)
			return
		}
		method = m
	}
	def, err := req.Problem.Decode()
	if err != nil {
		writeError(w, r, http.StatusUnprocessableEntity, "invalid problem: %v", err)
		return
	}
	if req.Workers < 0 {
		writeError(w, r, http.StatusBadRequest, "\"workers\" must be >= 0")
		return
	}
	entry, hit, err := s.reg.GetOrBuildN(r.Context(), def, method, req.Workers)
	if err != nil {
		status := http.StatusUnprocessableEntity
		switch {
		case r.Context().Err() != nil:
			// The client disconnected mid-build; nobody reads this
			// response, but the metrics row should not claim a server
			// fault (499 is the de-facto client-closed-request code).
			status = statusClientClosedRequest
		case errors.Is(err, ErrBusy):
			// Not the definition's fault: in-flight constructions fill
			// the byte budget. Retryable once they drain.
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		case errors.Is(err, ErrInternal):
			status = http.StatusInternalServerError
		}
		writeError(w, r, status, "%v", err)
		return
	}
	if !hit {
		s.metrics.ObserveBuild(entry.Stats.Duration)
	}
	// Name echoes the submission; the cached entry keeps the label of
	// the first submitter (names are not part of the content address).
	writeJSON(w, r, http.StatusOK, BuildResponse{
		ID:     entry.ID,
		Name:   def.Name,
		Size:   entry.Space.Size(),
		Params: entry.Space.NumParams(),
		Cached: hit,
		Parent: entry.ParentID,
		Build:  statsDoc(entry.Stats),
	})
}

// BoundsDoc is one parameter's true bounds on the wire. Min/Max are
// always present (a legitimate bound can be 0); Numeric tells the
// client whether they mean anything.
type BoundsDoc struct {
	Name           string  `json:"name"`
	Min            float64 `json:"min"`
	Max            float64 `json:"max"`
	Numeric        bool    `json:"numeric"`
	DistinctValues int     `json:"distinct_values"`
}

// DescribeResponse answers GET /v1/spaces/{id}.
type DescribeResponse struct {
	ID          string      `json:"id"`
	Name        string      `json:"name"`
	Size        int         `json:"size"`
	Cartesian   float64     `json:"cartesian"`
	Params      []string    `json:"params"`
	Constraints int         `json:"constraints"`
	Bounds      []BoundsDoc `json:"true_bounds"`
	Bytes       int64       `json:"bytes"`
	// Parent, when set, is the id of the cached superset this space was
	// delta-built (restricted) from instead of solved.
	Parent string        `json:"parent,omitempty"`
	Build  BuildStatsDoc `json:"build"`
}

// lookup resolves {id} through both cache tiers — a demoted space is
// transparently restored from its snapshot — or writes a 404 when the
// id is unknown in memory and on disk.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Entry, bool) {
	id := r.PathValue("id")
	entry, ok := s.reg.LookupOrRestore(r.Context(), id)
	if !ok {
		if r.Context().Err() != nil {
			// The client went away mid-lookup/restore; nobody reads this,
			// but the metrics row should not claim the space was absent.
			writeError(w, r, statusClientClosedRequest, "client disconnected while resolving space %q", id)
			return nil, false
		}
		writeError(w, r, http.StatusNotFound, "no space %q: unknown id, or evicted with no snapshot; re-submit via POST /v1/spaces", id)
		return nil, false
	}
	s.reg.NoteQuery(entry.ID, r.Pattern)
	return entry, true
}

func (s *Server) handleDescribe(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.lookup(w, r)
	if !ok {
		return
	}
	bounds := entry.Bounds
	doc := DescribeResponse{
		ID:          entry.ID,
		Name:        entry.Def.Name,
		Size:        entry.Space.Size(),
		Cartesian:   entry.Def.CartesianSize(),
		Params:      entry.Space.Names(),
		Constraints: entry.Def.NumConstraints(),
		Bounds:      make([]BoundsDoc, len(bounds)),
		Bytes:       entry.Bytes,
		Parent:      entry.ParentID,
		Build:       statsDoc(entry.Stats),
	}
	for i, b := range bounds {
		bd := BoundsDoc{Name: b.Name, Numeric: b.Numeric, DistinctValues: b.DistinctValues}
		// Non-numeric params carry +/-Inf sentinels from TrueBounds;
		// JSON cannot represent Inf, and the values are meaningless
		// anyway, so they serialize as 0.
		if b.Numeric {
			bd.Min, bd.Max = b.Min, b.Max
		}
		doc.Bounds[i] = bd
	}
	writeJSON(w, r, http.StatusOK, doc)
}

// toConfig lowers a wire configuration to the public Config map.
func (c ConfigDoc) toConfig() searchspace.Config {
	out := make(searchspace.Config, len(c))
	for k, v := range c {
		out[k] = v.V.Native()
	}
	return out
}

// configDoc raises row i of a space to its wire form.
func configDoc(ss *searchspace.SearchSpace, row int) ConfigDoc {
	names := ss.Names()
	vals := ss.GetValues(row)
	out := make(ConfigDoc, len(names))
	for i, name := range names {
		out[name] = ValueDoc{V: value.Of(vals[i])}
	}
	return out
}

// ContainsRequest asks for membership of one or more configurations.
type ContainsRequest struct {
	Config  ConfigDoc   `json:"config,omitempty"`
	Configs []ConfigDoc `json:"configs,omitempty"`
}

// ContainsResult is one membership verdict; Index is the row when the
// configuration is valid.
type ContainsResult struct {
	Contains bool `json:"contains"`
	Index    *int `json:"index,omitempty"`
}

// ContainsResponse answers POST /v1/spaces/{id}/contains.
type ContainsResponse struct {
	Results []ContainsResult `json:"results"`
}

func (s *Server) handleContains(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req ContainsRequest
	if err := readJSON(w, r, &req); err != nil {
		writeBodyError(w, r, err)
		return
	}
	// The two request forms are exclusive: earlier releases silently
	// prepended "config" before "configs", shifting every result index
	// by one with no documented contract. Mixed requests are now a hard
	// 400 so result index i always answers input i of whichever form
	// was sent.
	if req.Config != nil && len(req.Configs) > 0 {
		writeError(w, r, http.StatusBadRequest, "use either \"config\" or \"configs\", not both: results are indexed by input position, and mixing the forms would shift them")
		return
	}
	configs := req.Configs
	if req.Config != nil {
		configs = []ConfigDoc{req.Config}
	}
	if len(configs) == 0 {
		writeError(w, r, http.StatusBadRequest, "need \"config\" or \"configs\"")
		return
	}
	resp := ContainsResponse{Results: make([]ContainsResult, len(configs))}
	for i, cd := range configs {
		if idx, found := entry.Space.IndexOf(cd.toConfig()); found {
			row := idx
			resp.Results[i] = ContainsResult{Contains: true, Index: &row}
		}
	}
	writeJSON(w, r, http.StatusOK, resp)
}

// SampleRequest asks for k configurations under a named strategy with a
// client-supplied seed, so identical requests return identical samples.
type SampleRequest struct {
	K        int    `json:"k"`
	Strategy string `json:"strategy,omitempty"` // uniform (default) | stratified | lhs
	Seed     int64  `json:"seed"`
	// RowsOnly omits the materialized configs from the response; rows
	// are resolvable to configurations via GET /v1/spaces/{id}/rows
	// paging. Required for k above maxSampleConfigsK.
	RowsOnly bool `json:"rows_only,omitempty"`
}

// SampleResponse answers POST /v1/spaces/{id}/sample.
type SampleResponse struct {
	Strategy string      `json:"strategy"`
	Seed     int64       `json:"seed"`
	Rows     []int       `json:"rows"`
	Configs  []ConfigDoc `json:"configs,omitempty"`
}

// maxSampleK bounds one sample response; larger K belongs in paging or
// a bulk export endpoint, not one JSON body.
const maxSampleK = 100000

// maxSampleConfigsK bounds how many ConfigDoc maps one sample response
// may materialize. Row indices are cheap — ints — but each config is a
// full name→value map, so a k near maxSampleK used to pin ~100k map
// allocations on one request. Larger draws must set rows_only and page
// the configurations through GET /v1/spaces/{id}/rows.
const maxSampleConfigsK = 4096

// maxLHSK bounds Latin-Hypercube requests much tighter: SampleLHS's
// without-replacement snap loop is O(k·rows·params), so a large k on a
// big cached space would pin a core for one request.
const maxLHSK = 1024

// sampler resolves a sample strategy (empty means uniform) for k draws
// from space: the strategy's name and a function drawing one seed's
// rows, or why the request is a 400. The per-request and batch sample
// routes both go through it, so they accept, name and draw alike.
func sampler(space *searchspace.SearchSpace, strategy string, k int) (string, func(seed int64) []int, error) {
	if strategy == "" {
		strategy = "uniform"
	}
	var draw func(*rand.Rand, int) []int
	switch strategy {
	case "uniform":
		draw = space.SampleUniform
	case "stratified":
		draw = space.SampleStratified
	case "lhs":
		if k > maxLHSK {
			return "", nil, fmt.Errorf("\"k\" exceeds the lhs limit %d (lhs cost grows with k times space size; use uniform or stratified for large samples)", maxLHSK)
		}
		draw = space.SampleLHS
	default:
		return "", nil, fmt.Errorf("unknown strategy %q (want uniform, stratified, or lhs)", strategy)
	}
	return strategy, func(seed int64) []int { return draw(rand.New(rand.NewSource(seed)), k) }, nil
}

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req SampleRequest
	if err := readJSON(w, r, &req); err != nil {
		writeBodyError(w, r, err)
		return
	}
	if req.K <= 0 {
		writeError(w, r, http.StatusBadRequest, "\"k\" must be positive")
		return
	}
	if req.K > maxSampleK {
		writeError(w, r, http.StatusBadRequest, "\"k\" exceeds limit %d", maxSampleK)
		return
	}
	if req.K > maxSampleConfigsK && !req.RowsOnly {
		writeError(w, r, http.StatusBadRequest,
			"\"k\"=%d would materialize %d config documents in one response; set \"rows_only\": true and resolve rows via GET /v1/spaces/{id}/rows paging (configs limit %d)",
			req.K, req.K, maxSampleConfigsK)
		return
	}
	strategy, draw, err := sampler(entry.Space, req.Strategy, req.K)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%s", err)
		return
	}
	rows := draw(req.Seed)
	resp := SampleResponse{Strategy: strategy, Seed: req.Seed, Rows: rows}
	if !req.RowsOnly {
		resp.Configs = make([]ConfigDoc, len(rows))
		for i, row := range rows {
			resp.Configs[i] = configDoc(entry.Space, row)
		}
	}
	writeJSON(w, r, http.StatusOK, resp)
}

// NeighborsRequest asks for the neighbors of a configuration, given as
// a row index or as a configuration map.
type NeighborsRequest struct {
	Row    *int      `json:"row,omitempty"`
	Config ConfigDoc `json:"config,omitempty"`
	Kind   string    `json:"kind,omitempty"` // hamming (default) | adjacent
}

// NeighborsResponse answers POST /v1/spaces/{id}/neighbors.
type NeighborsResponse struct {
	Row     int         `json:"row"`
	Kind    string      `json:"kind"`
	Rows    []int       `json:"rows"`
	Configs []ConfigDoc `json:"configs"`
}

// neighborFunc resolves a neighbor kind (empty means hamming) to its
// name and the space's neighbor query, or why the request is a 400. The
// per-request and batch neighbor routes both go through it.
func neighborFunc(space *searchspace.SearchSpace, kind string) (string, func(row int) []int, error) {
	switch kind {
	case "", "hamming":
		return "hamming", space.HammingNeighbors, nil
	case "adjacent":
		return "adjacent", space.AdjacentNeighbors, nil
	}
	return "", nil, fmt.Errorf("unknown kind %q (want hamming or adjacent)", kind)
}

func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req NeighborsRequest
	if err := readJSON(w, r, &req); err != nil {
		writeBodyError(w, r, err)
		return
	}
	var row int
	switch {
	case req.Row != nil:
		row = *req.Row
		if row < 0 || row >= entry.Space.Size() {
			writeError(w, r, http.StatusBadRequest, "row %d out of range [0,%d)", row, entry.Space.Size())
			return
		}
	case req.Config != nil:
		idx, found := entry.Space.IndexOf(req.Config.toConfig())
		if !found {
			writeError(w, r, http.StatusBadRequest, "config is not a valid configuration of this space")
			return
		}
		row = idx
	default:
		writeError(w, r, http.StatusBadRequest, "need \"row\" or \"config\"")
		return
	}
	kind, neighbors, err := neighborFunc(entry.Space, req.Kind)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%s", err)
		return
	}
	rows := neighbors(row)
	resp := NeighborsResponse{Row: row, Kind: kind, Rows: rows,
		Configs: make([]ConfigDoc, len(rows))}
	for i, nr := range rows {
		resp.Configs[i] = configDoc(entry.Space, nr)
	}
	writeJSON(w, r, http.StatusOK, resp)
}

// MethodsResponse answers GET /v1/methods.
type MethodsResponse struct {
	Methods []string `json:"methods"`
	Default string   `json:"default"`
}

func (s *Server) handleMethods(w http.ResponseWriter, r *http.Request) {
	names := make([]string, 0, len(searchspace.Methods()))
	for _, m := range searchspace.Methods() {
		names = append(names, m.String())
	}
	writeJSON(w, r, http.StatusOK, MethodsResponse{Methods: names, Default: searchspace.Optimized.String()})
}

// CompareResult is one method's outcome in a comparison race.
type CompareResult struct {
	Method      string  `json:"method"`
	WallSeconds float64 `json:"wall_seconds"`
	Valid       int     `json:"valid"`
	// Workers is the parallelism this race leg ran with (pool grant).
	Workers int `json:"workers,omitempty"`
	// Checksum is a SHA-256 over the resolved space's parameter names
	// and columnar rows. Two legs with equal checksums produced
	// byte-identical spaces — the determinism evidence the worker
	// sweep (TestCompareWorkerSweep) asserts over the wire.
	Checksum string `json:"checksum,omitempty"`
	Error    string `json:"error,omitempty"`
}

// spaceChecksum fingerprints a resolved space's full enumeration:
// parameter names, then every column's cells in row order. Unlike the
// registry's content address (which hashes the INPUT definition), this
// hashes the OUTPUT, so it detects any divergence in solver results —
// order included — between construction runs.
func spaceChecksum(ss *searchspace.SearchSpace) string {
	h := sha256.New()
	for _, name := range ss.Names() {
		h.Write([]byte(name))
		h.Write([]byte{0})
	}
	var cell [4]byte
	for _, col := range ss.Columns() {
		for _, di := range col {
			binary.LittleEndian.PutUint32(cell[:], uint32(di))
			h.Write(cell[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CompareResponse answers POST /v1/compare. Agree reports whether at
// least one method succeeded and all successful methods resolved the
// same number of valid configurations — the paper's cross-method
// correctness check. A race in which nothing ran cannot agree.
type CompareResponse struct {
	Name    string          `json:"name"`
	Results []CompareResult `json:"results"`
	Agree   bool            `json:"agree"`
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	var req BuildRequest
	if err := readJSON(w, r, &req); err != nil {
		writeBodyError(w, r, err)
		return
	}
	if req.Problem == nil {
		writeError(w, r, http.StatusBadRequest, "missing \"problem\"")
		return
	}
	def, err := req.Problem.Decode()
	if err != nil {
		writeError(w, r, http.StatusUnprocessableEntity, "invalid problem: %v", err)
		return
	}
	// A lone "method" is a one-element race; supplying both forms is
	// ambiguous and rejected rather than silently merged.
	if req.Method != "" && len(req.Methods) > 0 {
		writeError(w, r, http.StatusBadRequest, "use either \"method\" or \"methods\", not both")
		return
	}
	if req.Workers < 0 {
		writeError(w, r, http.StatusBadRequest, "\"workers\" must be >= 0")
		return
	}
	names := req.Methods
	if req.Method != "" {
		names = []string{req.Method}
	}
	// Duplicates collapse to one race each, bounding the construction
	// count at the number of distinct methods regardless of list length.
	methods := searchspace.Methods()
	if len(names) > 0 {
		methods = methods[:0]
		seen := make(map[searchspace.Method]struct{}, len(searchspace.Methods()))
		for _, name := range names {
			m, ok := searchspace.MethodByName(name)
			if !ok {
				writeError(w, r, http.StatusBadRequest, "unknown method %q", name)
				return
			}
			if _, dup := seen[m]; dup {
				continue
			}
			seen[m] = struct{}{}
			methods = append(methods, m)
		}
	}
	// Admission is per method: an exhaustive baseline over its budget is
	// reported as an error in its result row while admissible methods
	// still race. A definition too large even for the optimized solver
	// is rejected outright.
	if err := s.reg.Admit(def, searchspace.Optimized); err != nil {
		writeError(w, r, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	resp := CompareResponse{Name: def.Name}
	sizes := make(map[int]struct{})
	tr := obs.TraceFrom(r.Context())
	for _, m := range methods {
		if err := s.reg.Admit(def, m); err != nil {
			resp.Results = append(resp.Results, CompareResult{Method: m.String(), Error: err.Error()})
			continue
		}
		// Each race leg records its own queue-wait and build phases;
		// they adopt into this request's trace labelled per leg. The leg
		// also registers with the live op table so long baseline races
		// show up in /v1/builds.
		var phases []obs.Phase
		op := s.reg.beginOp("compare", def.Name, m.String(), obs.RequestID(r.Context()), nil)
		ss, st, buildErr := s.reg.runBuild(def.Clone(), m, r.Context().Done(), req.Workers, &phases, op)
		s.reg.endOp(op)
		tr.AdoptPhases(phases)
		if errors.Is(buildErr, errBuildCanceled) {
			// The compare client disconnected; nobody will read the
			// response, so stop racing the remaining methods.
			writeError(w, r, statusClientClosedRequest, "client disconnected during comparison")
			return
		}
		res := CompareResult{Method: m.String(), WallSeconds: st.Duration.Seconds(), Valid: st.Valid, Workers: st.Workers}
		if buildErr != nil {
			res.Error = buildErr.Error()
		} else {
			res.Checksum = spaceChecksum(ss)
			s.metrics.ObserveBuild(st.Duration)
			sizes[st.Valid] = struct{}{}
		}
		resp.Results = append(resp.Results, res)
	}
	resp.Agree = len(sizes) == 1
	writeJSON(w, r, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot(s.reg.Stats(), s.reg.StoreStats(), s.sessions.Stats())
	if s.tracer != nil {
		ts := s.tracer.Stats()
		snap.Trace = &ts
	}
	if s.journal != nil {
		js := s.journal.Stats()
		snap.Events = &js
	}
	snap.TopSpaces = s.reg.TopSpaces(10)
	writeJSON(w, r, http.StatusOK, snap)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, http.StatusOK, map[string]string{"status": "ok"})
}
