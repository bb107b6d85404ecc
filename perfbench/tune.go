package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"searchspace/internal/model"
	"searchspace/internal/service"
	"searchspace/internal/tuner"
	"searchspace/internal/value"
)

// The tune workload is warm-cache tuning traffic over TCP against the
// resident Table 2 spaces. Its set-up is the cold start of tuning on
// eight kernels: build each space, then make the first lookup and the
// first Hamming query, which build the space layer's lazy row index and
// neighbor partitions. After set-up, core is idle.
//
// The timed traffic is tuning runs, back to back on each client, each
// on a seeded space with a seeded strategy. A run sends the requests
// `spacecli tune` sends, with its default budget and batch: resubmit the
// definition (a cache hit), create a session, ask and tell until an ask
// comes back empty and done, read the best configuration and delete the
// session. Scores come from a seeded client-side objective. Before
// creating the session, a run also sends one batch contains and one
// batch sample, the two batch legs of `spacecli batch`; one of each per
// run is an assumption, not measured traffic.

var tuneStrategies = []string{"greedy-ils", "simulated-annealing", "genetic-algorithm", "random-sampling"}

const (
	// sessionEvals and askBatch are spacecli tune's -max-evals and
	// -batch defaults.
	sessionEvals = 200
	askBatch     = 8
	poolCap      = 256
	// outsideDomain is a value no Table 2 parameter domain holds, so a
	// configuration carrying it is never contained.
	outsideDomain = "perfbench-outside-domain"
)

type pooled struct {
	values []service.ValueDoc // in declaration order
	row    int
}

// tuneSpace is one resident space and the configurations the space has
// returned for it, kept with their rows for contains checks.
type tuneSpace struct {
	idx  int
	def  *model.Definition
	id   string
	size int
	body []byte

	mu   sync.Mutex
	pool []pooled
}

func (s *tuneSpace) addToPool(rng *rand.Rand, cfg service.ConfigDoc, row int) error {
	p := pooled{values: make([]service.ValueDoc, len(s.def.Params)), row: row}
	for i, prm := range s.def.Params {
		v, ok := cfg[prm.Name]
		if !ok {
			return fmt.Errorf("%s: configuration of row %d lacks %q", s.def.Name, row, prm.Name)
		}
		p.values[i] = v
	}
	s.mu.Lock()
	if len(s.pool) < poolCap {
		s.pool = append(s.pool, p)
	} else {
		s.pool[rng.Intn(poolCap)] = p
	}
	s.mu.Unlock()
	return nil
}

func (s *tuneSpace) pick(rng *rand.Rand) pooled {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool[rng.Intn(len(s.pool))]
}

// The steps of a tuning run, one op each, in order; ask and tell
// alternate until an ask comes back empty.
const (
	stepHit = iota
	stepBatchContains
	stepBatchSample
	stepCreate
	stepAsk
	stepTell
	stepBest
	stepDelete
)

// tuneRun is one client's tuning run in progress.
type tuneRun struct {
	sp   *tuneSpace
	step int
	// path is the session's URL path once created; pending holds the
	// rows the last ask proposed, to be told next.
	path    string
	pending []int
	// evals is the evaluation count the last ask reported; bestScore is
	// the highest score the client told that the session applied.
	evals     int
	bestScore float64
}

type tuneEnv struct {
	serving
	spaces []*tuneSpace
	seed   int64
	// runs[w] is client w's tuning run in progress, if any.
	runs []*tuneRun

	buildRows, buildSecs    float64
	rowIndexMs, partitionMs float64
	indexHeapMB             float64
}

func runTune(ctx context.Context, o options, rec *recorder) (_ *outcome, err error) {
	out := &outcome{metrics: map[string]float64{}, samples: map[string]int{}}
	// configs_per_s pools the builds of every set-up.
	var buildRows, buildSecs float64
	env, setups, err := setUp(ctx, o, func() (*tuneEnv, error) {
		e, err := tuneSetup(ctx, o, rec)
		if err == nil {
			buildRows += e.buildRows
			buildSecs += e.buildSecs
		}
		return e, err
	}, func(e *tuneEnv) error { return e.close() })
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, env.close()) }()

	stats0, err := fetchStats(ctx, env.c)
	if err != nil {
		return nil, err
	}
	g0 := readGoStats()
	var from int64
	if rec != nil {
		from = rec.since(time.Now())
	}
	lr := closedLoops(ctx, o, rec, env.op)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g1 := readGoStats()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	stats1, err := fetchStats(ctx, env.c)
	if err != nil {
		return nil, err
	}
	for _, r := range lr.ops {
		out.attempted++
		if r.err != nil {
			out.fail(r.err)
		}
	}
	putLoopMetrics(out, lr, rec != nil)
	if rec == nil {
		out.putUntraced(setups, rss)
		out.metrics["configs_per_s"] = buildRows / buildSecs
		return out, nil
	}
	out.metrics["space.row_index_ms"] = env.rowIndexMs
	out.metrics["space.partition_ms"] = env.partitionMs
	out.metrics["space.index_heap_mb"] = env.indexHeapMB
	var asks, evals float64
	for _, s := range stats1.Sessions {
		asks += float64(s.Asks)
		evals += float64(s.Evaluations)
	}
	for _, s := range stats0.Sessions {
		asks -= float64(s.Asks)
		evals -= float64(s.Evaluations)
	}
	if asks > 0 {
		out.metrics["session.evals_per_ask"] = evals / asks
	}
	putGCMetrics(out.metrics, g0, g1)
	putRegistryMetrics(out.metrics, stats0, stats1)
	putHTTPMetrics(out, rec.snapshot(), from)
	return out, nil
}

// tuneSetup starts a server, builds every space, then makes each
// space's first lookup and first Hamming query, and warms up.
func tuneSetup(ctx context.Context, o options, rec *recorder) (_ *tuneEnv, err error) {
	ref, err := loadReference(o.refPath)
	if err != nil {
		return nil, err
	}
	e := &tuneEnv{seed: o.seed, runs: make([]*tuneRun, o.clients)}
	if e.serving, err = serve(daemonDefaults(), nil, o.clients, rec); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, e.close())
		}
	}()
	rec.setOn(true)
	defer rec.setOn(false)

	for i, def := range o.suite {
		want, ok := ref[def.Name]
		if !ok {
			return nil, fmt.Errorf("reference has no answer for %s", def.Name)
		}
		doc, err := service.EncodeProblem(def)
		if err != nil {
			return nil, err
		}
		sp := &tuneSpace{idx: i, def: def}
		if sp.body, err = buildBody(doc); err != nil {
			return nil, err
		}
		var br service.BuildResponse
		if _, err := e.c.call(ctx, "build", http.MethodPost, "/v1/spaces", sp.body, &br); err != nil {
			return nil, err
		}
		if br.Size != want.Rows {
			return nil, fmt.Errorf("build %s: size %d, reference has %d", def.Name, br.Size, want.Rows)
		}
		sp.id, sp.size = br.ID, br.Size
		e.buildRows += float64(br.Size)
		e.buildSecs += br.Build.WallSeconds
		e.spaces = append(e.spaces, sp)
	}

	heap0 := liveHeap(rec)
	rng := rand.New(rand.NewSource(o.seed))
	for _, sp := range e.spaces {
		base := "/v1/spaces/" + sp.id
		var sr service.SampleResponse
		if _, err := e.c.call(ctx, "sample", http.MethodPost, base+"/sample", mustJSON(service.SampleRequest{K: 1, Seed: o.seed}), &sr); err != nil {
			return nil, err
		}
		if len(sr.Rows) != 1 || len(sr.Configs) != 1 {
			return nil, fmt.Errorf("sample %s: want one row, got %d", sp.def.Name, len(sr.Rows))
		}
		row, cfg := sr.Rows[0], sr.Configs[0]
		if err := sp.addToPool(rng, cfg, row); err != nil {
			return nil, err
		}
		var cr service.ContainsResponse
		rtt, err := e.c.call(ctx, "contains", http.MethodPost, base+"/contains", mustJSON(service.ContainsRequest{Config: cfg}), &cr)
		if err != nil {
			return nil, err
		}
		if len(cr.Results) != 1 || !cr.Results[0].Contains || cr.Results[0].Index == nil || *cr.Results[0].Index != row {
			return nil, fmt.Errorf("first lookup %s: row %d not found at its own index", sp.def.Name, row)
		}
		e.rowIndexMs += ms(rtt)
		var nr service.NeighborsResponse
		rtt, err = e.c.call(ctx, "neighbors", http.MethodPost, base+"/neighbors", mustJSON(service.NeighborsRequest{Row: &row, Kind: "hamming"}), &nr)
		if err != nil {
			return nil, err
		}
		if err := checkHamming(sp.def, cfg, nr); err != nil {
			return nil, err
		}
		e.partitionMs += ms(rtt)
	}
	if rec != nil {
		e.indexHeapMB = (liveHeap(rec) - heap0) / 1e6
	}

	// Warm-up: every client runs the timed traffic for a fixed op count.
	err = eachClient(o.clients, func(w int) error {
		rng := rand.New(rand.NewSource(-o.seed*7919 - int64(w) - 1))
		for i := 0; i < 200 && ctx.Err() == nil; i++ {
			if r := e.op(ctx, w, rng); r.err != nil {
				return fmt.Errorf("warm-up: %w", r.err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e, ctx.Err()
}

// liveHeap collects garbage and reads the live heap, in traced runs
// only: the forced collections would otherwise add to setup_s.
func liveHeap(rec *recorder) float64 {
	if rec == nil {
		return 0
	}
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// checkHamming checks that every neighbor the server returned differs
// from cfg in exactly one parameter.
func checkHamming(def *model.Definition, cfg service.ConfigDoc, nr service.NeighborsResponse) error {
	if len(nr.Rows) != len(nr.Configs) {
		return fmt.Errorf("neighbors %s: %d rows, %d configs", def.Name, len(nr.Rows), len(nr.Configs))
	}
	for i, nc := range nr.Configs {
		diff := 0
		for _, p := range def.Params {
			if !value.Equal(nc[p.Name].V, cfg[p.Name].V) {
				diff++
			}
		}
		if diff != 1 {
			return fmt.Errorf("neighbors %s: row %d differs in %d parameters, want 1", def.Name, nr.Rows[i], diff)
		}
	}
	return nil
}

// objective is the client's seeded stand-in for a measured kernel
// runtime in milliseconds. It depends only on (seed, space, row), so a
// row told twice is told the same score.
func objective(seed int64, space, row int) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(space)<<40 ^ uint64(row)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return 1 + float64(x>>11)/float64(1<<53)*100
}

// op runs client w's next op: the next step of its tuning run, or the
// first step of a new run on a seeded space. A run whose op failed is
// abandoned.
func (e *tuneEnv) op(ctx context.Context, w int, rng *rand.Rand) opResult {
	run := e.runs[w]
	if run == nil {
		run = &tuneRun{sp: e.spaces[rng.Intn(len(e.spaces))], bestScore: math.Inf(-1)}
		e.runs[w] = run
	}
	var r opResult
	next := run.step + 1
	switch run.step {
	case stepHit:
		r = e.hit(ctx, run.sp)
	case stepBatchContains:
		r = e.batchContains(ctx, run.sp, rng)
	case stepBatchSample:
		r = e.batchSample(ctx, run.sp, rng)
	case stepCreate:
		r = e.create(ctx, run, rng)
	case stepAsk:
		r, next = e.ask(ctx, run, rng)
	case stepTell:
		r, next = e.tell(ctx, run), stepAsk
	case stepBest:
		var resp service.BestResponse
		r = e.timed(ctx, "best", http.MethodGet, run.path+"/best", nil, &resp)
		if r.err == nil {
			r.err = run.checkBest(resp.Best)
		}
	case stepDelete:
		r = e.timed(ctx, "delete", http.MethodDelete, run.path, nil, nil)
	}
	if r.err != nil || run.step == stepDelete {
		e.runs[w] = nil
	} else {
		run.step = next
	}
	return r
}

func (e *tuneEnv) hit(ctx context.Context, sp *tuneSpace) opResult {
	var br service.BuildResponse
	r := e.timed(ctx, "hit", http.MethodPost, "/v1/spaces", sp.body, &br)
	if r.err == nil && (!br.Cached || br.ID != sp.id || br.Size != sp.size) {
		r.err = fmt.Errorf("resubmit %s: cached=%v id=%s size=%d, want cached id=%s size=%d", sp.def.Name, br.Cached, br.ID, br.Size, sp.id, sp.size)
	}
	return r
}

// batchContains asks for rows the space itself returned earlier and
// for configurations with one value outside its declared domain.
func (e *tuneEnv) batchContains(ctx context.Context, sp *tuneSpace, rng *rand.Rand) opResult {
	const inside, outside = 24, 8
	req := service.BatchContainsRequest{Params: make([]string, len(sp.def.Params)), Values: make([][]service.ValueDoc, len(sp.def.Params))}
	for p, prm := range sp.def.Params {
		req.Params[p] = prm.Name
	}
	want := make([]int, 0, inside+outside)
	for q := 0; q < inside+outside; q++ {
		pc := sp.pick(rng)
		vals := pc.values
		row := pc.row
		if q >= inside {
			vals = append([]service.ValueDoc(nil), vals...)
			vals[rng.Intn(len(vals))] = service.ValueDoc{V: value.OfString(outsideDomain)}
			row = -1
		}
		for p := range vals {
			req.Values[p] = append(req.Values[p], vals[p])
		}
		want = append(want, row)
	}
	var resp service.BatchRowsResponse
	r := e.timed(ctx, "batch_contains", http.MethodPost, "/v1/spaces/"+sp.id+"/batch/contains", mustJSON(req), &resp)
	if r.err == nil {
		if len(resp.Rows) != len(want) {
			r.err = fmt.Errorf("batch contains %s: %d answers for %d queries", sp.def.Name, len(resp.Rows), len(want))
		} else {
			for i := range want {
				if resp.Rows[i] != want[i] {
					r.err = fmt.Errorf("batch contains %s: query %d answered row %d, want %d", sp.def.Name, i, resp.Rows[i], want[i])
					break
				}
			}
		}
	}
	return r
}

func (e *tuneEnv) batchSample(ctx context.Context, sp *tuneSpace, rng *rand.Rand) opResult {
	const k = 8
	req := service.BatchSampleRequest{K: k, Seeds: []int64{rng.Int63n(1 << 20), rng.Int63n(1 << 20)}}
	var resp service.BatchSampleResponse
	r := e.timed(ctx, "batch_sample", http.MethodPost, "/v1/spaces/"+sp.id+"/batch/sample", mustJSON(req), &resp)
	if r.err == nil {
		r.err = checkSample(sp.def.Name, resp.Rows, len(req.Seeds), min(k, sp.size), sp.size)
	}
	return r
}

// checkSample checks that a sample answer has one draw per seed, each of
// k rows inside the space.
func checkSample(name string, draws [][]int, seeds, k, size int) error {
	if len(draws) != seeds {
		return fmt.Errorf("sample %s: %d draws for %d seeds", name, len(draws), seeds)
	}
	for _, rows := range draws {
		if len(rows) != k {
			return fmt.Errorf("sample %s: %d rows, want %d", name, len(rows), k)
		}
		for _, r := range rows {
			if r < 0 || r >= size {
				return fmt.Errorf("sample %s: row %d outside [0,%d)", name, r, size)
			}
		}
	}
	return nil
}

func (e *tuneEnv) create(ctx context.Context, run *tuneRun, rng *rand.Rand) opResult {
	req := service.SessionCreateRequest{Strategy: tuneStrategies[rng.Intn(len(tuneStrategies))],
		Seed: rng.Int63n(1 << 30), Budget: service.SessionBudgetDoc{MaxEvals: sessionEvals}}
	var resp service.SessionCreateResponse
	r := e.timed(ctx, "create", http.MethodPost, "/v1/spaces/"+run.sp.id+"/sessions", mustJSON(req), &resp)
	run.path = "/v1/spaces/" + run.sp.id + "/sessions/" + resp.Session
	return r
}

// ask asks for the next batch of rows and returns the step after it:
// tell them, or, once an ask comes back empty and done, read the best.
func (e *tuneEnv) ask(ctx context.Context, run *tuneRun, rng *rand.Rand) (opResult, int) {
	var resp service.AskResponse
	r := e.timed(ctx, "ask", http.MethodPost, run.path+"/ask", mustJSON(service.AskRequest{Max: askBatch}), &resp)
	if r.err != nil {
		return r, stepAsk
	}
	if len(resp.Rows) != len(resp.Configs) {
		r.err = fmt.Errorf("ask: %d rows, %d configs", len(resp.Rows), len(resp.Configs))
		return r, stepAsk
	}
	for i, row := range resp.Rows {
		if row < 0 || row >= run.sp.size {
			r.err = fmt.Errorf("ask %s: row %d outside [0,%d)", run.sp.def.Name, row, run.sp.size)
			return r, stepAsk
		}
		if r.err = run.sp.addToPool(rng, resp.Configs[i], row); r.err != nil {
			return r, stepAsk
		}
	}
	run.evals = resp.Evaluations
	if len(resp.Rows) == 0 {
		if !resp.Done {
			r.err = fmt.Errorf("ask %s: no rows, but the session is not done", run.path)
		}
		return r, stepBest
	}
	run.pending = resp.Rows
	return r, stepTell
}

// tell tells the scores of the pending rows and checks the session's
// best against the highest score told.
func (e *tuneEnv) tell(ctx context.Context, run *tuneRun) opResult {
	req := service.TellRequest{Results: make([]tuner.Measurement, len(run.pending))}
	for i, row := range run.pending {
		ms := objective(e.seed, run.sp.idx, row)
		req.Results[i] = tuner.Measurement{Row: row, Score: -ms, Cost: ms / 1000}
	}
	var resp service.TellResponse
	r := e.timed(ctx, "tell", http.MethodPost, run.path+"/tell", mustJSON(req), &resp)
	if r.err != nil {
		return r
	}
	applied := resp.Evaluations - run.evals
	if applied < 0 || applied > len(req.Results) {
		r.err = fmt.Errorf("tell: evaluations went from %d to %d for %d results", run.evals, resp.Evaluations, len(req.Results))
		return r
	}
	for _, m := range req.Results[:applied] {
		run.bestScore = max(run.bestScore, m.Score)
	}
	run.pending = nil
	r.err = run.checkBest(resp.Best)
	return r
}

// checkBest checks that the session's best equals the highest score the
// client told (the tuners maximise; the score is the negated runtime,
// so this is the minimum runtime told).
func (run *tuneRun) checkBest(b *service.BestDoc) error {
	if math.IsInf(run.bestScore, -1) {
		if b != nil {
			return fmt.Errorf("session %s: best %v before any result was applied", run.path, b.Score)
		}
		return nil
	}
	if b == nil || b.Score != run.bestScore {
		return fmt.Errorf("session %s: best %v, want the highest told score %v", run.path, b, run.bestScore)
	}
	return nil
}

func (e *tuneEnv) timed(ctx context.Context, route, method, path string, body []byte, out any) opResult {
	traced := e.c.rec.enabled()
	lat, err := e.c.call(ctx, route, method, path, body, out)
	return opResult{route: route, lat: lat, traced: traced, err: err}
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types always marshal
	}
	return raw
}
