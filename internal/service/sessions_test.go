package service

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"searchspace"
	"searchspace/internal/model"
	"searchspace/internal/tuner"
	"searchspace/internal/value"
)

// tuneDef is the session tests' tuning landscape: the same shape the
// tuner package's kernels exercise, large enough that strategies
// differentiate. tuneDoc is its wire twin; the two MUST stay in sync.
func tuneDef(name string) *model.Definition {
	return &model.Definition{
		Name: name,
		Params: []model.Param{
			model.IntsParam("bx", 1, 2, 4, 8, 16, 32, 64),
			model.IntsParam("by", 1, 2, 4, 8, 16, 32),
			model.RangeParam("tile", 1, 8),
			model.RangeParam("unroll", 1, 4),
		},
		Constraints: []string{"bx * by <= 512", "tile % unroll == 0"},
	}
}

func tuneDoc(name string) string {
	return fmt.Sprintf(`{
		"name": %q,
		"params": [
			{"name": "bx", "values": [1, 2, 4, 8, 16, 32, 64]},
			{"name": "by", "values": [1, 2, 4, 8, 16, 32]},
			{"name": "tile", "values": [1, 2, 3, 4, 5, 6, 7, 8]},
			{"name": "unroll", "values": [1, 2, 3, 4]}
		],
		"constraints": ["bx * by <= 512", "tile %% unroll == 0"]
	}`, name)
}

// buildTuneSpace submits tuneDoc and returns the space id.
func buildTuneSpace(t *testing.T, ts string, name string) string {
	t.Helper()
	var built BuildResponse
	if code := post(t, ts+"/v1/spaces", fmt.Sprintf(`{"problem": %s}`, tuneDoc(name)), &built); code != http.StatusOK {
		t.Fatalf("build: status %d", code)
	}
	return built.ID
}

// kernelObjective builds the measurement function a remote client runs:
// score/cost from the simulated kernel, computed from the configuration
// VALUES the ask response carries (a real client has no row access).
func kernelObjective(def *model.Definition, seed int64) func(cfg ConfigDoc) (score, cost float64) {
	k := tuner.NewSimKernel(def, seed, 5, 1000)
	return func(cfg ConfigDoc) (float64, float64) {
		vals := make([]value.Value, len(def.Params))
		for i, p := range def.Params {
			vals[i] = cfg[p.Name].V
		}
		return k.Score(vals), k.TimeMs(vals) / 1000
	}
}

// createSession posts a session and fails the test on non-200.
func createSession(t *testing.T, ts, spaceID, body string) SessionCreateResponse {
	t.Helper()
	var resp SessionCreateResponse
	if code := post(t, ts+"/v1/spaces/"+spaceID+"/sessions", body, &resp); code != http.StatusOK {
		t.Fatalf("create session: status %d (%+v)", code, resp)
	}
	return resp
}

// driveSession runs the remote ask/tell loop to exhaustion and returns
// the final best plus the total number of ask round trips.
func driveSession(t *testing.T, ts, spaceID, sid string, measure func(ConfigDoc) (float64, float64), batch int) (BestResponse, int) {
	t.Helper()
	base := ts + "/v1/spaces/" + spaceID + "/sessions/" + sid
	asks := 0
	for {
		var ask AskResponse
		if code := post(t, base+"/ask", fmt.Sprintf(`{"max": %d}`, batch), &ask); code != http.StatusOK {
			t.Fatalf("ask: status %d (%+v)", code, ask)
		}
		asks++
		if len(ask.Rows) == 0 {
			if !ask.Done {
				t.Fatal("empty ask without done")
			}
			break
		}
		results := make([]string, len(ask.Rows))
		for i, row := range ask.Rows {
			score, cost := measure(ask.Configs[i])
			results[i] = fmt.Sprintf(`{"row": %d, "score": %g, "cost": %g}`, row, score, cost)
		}
		var tell TellResponse
		if code := post(t, base+"/tell", `{"results": [`+strings.Join(results, ",")+`]}`, &tell); code != http.StatusOK {
			t.Fatalf("tell: status %d (%+v)", code, tell)
		}
	}
	var best BestResponse
	if code := get(t, base+"/best", &best); code != http.StatusOK {
		t.Fatalf("best: status %d", code)
	}
	return best, asks
}

// TestSessionRemoteMatchesInProcessRun is the PR's acceptance
// criterion: for a fixed seed, the remote ask/tell loop over the
// service reproduces the in-process Strategy.Run on the simulated
// tuner kernels — same best configuration, same evaluation count — for
// every strategy, at batch sizes 1 and >1.
func TestSessionRemoteMatchesInProcessRun(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{})
	def := tuneDef("equiv")
	spaceID := buildTuneSpace(t, ts.URL, "equiv")

	// In-process reference: build the same definition locally.
	ss, err := searchspace.FromDefinition(tuneDef("equiv")).Build(searchspace.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	kernel := tuner.NewSimKernel(def, 11, 5, 1000)
	localObj := tuner.Objective{
		Score: func(row int) float64 { return kernel.Score(rowValues(ss, row)) },
		Cost:  func(row int) float64 { return kernel.TimeMs(rowValues(ss, row)) / 1000 },
	}
	measure := kernelObjective(def, 11)

	const seed = 99
	for _, name := range tuner.StrategyNames() {
		strat, _ := tuner.StrategyByName(name)
		ref := strat.Run(rand.New(rand.NewSource(seed)), ss, localObj, tuner.Budget{MaxEvals: 80})
		for _, batch := range []int{1, 7} {
			created := createSession(t, ts.URL, spaceID,
				fmt.Sprintf(`{"strategy": %q, "seed": %d, "budget": {"max_evals": 80}}`, name, seed))
			best, _ := driveSession(t, ts.URL, spaceID, created.Session, measure, batch)
			if best.Evaluations != ref.Evaluations {
				t.Errorf("%s batch=%d: remote evaluations %d != in-process %d", name, batch, best.Evaluations, ref.Evaluations)
			}
			if best.Best == nil || best.Best.Row != ref.BestRow {
				t.Errorf("%s batch=%d: remote best %+v != in-process row %d", name, batch, best.Best, ref.BestRow)
			}
			if !best.Done {
				t.Errorf("%s batch=%d: session not done after exhaustion", name, batch)
			}
		}
	}
}

func rowValues(ss *searchspace.SearchSpace, row int) []value.Value {
	raw := ss.GetValues(row)
	vals := make([]value.Value, len(raw))
	for i, v := range raw {
		vals[i] = value.Of(v)
	}
	return vals
}

// TestSessionFlowErrorPaths covers the protocol's failure modes: bad
// strategy, missing budget, tell without ask, mismatched tell batch,
// ask after exhaustion, unknown session, and a session whose space was
// evicted.
func TestSessionFlowErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{})
	spaceID := buildTuneSpace(t, ts.URL, "errs")
	base := ts.URL + "/v1/spaces/" + spaceID + "/sessions"

	var apiErr apiError
	if code := post(t, base, `{"strategy": "gradient-descent", "seed": 1, "budget": {"max_evals": 5}}`, &apiErr); code != http.StatusBadRequest {
		t.Errorf("unknown strategy: status %d (%+v)", code, apiErr)
	}
	if code := post(t, base, `{"seed": 1}`, &apiErr); code != http.StatusBadRequest {
		t.Errorf("missing budget: status %d", code)
	}
	if code := post(t, base, `{"seed": 1, "budget": {"max_evals": 5}, "params": {"alpha": 1.5}}`, &apiErr); code != http.StatusBadRequest {
		t.Errorf("bad alpha: status %d", code)
	}
	if code := post(t, ts.URL+"/v1/spaces/nope/sessions", `{"seed": 1, "budget": {"max_evals": 5}}`, &apiErr); code != http.StatusNotFound {
		t.Errorf("session on unknown space: status %d", code)
	}

	created := createSession(t, ts.URL, spaceID, `{"strategy": "random-sampling", "seed": 4, "budget": {"max_evals": 3}}`)
	sbase := base + "/" + created.Session

	// Tell without ask.
	if code := post(t, sbase+"/tell", `{"results": [{"row": 0, "score": 1, "cost": 0.1}]}`, &apiErr); code != http.StatusConflict {
		t.Errorf("tell without ask: status %d", code)
	}
	// Mismatched tell: ask 2, tell 1 / tell wrong rows.
	var ask AskResponse
	if code := post(t, sbase+"/ask", `{"max": 2}`, &ask); code != http.StatusOK || len(ask.Rows) != 2 {
		t.Fatalf("ask: status %d rows %v", code, ask.Rows)
	}
	if code := post(t, sbase+"/tell", fmt.Sprintf(`{"results": [{"row": %d, "score": 1, "cost": 0.1}]}`, ask.Rows[0]), &apiErr); code != http.StatusConflict {
		t.Errorf("short tell: status %d", code)
	}
	if code := post(t, sbase+"/tell", fmt.Sprintf(`{"results": [{"row": %d, "score": 1, "cost": 0.1}, {"row": -5, "score": 1, "cost": 0.1}]}`, ask.Rows[0]), &apiErr); code != http.StatusConflict {
		t.Errorf("row-mismatched tell: status %d", code)
	}
	// A failed tell must not consume the ask: re-ask returns the same batch.
	var again AskResponse
	post(t, sbase+"/ask", `{"max": 2}`, &again)
	if len(again.Rows) != 2 || again.Rows[0] != ask.Rows[0] || again.Rows[1] != ask.Rows[1] {
		t.Errorf("outstanding batch changed after rejected tells: %v vs %v", again.Rows, ask.Rows)
	}
	// Finish the budget (3 evals: this batch of 2, then 1 more).
	measure := kernelObjective(tuneDef("errs"), 1)
	best, _ := driveSession(t, ts.URL, spaceID, created.Session, measure, 2)
	if best.Evaluations != 3 {
		t.Errorf("evaluations = %d, want 3", best.Evaluations)
	}
	// Ask after exhaustion: 200 with done and no rows (not an error — the
	// client's signal to stop).
	var exhausted AskResponse
	if code := post(t, sbase+"/ask", `{}`, &exhausted); code != http.StatusOK || !exhausted.Done || len(exhausted.Rows) != 0 {
		t.Errorf("ask after exhaustion: status %d resp %+v", code, exhausted)
	}
	// Tell after exhaustion.
	if code := post(t, sbase+"/tell", `{"results": [{"row": 0, "score": 1, "cost": 0.1}]}`, &apiErr); code != http.StatusConflict {
		t.Errorf("tell after exhaustion: status %d", code)
	}

	// An over-constrained definition builds an empty space; sessions on
	// it are rejected cleanly (422), not a stepper panic.
	var emptyBuilt BuildResponse
	emptyDoc := `{"problem": {"name": "empty", "params": [{"name": "x", "values": [1, 2, 3]}], "constraints": ["x > 10"]}}`
	if code := post(t, ts.URL+"/v1/spaces", emptyDoc, &emptyBuilt); code != http.StatusOK || emptyBuilt.Size != 0 {
		t.Fatalf("empty space build: status %d size %d", code, emptyBuilt.Size)
	}
	for _, strat := range tuner.StrategyNames() {
		if code := post(t, ts.URL+"/v1/spaces/"+emptyBuilt.ID+"/sessions",
			fmt.Sprintf(`{"strategy": %q, "seed": 1, "budget": {"max_evals": 5}}`, strat), &apiErr); code != http.StatusUnprocessableEntity {
			t.Errorf("session on empty space with %s: status %d, want 422", strat, code)
		}
	}

	// A degenerate GA population (pop_size 1) terminates after its single
	// evaluation instead of wedging the session.
	ga1 := createSession(t, ts.URL, spaceID, `{"strategy": "genetic-algorithm", "seed": 2, "budget": {"max_evals": 50}, "params": {"pop_size": 1}}`)
	gaBest, _ := driveSession(t, ts.URL, spaceID, ga1.Session, measure, 4)
	if gaBest.Evaluations != 1 || !gaBest.Done {
		t.Errorf("degenerate GA session: %+v", gaBest)
	}

	// Unknown session id.
	if code := post(t, base+"/deadbeef/ask", `{}`, &apiErr); code != http.StatusNotFound {
		t.Errorf("unknown session: status %d", code)
	}
	// A real session addressed under the wrong space id is 404, not a
	// cross-space leak.
	var otherBuilt BuildResponse
	post(t, ts.URL+"/v1/spaces", buildBody("other-space", ""), &otherBuilt)
	if code := post(t, ts.URL+"/v1/spaces/"+otherBuilt.ID+"/sessions/"+created.Session+"/ask", `{}`, &apiErr); code != http.StatusNotFound {
		t.Errorf("session under wrong space: status %d", code)
	}

	// Evicted space: session survives in the table, space forced out by
	// new builds under MaxEntries=1 → 410 and the session dies.
	srvSmall, tsSmall := newTestServer(t, RegistryConfig{MaxEntries: 1})
	evictID := buildTuneSpace(t, tsSmall.URL, "evict")
	evicted := createSession(t, tsSmall.URL, evictID, `{"seed": 1, "budget": {"max_evals": 5}}`)
	// Build two other spaces to push the session's space out.
	for i := 0; i < 2; i++ {
		var built BuildResponse
		post(t, tsSmall.URL+"/v1/spaces", buildBody(fmt.Sprintf("filler%d", i), ""), &built)
		_ = post(t, tsSmall.URL+"/v1/spaces/"+built.ID+"/sample", `{"k": 1, "seed": 1}`, nil)
	}
	if _, ok := srvSmall.Registry().Lookup(evictID); ok {
		t.Fatal("space should have been evicted")
	}
	if code := post(t, tsSmall.URL+"/v1/spaces/"+evictID+"/sessions/"+evicted.Session+"/ask", `{}`, &apiErr); code != http.StatusGone {
		t.Errorf("ask on evicted space: status %d, want 410", code)
	}
	if !strings.Contains(apiErr.Error, "evicted") {
		t.Errorf("410 should explain the eviction: %q", apiErr.Error)
	}
	// The killed session stays loud: subsequent ops are still 410 (a
	// tombstone, not a resident stepper), and the table accounts it.
	if code := post(t, tsSmall.URL+"/v1/spaces/"+evictID+"/sessions/"+evicted.Session+"/ask", `{}`, &apiErr); code != http.StatusGone {
		t.Errorf("second ask on dead session: status %d, want 410", code)
	}
	if st := srvSmall.Sessions().Stats(); st.SpaceEvicted != 1 || st.Active != 0 {
		t.Errorf("space-eviction accounting: %+v", st)
	}

	// DELETE ends a session; a second DELETE is 404.
	delSess := createSession(t, ts.URL, spaceID, `{"seed": 9, "budget": {"max_evals": 5}}`)
	for i, want := range []int{http.StatusNoContent, http.StatusNotFound} {
		req, _ := http.NewRequest(http.MethodDelete, base+"/"+delSess.Session, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("delete #%d: status %d, want %d", i, resp.StatusCode, want)
		}
	}
}

// TestSessionStatsExposed checks the per-strategy metrics and session
// table counters surface in /v1/stats.
func TestSessionStatsExposed(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{})
	spaceID := buildTuneSpace(t, ts.URL, "stats")
	measure := kernelObjective(tuneDef("stats"), 2)
	created := createSession(t, ts.URL, spaceID, `{"strategy": "greedy-ils", "seed": 5, "budget": {"max_evals": 10}}`)
	driveSession(t, ts.URL, spaceID, created.Session, measure, 4)

	var snap MetricsSnapshot
	if code := get(t, ts.URL+"/v1/stats", &snap); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if snap.SessionTable.Created != 1 || snap.SessionTable.Active != 1 {
		t.Errorf("session table: %+v", snap.SessionTable)
	}
	var found *StrategySessionStats
	for i := range snap.Sessions {
		if snap.Sessions[i].Strategy == "greedy-ils" {
			found = &snap.Sessions[i]
		}
	}
	if found == nil {
		t.Fatalf("no greedy-ils session stats: %+v", snap.Sessions)
	}
	if found.Sessions != 1 || found.Evaluations != 10 || found.Completed != 1 {
		t.Errorf("greedy-ils stats: %+v", found)
	}
	if found.Asks == 0 || found.Tells == 0 || found.RowsProposed < found.Evaluations {
		t.Errorf("ask/tell accounting: %+v", found)
	}
}

// TestSessionConcurrentAskTell hammers one session from many goroutines
// under -race: the stepper must serialize, rejected tells must 409, and
// the evaluation budget must land exactly.
func TestSessionConcurrentAskTell(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{})
	spaceID := buildTuneSpace(t, ts.URL, "conc")
	created := createSession(t, ts.URL, spaceID, `{"strategy": "random-sampling", "seed": 7, "budget": {"max_evals": 60}}`)
	base := ts.URL + "/v1/spaces/" + spaceID + "/sessions/" + created.Session
	measure := kernelObjective(tuneDef("conc"), 3)

	var (
		wg        sync.WaitGroup
		conflicts atomic.Int64
	)
	const workers = 8
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				var ask AskResponse
				code := post(t, base+"/ask", `{"max": 3}`, &ask)
				if code != http.StatusOK {
					t.Errorf("ask: status %d", code)
					return
				}
				if len(ask.Rows) == 0 {
					return // done
				}
				results := make([]string, len(ask.Rows))
				for i, row := range ask.Rows {
					score, cost := measure(ask.Configs[i])
					results[i] = fmt.Sprintf(`{"row": %d, "score": %g, "cost": %g}`, row, score, cost)
				}
				var tell TellResponse
				code = post(t, base+"/tell", `{"results": [`+strings.Join(results, ",")+`]}`, &tell)
				switch code {
				case http.StatusOK:
				case http.StatusConflict:
					// Another worker told the same outstanding batch first.
					conflicts.Add(1)
				default:
					t.Errorf("tell: status %d", code)
					return
				}
			}
		}()
	}
	wg.Wait()
	var best BestResponse
	get(t, base+"/best", &best)
	if best.Evaluations != 60 {
		t.Errorf("evaluations = %d, want exactly the budget 60 (conflicts: %d)", best.Evaluations, conflicts.Load())
	}
	if best.Best == nil {
		t.Error("no best after 60 evaluations")
	}
}

// TestSessionCreateDuringEviction races session creation against
// registry LRU eviction under -race: every outcome must be a clean 200,
// 404, or 410 — never corruption or a wedged server.
func TestSessionCreateDuringEviction(t *testing.T) {
	_, ts := newTestServer(t, RegistryConfig{MaxEntries: 2})
	var wg sync.WaitGroup
	const workers = 6
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				var built BuildResponse
				if code := post(t, ts.URL+"/v1/spaces", buildBody(fmt.Sprintf("evict-race-%d", (w+i)%5), ""), &built); code != http.StatusOK {
					t.Errorf("build: status %d", code)
					continue
				}
				var created SessionCreateResponse
				code := post(t, ts.URL+"/v1/spaces/"+built.ID+"/sessions",
					`{"seed": 1, "budget": {"max_evals": 4}}`, &created)
				switch code {
				case http.StatusOK:
					// Drive one ask/tell round; eviction may land mid-flight.
					var ask AskResponse
					code := post(t, ts.URL+"/v1/spaces/"+built.ID+"/sessions/"+created.Session+"/ask", `{}`, &ask)
					if code != http.StatusOK && code != http.StatusGone && code != http.StatusNotFound {
						t.Errorf("ask during eviction: status %d", code)
					}
				case http.StatusNotFound, http.StatusGone:
					// The space was evicted between build and create.
				default:
					t.Errorf("create during eviction: status %d", code)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSessionTTL checks lazy TTL expiry, including expiry racing
// in-flight tells (the tell completes or 404s, never corrupts).
func TestSessionTTL(t *testing.T) {
	srv := NewServerObs(NewRegistry(RegistryConfig{}), SessionConfig{MaxSessions: 100, TTL: 30 * time.Millisecond}, DefaultObsConfig())
	ts := newHTTPServer(t, srv)
	spaceID := buildTuneSpace(t, ts, "ttl")
	created := createSession(t, ts, spaceID, `{"seed": 1, "budget": {"max_evals": 100}}`)
	base := ts + "/v1/spaces/" + spaceID + "/sessions/" + created.Session

	// Racing tells against expiry: workers loop ask/tell while the TTL
	// runs out between their requests.
	var wg sync.WaitGroup
	measure := kernelObjective(tuneDef("ttl"), 1)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				var ask AskResponse
				code := post(t, base+"/ask", `{}`, &ask)
				if code == http.StatusNotFound {
					return // expired
				}
				if code != http.StatusOK {
					t.Errorf("ask: status %d", code)
					return
				}
				if len(ask.Rows) == 0 {
					return
				}
				score, cost := measure(ask.Configs[0])
				code = post(t, base+"/tell", fmt.Sprintf(`{"results": [{"row": %d, "score": %g, "cost": %g}]}`, ask.Rows[0], score, cost), nil)
				if code != http.StatusOK && code != http.StatusConflict && code != http.StatusNotFound {
					t.Errorf("tell: status %d", code)
					return
				}
				if i > 2 {
					time.Sleep(40 * time.Millisecond) // let the TTL lapse
				}
			}
		}()
	}
	wg.Wait()

	// The idle session is gone now.
	time.Sleep(40 * time.Millisecond)
	var apiErr apiError
	if code := post(t, base+"/ask", `{}`, &apiErr); code != http.StatusNotFound {
		t.Errorf("expired session: status %d, want 404", code)
	}
	if st := srv.Sessions().Stats(); st.ExpiredTTL == 0 || st.Active != 0 {
		t.Errorf("TTL accounting: %+v", st)
	}
}

// TestSessionLRUEviction checks the session table's own capacity bound.
func TestSessionLRUEviction(t *testing.T) {
	srv := NewServerObs(NewRegistry(RegistryConfig{}), SessionConfig{MaxSessions: 2}, DefaultObsConfig())
	ts := newHTTPServer(t, srv)
	spaceID := buildTuneSpace(t, ts, "lru")
	var sids []string
	for i := 0; i < 3; i++ {
		created := createSession(t, ts, spaceID, fmt.Sprintf(`{"seed": %d, "budget": {"max_evals": 5}}`, i))
		sids = append(sids, created.Session)
	}
	var apiErr apiError
	if code := post(t, ts+"/v1/spaces/"+spaceID+"/sessions/"+sids[0]+"/ask", `{}`, &apiErr); code != http.StatusNotFound {
		t.Errorf("oldest session should be LRU-evicted: status %d", code)
	}
	for _, sid := range sids[1:] {
		var ask AskResponse
		if code := post(t, ts+"/v1/spaces/"+spaceID+"/sessions/"+sid+"/ask", `{}`, &ask); code != http.StatusOK {
			t.Errorf("young session evicted: status %d", code)
		}
	}
	if st := srv.Sessions().Stats(); st.EvictedLRU != 1 || st.Active != 2 {
		t.Errorf("LRU accounting: %+v", st)
	}
}

// newHTTPServer wraps an existing Server in httptest.
func newHTTPServer(t *testing.T, srv *Server) string {
	t.Helper()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestBuildCancellationOnDisconnect is the deferred PR-1 item: a client
// disconnecting during POST /v1/spaces aborts the in-flight
// construction and releases its build-semaphore slot.
func TestBuildCancellationOnDisconnect(t *testing.T) {
	reg := NewRegistry(RegistryConfig{MaxConcurrentBuilds: 1})

	// A definition whose search tree is huge (24M nodes) but whose valid
	// space is tiny: uncanceled it takes seconds, canceled it stops at
	// the next solver poll.
	slow := &model.Definition{
		Name: "slow",
		Params: []model.Param{
			model.RangeParam("a", 1, 30),
			model.RangeParam("b", 1, 30),
			model.RangeParam("c", 1, 30),
			model.RangeParam("d", 1, 30),
			model.RangeParam("e", 1, 30),
		},
		Constraints: []string{"a + b + c + d + e == 150"},
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := reg.GetOrBuild(ctx, slow, searchspace.Optimized)
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the build start
	cancel()

	select {
	case err := <-errCh:
		if err != context.Canceled {
			t.Fatalf("canceled build returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("GetOrBuild did not return after cancel")
	}

	// The slot must free promptly: a small build through the single-slot
	// semaphore completes instead of queueing behind a zombie.
	done := make(chan error, 1)
	go func() {
		_, _, err := reg.GetOrBuild(context.Background(), smallDef("after-cancel"), searchspace.Optimized)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("build after cancel: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("semaphore slot not released after cancellation")
	}

	// The abandoned construction is accounted.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Stats().Canceled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("canceled counter never incremented: %+v", reg.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := regLookupByDef(reg, slow); ok {
		t.Error("canceled build must not be cached")
	}
}

// TestBuildSurvivesOneOfManyDisconnecting: a joiner keeps a singleflight
// build alive when the initiator disconnects.
func TestBuildSurvivesOneOfManyDisconnecting(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	def := smallDef("shared")
	initiatorCtx, cancelInitiator := context.WithCancel(context.Background())

	initiatorErr := make(chan error, 1)
	go func() {
		_, _, err := reg.GetOrBuild(initiatorCtx, def, searchspace.Optimized)
		initiatorErr <- err
	}()
	joinerErr := make(chan error, 1)
	go func() {
		_, _, err := reg.GetOrBuild(context.Background(), def.Clone(), searchspace.Optimized)
		joinerErr <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancelInitiator()

	if err := <-joinerErr; err != nil {
		t.Fatalf("joiner must get the space whatever the initiator does: %v", err)
	}
	<-initiatorErr // either nil (build won the race) or context.Canceled
	// Whatever the race outcome, the space is (or becomes) servable.
	if _, _, err := reg.GetOrBuild(context.Background(), def.Clone(), searchspace.Optimized); err != nil {
		t.Fatalf("post-race build: %v", err)
	}
}

// TestBuildCancellationOverHTTP exercises the full path: an HTTP client
// disconnects mid-POST and the daemon's construction is torn down.
func TestBuildCancellationOverHTTP(t *testing.T) {
	srv, ts := newTestServer(t, RegistryConfig{})
	body := `{"problem": {
		"name": "slow-http",
		"params": [
			{"name": "a", "values": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30]},
			{"name": "b", "values": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30]},
			{"name": "c", "values": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30]},
			{"name": "d", "values": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30]},
			{"name": "e", "values": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30]}
		],
		"constraints": ["a + b + c + d + e == 150"]
	}}`
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/spaces", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Log("request completed before cancellation; build was fast enough")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Registry().Stats().Canceled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("disconnect did not cancel the build: %+v", srv.Registry().Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// regLookupByDef resolves a definition's entry if cached.
func regLookupByDef(reg *Registry, def *model.Definition) (*Entry, bool) {
	id, err := Fingerprint(def, searchspace.Optimized)
	if err != nil {
		return nil, false
	}
	return reg.Lookup(id)
}
