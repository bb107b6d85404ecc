package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"searchspace/internal/obs"
)

// slowDoc is a definition whose construction takes long enough to
// observe mid-flight: six 20-value parameters under one constraint
// that binds only at the deepest level, so the kernel must walk the
// full ~67M-node tree while the tight sum keeps the valid row count
// (and thus memory) tiny.
func slowDoc(name string) string {
	vals := make([]string, 20)
	for i := range vals {
		vals[i] = fmt.Sprintf("%d", i+1)
	}
	list := strings.Join(vals, ", ")
	return fmt.Sprintf(`{
		"name": %q,
		"params": [
			{"name": "a", "values": [%s]},
			{"name": "b", "values": [%s]},
			{"name": "c", "values": [%s]},
			{"name": "d", "values": [%s]},
			{"name": "e", "values": [%s]},
			{"name": "f", "values": [%s]}
		],
		"constraints": ["a + b + c + d + e + f <= 36"]
	}`, name, list, list, list, list, list, list)
}

// TestLiveBuildProgress drives a slow build and watches it through
// GET /v1/builds: the in-flight row must appear with the initiating
// request id, publish its task denominator, advance done and the live
// node counter monotonically, and vanish on completion — at which
// point the journal holds the build_start/build_finish pair and the
// request id resolves to a trace.
func TestLiveBuildProgress(t *testing.T) {
	cfg := RegistryConfig{BuildWorkers: 2, MaxConcurrentBuilds: 2}
	_, ts := newObsTestServer(t, cfg, DefaultObsConfig())

	const reqID = "livebuild-1"
	buildDone := make(chan string, 1) // carries the space id
	go func() {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/spaces", strings.NewReader(
			fmt.Sprintf(`{"problem": %s, "workers": 2}`, slowDoc("live"))))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-ID", reqID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			buildDone <- ""
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var br BuildResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &br) != nil {
			buildDone <- ""
			return
		}
		buildDone <- br.ID
	}()

	var (
		sawInFlight  bool
		sawTotal     int64
		maxDone      int64
		maxNodes     int64
		sawRequestID bool
	)
	deadline := time.After(30 * time.Second)
poll:
	for {
		select {
		case id := <-buildDone:
			if id == "" {
				t.Fatal("slow build failed")
			}
			buildDone <- id
			break poll
		case <-deadline:
			t.Fatal("slow build did not finish in 30s")
		default:
		}
		var br BuildsResponse
		if code := get(t, ts.URL+"/v1/builds", &br); code != http.StatusOK {
			t.Fatalf("GET /v1/builds: HTTP %d", code)
		}
		for _, op := range br.Builds {
			if op.Kind != "build" {
				continue
			}
			sawInFlight = true
			if op.RequestID == reqID {
				sawRequestID = true
			}
			if op.Total > 0 {
				sawTotal = op.Total
			}
			if op.Done < maxDone {
				t.Fatalf("done moved backward: %d after %d", op.Done, maxDone)
			}
			maxDone = op.Done
			if op.Done > op.Total && op.Total > 0 {
				t.Fatalf("done %d exceeds total %d", op.Done, op.Total)
			}
			if op.Nodes < maxNodes {
				t.Fatalf("node counter moved backward: %d after %d", op.Nodes, maxNodes)
			}
			maxNodes = op.Nodes
			if op.ElapsedSeconds < 0 {
				t.Fatalf("negative elapsed: %v", op.ElapsedSeconds)
			}
		}
		time.Sleep(time.Millisecond)
	}
	spaceID := <-buildDone

	if !sawInFlight {
		t.Fatal("build never appeared in /v1/builds")
	}
	if !sawRequestID {
		t.Fatal("in-flight row never carried the initiating request id")
	}
	if sawTotal <= 1 {
		t.Fatalf("live total = %d, want the parallel task denominator > 1", sawTotal)
	}
	if maxNodes <= 0 {
		t.Fatal("live node counter never advanced")
	}

	// Completed: the table drains.
	var after BuildsResponse
	get(t, ts.URL+"/v1/builds", &after)
	for _, op := range after.Builds {
		if op.Kind == "build" && op.SpaceID == spaceID {
			t.Fatalf("completed build still listed: %+v", op)
		}
	}

	// The journal holds the build_start/build_finish pair, cause and
	// request id attached.
	var ev EventsResponse
	if code := get(t, ts.URL+"/v1/events?type=build_finish", &ev); code != http.StatusOK {
		t.Fatalf("GET /v1/events: HTTP %d", code)
	}
	found := false
	for _, e := range ev.Events {
		if e.SpaceID == spaceID {
			found = true
			if e.RequestID != reqID {
				t.Fatalf("build_finish request id = %q, want %q", e.RequestID, reqID)
			}
			if e.Attrs["valid"] <= 0 {
				t.Fatalf("build_finish should carry the valid count, got %v", e.Attrs)
			}
		}
	}
	if !found {
		t.Fatalf("no build_finish event for %s: %+v", spaceID, ev.Events)
	}
	var starts EventsResponse
	get(t, ts.URL+"/v1/events?type=build_start", &starts)
	if len(starts.Events) == 0 {
		t.Fatal("no build_start events")
	}

	// The event's request id cross-links to the finished trace.
	var tr obs.Trace
	if code := get(t, ts.URL+"/v1/trace/"+reqID, &tr); code != http.StatusOK {
		t.Fatalf("trace for %s: HTTP %d", reqID, code)
	}

	// Attribution: the space now has a usage row with one build.
	var usage SpaceUsageDoc
	if code := get(t, ts.URL+"/v1/spaces/"+spaceID+"/stats", &usage); code != http.StatusOK {
		t.Fatalf("space stats: HTTP %d", code)
	}
	if usage.Builds != 1 || usage.BuildNanos <= 0 {
		t.Fatalf("usage row should attribute the build: %+v", usage)
	}
	if !usage.Resident {
		t.Fatal("freshly built space should be resident")
	}
}

// TestOpsHammer runs concurrent slow-ish builds, client disconnects,
// and demotion churn while pollers read /v1/builds, /v1/events, and
// /metrics. Run under -race this pins the lock discipline of the op
// table, journal, and attribution map; the assertions pin monotonic
// progress, done <= total, and zero event loss below ring capacity.
func TestOpsHammer(t *testing.T) {
	cfg := RegistryConfig{
		Store:               openTestStore(t, t.TempDir()),
		MaxEntries:          2,
		MaxConcurrentBuilds: 4,
		BuildWorkers:        2,
	}
	srv, ts := newObsTestServer(t, cfg, ObsConfig{TraceBuffer: 1024, EventBuffer: 1024})

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	// Progress pollers: every observation must satisfy the invariants.
	for p := 0; p < 2; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			lastDone := map[int64]int64{}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/builds")
				if err != nil {
					t.Error(err)
					return
				}
				var br BuildsResponse
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err := json.Unmarshal(raw, &br); err != nil {
					t.Errorf("bad /v1/builds payload %s: %v", raw, err)
					return
				}
				for _, op := range br.Builds {
					if op.Total > 0 && op.Done > op.Total {
						t.Errorf("op %d: done %d > total %d", op.ID, op.Done, op.Total)
					}
					if prev, ok := lastDone[op.ID]; ok && op.Done < prev {
						t.Errorf("op %d: done moved backward %d -> %d", op.ID, prev, op.Done)
					}
					lastDone[op.ID] = op.Done
				}
			}
		}()
	}
	// Event and metrics pollers: must never error or race.
	pollers.Add(1)
	go func() {
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, url := range []string{ts.URL + "/v1/events?n=100", ts.URL + "/metrics", ts.URL + "/v1/stats"} {
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()

	// The churn: distinct defs (MaxEntries 2 forces demotions), a mix of
	// patient clients and ones that disconnect mid-build.
	var clients sync.WaitGroup
	for w := 0; w < 6; w++ {
		clients.Add(1)
		go func(w int) {
			defer clients.Done()
			for i := 0; i < 8; i++ {
				// Vary the constraint bound: the fingerprint hashes the
				// structure, not the name, so each seed is a distinct
				// space and MaxEntries=2 forces demotion churn.
				body := fmt.Sprintf(`{"problem": {
					"name": "hammer-%d-%d",
					"params": [
						{"name": "x", "values": [1, 2, 4, 8, 16, 32]},
						{"name": "y", "values": [1, 2, 4, 8]}
					],
					"constraints": ["x * y <= %d"]
				}}`, w, i, 8+w*8+i)
				if i%4 == 3 {
					// Impatient client: cancel quickly; the server must
					// cancel or complete without wedging.
					ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
					req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/spaces", strings.NewReader(body))
					req.Header.Set("Content-Type", "application/json")
					resp, err := http.DefaultClient.Do(req)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					cancel()
					continue
				}
				resp, err := http.Post(ts.URL+"/v1/spaces", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	clients.Wait()
	close(stop)
	pollers.Wait()

	// The op table must drain once the hammer stops. A build whose
	// clients all disconnected finishes on its own after they return,
	// so wait for that before reading the journal.
	for deadline := time.Now().Add(10 * time.Second); len(srv.Registry().ActiveOps()) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("op table did not drain: %+v", srv.Registry().ActiveOps())
		}
	}

	// Zero loss below capacity: everything recorded is still listable.
	// The count is read before the listing, so the listing covers
	// everything it counted.
	var snap MetricsSnapshot
	get(t, ts.URL+"/v1/stats", &snap)
	var ev EventsResponse
	if code := get(t, ts.URL+"/v1/events?n=1024", &ev); code != http.StatusOK {
		t.Fatalf("GET /v1/events: HTTP %d", code)
	}
	if snap.Events == nil {
		t.Fatal("stats snapshot has no journal section")
	}
	if snap.Events.Recorded <= 0 {
		t.Fatal("hammer recorded no lifecycle events")
	}
	if snap.Events.Recorded <= int64(snap.Events.Capacity) && len(ev.Events) < int(snap.Events.Recorded) {
		t.Fatalf("journal lost events below capacity: recorded %d, listed %d", snap.Events.Recorded, len(ev.Events))
	}
	byType := map[string]int64{}
	for typ, n := range snap.Events.ByType {
		byType[typ] = n
	}
	if byType["build_finish"] == 0 {
		t.Fatalf("no build_finish events after the hammer: %v", byType)
	}
	// Demotion churn with MaxEntries 2 must have evicted into the store.
	if byType["demote"] == 0 {
		t.Fatalf("no demote events despite MaxEntries=2 churn: %v", byType)
	}

	// Cross-links: every build_finish event's request id resolves to a
	// completed trace (the ring outsizes the request count).
	checked := 0
	for _, e := range ev.Events {
		if e.Type != "build_finish" || e.RequestID == "" {
			continue
		}
		if _, ok := srv.tracer.Get(e.RequestID); !ok {
			t.Fatalf("build_finish event %d: request id %q resolves to no trace", e.Seq, e.RequestID)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no build_finish events carried request ids")
	}
}
