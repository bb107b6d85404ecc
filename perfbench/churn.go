package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"searchspace"
	"searchspace/internal/model"
	"searchspace/internal/service"
	"searchspace/internal/store"
)

// The churn workload is the write-heavy use of the registry that tune
// reads from: a seeded stream of submissions and describe/sample
// queries over a catalogue of Table 2 definitions, tightened variants
// (answered by restricting a cached superset), and loosened variants
// (a fresh solve). Registry capacity is below the catalogue, so
// evictions demote spaces to a snapshot store in a temporary directory
// and later requests restore them. The lazy indexes and sessions stay
// idle.

// The registry holds churnSpaces spaces and the snapshot store
// churnStoreBytes of blobs, both well below the catalogue (35 spaces,
// about 220 MB of snapshots), so demotions, restores and misses are
// steady traffic: a space the store garbage-collected is solved or
// restricted again. The memory tier is bounded by the space count
// alone: with the daemon's default 4 GiB byte budget, admission charges
// each in-flight build by its cartesian size (about 25 GB for a Hotspot
// variant), so two concurrent misses of large definitions are refused
// with 503.
const (
	churnSpaces     = 6
	churnStoreBytes = 160 << 20
)

// churnVariants derives the catalogue from the Table 2 definitions.
// Each tightened variant adds "p != <p's last value>"; each loosened one
// drops a constraint. They were chosen so that every variant stays
// within about 1.7 times its base's size and its chain-of-trees check
// stays cheap; ATF PRL 8x8, whose chain-of-trees build takes seconds,
// is submitted only as itself.
var churnVariants = map[string]struct{ tighten, drop []string }{
	"Dedispersion": {[]string{"block_size_y", "unroll_factor"},
		[]string{"items_per_thread_x * items_per_thread_y <= 32", "items_per_thread_x * items_per_thread_y >= 2"}},
	"ExpDist": {[]string{"tile_size_x", "use_shared_mem"},
		[]string{"block_size_x * block_size_y >= 288"}},
	"Hotspot": {[]string{"block_size_y", "blocks_per_sm"},
		[]string{"block_size_x * block_size_y <= 1024", "block_size_x * block_size_y * blocks_per_sm <= 2048"}},
	"GEMM": {[]string{"MWG", "MDIMA"},
		[]string{"MWG % (MDIMC * VWM) == 0", "MWG % (MDIMA * VWM) == 0"}},
	"MicroHH": {[]string{"tile_factor_x", "blocks_per_mp"},
		[]string{"block_size_x * block_size_y >= 16", "block_size_x * tile_factor_x <= 2048"}},
	"ATF PRL 2x2": {[]string{"chunk_1", "chunk_2"},
		[]string{"wg_r_1 % tile_r_1 == 0", "cache_r_1 * tile_c_1 * chunk_1 <= 1"}},
	"ATF PRL 4x4": {[]string{"wg_r_1", "chunk_1"},
		[]string{"wg_r_1 * wg_c_1 % chunk_1 == 0", "wg_r_1 % tile_r_1 == 0"}},
	"ATF PRL 8x8": {},
}

type churnDef struct {
	def  *model.Definition
	base bool
	// solved is set when no other catalogue definition is a superset of
	// this one (a loosened variant, or a base without any), so that the
	// registry can only answer it by solving.
	solved bool
	body   []byte
}

// churnCatalogue lists every definition the stream may submit.
func churnCatalogue(suite []*model.Definition) ([]churnDef, error) {
	var out []churnDef
	add := func(def *model.Definition, base, solved bool) error {
		doc, err := service.EncodeProblem(def)
		if err != nil {
			return err
		}
		body, err := buildBody(doc)
		out = append(out, churnDef{def: def, base: base, solved: solved, body: body})
		return err
	}
	for _, base := range suite {
		v, ok := churnVariants[base.Name]
		if !ok {
			continue
		}
		if err := add(base, true, len(v.drop) == 0); err != nil {
			return nil, err
		}
		for _, name := range v.tighten {
			p, ok := base.ParamIndex(name)
			if !ok {
				return nil, fmt.Errorf("%s has no parameter %q", base.Name, name)
			}
			d := base.Clone()
			vals := d.Params[p].Values
			d.Name += " tightened on " + name
			d.Constraints = append(d.Constraints, fmt.Sprintf("%s != %s", name, vals[len(vals)-1]))
			if err := add(d, false, false); err != nil {
				return nil, err
			}
		}
		for _, c := range v.drop {
			i := slices.Index(base.Constraints, c)
			if i < 0 {
				return nil, fmt.Errorf("%s has no constraint %q", base.Name, c)
			}
			d := base.Clone()
			d.Name += " without " + c
			d.Constraints = slices.Delete(d.Constraints, i, i+1)
			if err := add(d, false, true); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// churnAnswer is one submission's or query's answer, checked after the
// timed phase.
type churnAnswer struct {
	def  int // catalogue index
	size int
	// rows is a sample's draw; nil for submissions and describes.
	rows [][]int
	k    int
}

// stream is one client's place in its seeded rounds. A round submits
// every catalogue definition once and queries every one twice, in
// seeded orders, one submission then two queries, so every run has the
// same mix of definitions whatever the seed. This ratio, like the
// variant catalogue, is an assumption, not measured traffic.
type stream struct {
	submit, query []int
	pos           int
}

type churnEnv struct {
	serving
	cat []churnDef
	ref map[string]refSpace

	// known[w], streams[w] and answers[w] belong to client w. known[w][i]
	// is the id client w was answered for catalogue definition i; a
	// client queries only ids it was answered itself, so its inputs
	// depend on the seed alone, not on the other client's timing.
	known   [][]string
	streams []stream
	answers [][]churnAnswer
	// recording is set before the timed phase; only its answers are
	// verified, and only the set-up's fresh solves count towards
	// configs_per_s.
	recording bool

	mu  sync.Mutex
	ids map[string]int // space id -> catalogue index
	// solves maps each catalogue definition marked solved to the rows
	// and build seconds of the set-up's first solve of it.
	solves map[int]solve
}

type solve struct {
	rows int
	secs float64
}

func runChurn(ctx context.Context, o options, rec *recorder) (_ *outcome, err error) {
	out := &outcome{metrics: map[string]float64{}, samples: map[string]int{}}
	// configs_per_s is over every set-up's first solve of each
	// definition that can only be solved: each set-up submits the whole
	// catalogue to an empty registry, so these are the same solves on
	// every run, while how often the timed phase solves afresh depends on
	// what the store happened to collect. A definition's build time is
	// its median over the set-ups, as the two clients' solves overlap
	// differently in each.
	rows, secs := map[int]int{}, map[int][]float64{}
	env, setups, err := setUp(ctx, o, func() (*churnEnv, error) {
		e, err := churnSetup(ctx, o, rec)
		if err != nil {
			return nil, err
		}
		for i, s := range e.solves {
			rows[i] = s.rows
			secs[i] = append(secs[i], s.secs)
		}
		return e, nil
	}, func(e *churnEnv) error { return e.close() })
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, env.close()) }()

	stats0, err := fetchStats(ctx, env.c)
	if err != nil {
		return nil, err
	}
	prom0, err := fetchProm(ctx, env.c)
	if err != nil {
		return nil, err
	}
	g0 := readGoStats()
	var from int64
	if rec != nil {
		from = rec.since(time.Now())
	}
	env.recording = true
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
	prom1, err := fetchProm(ctx, env.c)
	if err != nil {
		return nil, err
	}

	// Verification, after the timed phase: every answered size against a
	// chain-of-trees build of the same definition (or, for the Table 2
	// definitions, the committed reference, itself from chain-of-trees).
	bad, err := env.verify(ctx, o)
	if err != nil {
		return nil, err
	}
	for i, r := range lr.ops {
		out.attempted++
		if r.err == nil {
			r.err = bad[i]
		}
		if r.err != nil {
			out.fail(r.err)
		}
	}
	putLoopMetrics(out, lr, rec != nil)
	if rec == nil {
		out.putUntraced(setups, rss)
		var sumRows, sumSecs float64
		for i, n := range rows {
			sumRows += float64(n)
			sumSecs += median(secs[i])
		}
		out.metrics["configs_per_s"] = sumRows / sumSecs
		return out, nil
	}
	putGCMetrics(out.metrics, g0, g1)
	putRegistryMetrics(out.metrics, stats0, stats1)
	putPhaseMetrics(out.metrics, prom0, prom1)
	putHTTPMetrics(out, rec.snapshot(), from)
	return out, nil
}

// churnSetup starts a server over a fresh snapshot store, then warms up:
// every client submits the whole catalogue once.
func churnSetup(ctx context.Context, o options, rec *recorder) (_ *churnEnv, err error) {
	ref, err := loadReference(o.refPath)
	if err != nil {
		return nil, err
	}
	cat, err := churnCatalogue(o.suite)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workDir, "churn-store-")
	if err != nil {
		return nil, err
	}
	e := &churnEnv{cat: cat, ref: ref, ids: map[string]int{}, solves: map[int]solve{},
		known: make([][]string, o.clients), streams: make([]stream, o.clients), answers: make([][]churnAnswer, o.clients)}
	for w := range e.known {
		e.known[w] = make([]string, len(cat))
	}
	cfg := daemonDefaults()
	cfg.MaxEntries, cfg.MaxBytes = churnSpaces, 0
	if e.serving, err = serve(cfg, &store.Config{Dir: dir, MaxBytes: churnStoreBytes}, o.clients, rec); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, e.close())
		}
	}()
	// Warm-up: every client submits the whole catalogue once, in its own
	// seeded order, and checks the Table 2 sizes against the reference.
	err = eachClient(o.clients, func(w int) error {
		rng := rand.New(rand.NewSource(-o.seed*7919 - int64(w) - 1))
		for _, i := range rng.Perm(len(cat)) {
			r, size := e.submit(ctx, w, i)
			if r.err == nil && cat[i].base && size != ref[cat[i].def.Name].Rows {
				r.err = fmt.Errorf("%s has %d rows, reference has %d", cat[i].def.Name, size, ref[cat[i].def.Name].Rows)
			}
			if r.err != nil {
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

// op is client w's next step: a submission or a query (describe or
// sample, evenly) of the definition its round names next. A query
// whose space was evicted and whose snapshot the store has since
// collected gets 404; as the 404 asks, the client then re-submits the
// definition and queries again, all in the one op.
func (e *churnEnv) op(ctx context.Context, w int, rng *rand.Rand) opResult {
	st := &e.streams[w]
	n := len(e.cat)
	if st.submit == nil || st.pos == 3*n {
		st.submit, st.query, st.pos = rng.Perm(n), append(rng.Perm(n), rng.Perm(n)...), 0
	}
	k, i := st.pos%3, st.pos/3
	st.pos++
	def := st.submit[i]
	if k > 0 {
		def = st.query[2*i+k-1]
	}
	if k == 0 || e.known[w][def] == "" {
		r, _ := e.submit(ctx, w, def)
		return r
	}
	id := e.known[w][def]
	route, seed := "describe", int64(-1)
	if rng.Intn(2) == 1 {
		route, seed = "sample", rng.Int63n(1<<20)
	}
	traced := e.c.rec.enabled()
	start := time.Now()
	a, err := e.query(ctx, id, def, seed)
	var es errStatus
	if errors.As(err, &es) && es.code == http.StatusNotFound {
		var br service.BuildResponse
		if br, _, err = e.post(ctx, def); err == nil && br.ID != id {
			err = fmt.Errorf("re-submission of %q answered id %s, first answered %s", e.cat[def].def.Name, br.ID, id)
		}
		if err == nil {
			a, err = e.query(ctx, id, def, seed)
		}
	}
	lat := time.Since(start)
	e.note(w, a)
	return opResult{route: route, lat: lat, traced: traced, err: err}
}

// query describes the space (seed < 0) or samples it with the seed.
func (e *churnEnv) query(ctx context.Context, id string, def int, seed int64) (churnAnswer, error) {
	path := "/v1/spaces/" + id
	if seed < 0 {
		var dr service.DescribeResponse
		_, err := e.c.call(ctx, "describe", http.MethodGet, path, nil, &dr)
		return churnAnswer{def: def, size: dr.Size}, err
	}
	const k = 16
	var sr service.SampleResponse
	_, err := e.c.call(ctx, "sample", http.MethodPost, path+"/sample",
		mustJSON(service.SampleRequest{K: k, Seed: seed, RowsOnly: true}), &sr)
	return churnAnswer{def: def, size: -1, rows: [][]int{sr.Rows}, k: k}, err
}

// submit submits catalogue definition i and returns the answered size.
func (e *churnEnv) submit(ctx context.Context, w, i int) (opResult, int) {
	traced := e.c.rec.enabled()
	br, lat, err := e.post(ctx, i)
	if err == nil {
		e.known[w][i] = br.ID
	}
	e.note(w, churnAnswer{def: i, size: br.Size})
	return opResult{route: "build", lat: lat, traced: traced, err: err}, br.Size
}

// post sends catalogue definition i to POST /v1/spaces, checks that a
// definition always gets the same id, and counts the set-up's first
// solve of each definition marked solved towards configs_per_s.
func (e *churnEnv) post(ctx context.Context, i int) (service.BuildResponse, time.Duration, error) {
	var br service.BuildResponse
	lat, err := e.c.call(ctx, "build", http.MethodPost, "/v1/spaces", e.cat[i].body, &br)
	if err != nil {
		return br, lat, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if prev, seen := e.ids[br.ID]; !seen {
		e.ids[br.ID] = i
	} else if prev != i {
		err = fmt.Errorf("submission of %q answered with the id of %q", e.cat[i].def.Name, e.cat[prev].def.Name)
	}
	if _, counted := e.solves[i]; e.cat[i].solved && !br.Cached && !e.recording && !counted {
		e.solves[i] = solve{rows: br.Size, secs: br.Build.WallSeconds}
	}
	return br, lat, err
}

// note keeps an answer for verification; ops of the timed phase only.
func (e *churnEnv) note(w int, a churnAnswer) {
	if e.recording {
		e.answers[w] = append(e.answers[w], a)
	}
}

// verify checks every recorded answer and returns, per op in the order
// closedLoops returns them, the check failure or nil.
func (e *churnEnv) verify(ctx context.Context, o options) ([]error, error) {
	sizes := map[int]int{}
	for _, as := range e.answers {
		for _, a := range as {
			sizes[a.def] = -1
		}
	}
	for i := range sizes {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		cd := e.cat[i]
		if want, ok := e.ref[cd.def.Name]; ok && cd.base {
			sizes[i] = want.Rows
			continue
		}
		ss, _, err := searchspace.FromDefinition(cd.def).BuildWith(searchspace.BuildOpts{Method: searchspace.ChainOfTrees, Workers: o.clients})
		if err != nil {
			return nil, fmt.Errorf("chain-of-trees check of %q: %w", cd.def.Name, err)
		}
		sizes[i] = ss.Size()
	}
	var bad []error
	for _, as := range e.answers {
		for _, a := range as {
			var err error
			want := sizes[a.def]
			switch {
			case a.rows != nil:
				err = checkSample(e.cat[a.def].def.Name, a.rows, 1, min(a.k, want), want)
			case a.size != want:
				err = fmt.Errorf("%q: answered size %d, chain-of-trees gives %d", e.cat[a.def].def.Name, a.size, want)
			}
			bad = append(bad, err)
		}
	}
	return bad, nil
}
