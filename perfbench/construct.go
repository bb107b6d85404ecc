package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"searchspace"
	"searchspace/internal/core"
	"searchspace/internal/model"
	"searchspace/internal/space"
)

// The construct workload is the paper's own measurement: repeated
// single-worker optimized builds of the eight Table 2 definitions
// through the public API, each client in its own seeded order per pass.
// It is the only workload where core does most of the work; service,
// store, tuner and the lazy indexes stay idle.

// hotspot is the suite member the per-layer ".hotspot" metrics follow.
const hotspot = "Hotspot"

type constructEnv struct {
	ref map[string]refSpace
}

func runConstruct(ctx context.Context, o options, rec *recorder) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, samples: map[string]int{}}
	env, setups, err := setUp(ctx, o, func() (constructEnv, error) {
		return constructSetup(o)
	}, func(constructEnv) error { return nil })
	if err != nil {
		return nil, err
	}
	if rec != nil {
		return out, constructTraced(ctx, o, env, rec, out)
	}

	// Each client stops after the pass in which its build time reaches
	// o.seconds, and all clients together have built minOps times, so
	// every definition is built equally often.
	type clientStats struct {
		lats        []float64
		busy        time.Duration
		rows        int64
		ops, failed int64
		checkErr    error
	}
	per := make([]clientStats, o.clients)
	var done atomic.Int64
	// Build failures are counted per op; a client never fails as a whole.
	_ = eachClient(o.clients, func(w int) error {
		cs := &per[w]
		suite := cloneSuite(o.suite)
		rng := rand.New(rand.NewSource(o.seed*7919 + int64(w)))
		for (cs.busy < o.seconds || done.Load() < minOps) && ctx.Err() == nil {
			for _, i := range rng.Perm(len(suite)) {
				def := suite[i]
				t0 := time.Now()
				ss, _, err := searchspace.FromDefinition(def).BuildWith(searchspace.BuildOpts{Method: searchspace.Optimized, Workers: 1})
				lat := time.Since(t0)
				cs.busy += lat
				cs.ops++
				done.Add(1)
				cs.lats = append(cs.lats, float64(lat)/1e6)
				if err == nil {
					cs.rows += int64(ss.Size())
					err = checkSpace(env.ref[def.Name], def, ss.Columns())
				}
				if err != nil {
					cs.failed++
					if cs.checkErr == nil {
						cs.checkErr = err
					}
				}
			}
		}
		return nil
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	var lats []float64
	var opsPerS, rows float64
	var busy time.Duration
	for _, cs := range per {
		lats = append(lats, cs.lats...)
		opsPerS += float64(cs.ops) / cs.busy.Seconds()
		rows += float64(cs.rows)
		busy += cs.busy
		out.attempted += cs.ops
		out.failed += cs.failed
		if out.checkErr == nil {
			out.checkErr = cs.checkErr
		}
	}
	out.metrics["ops_per_s"] = opsPerS
	out.metrics["latency_p50_ms"] = quantile(lats, 0.5)
	out.metrics["latency_p99_ms"] = quantile(lats, 0.99)
	out.metrics["configs_per_s"] = rows / busy.Seconds()
	out.samples["latency_ms"] = len(lats)
	out.putUntraced(setups, rss)
	return out, nil
}

// constructSetup loads the reference answers and warms up with one
// verified build of every definition.
func constructSetup(o options) (constructEnv, error) {
	ref, err := loadReference(o.refPath)
	if err != nil {
		return constructEnv{}, err
	}
	for _, def := range o.suite {
		want, ok := ref[def.Name]
		if !ok {
			return constructEnv{}, fmt.Errorf("reference has no answer for %s", def.Name)
		}
		ss, _, err := searchspace.FromDefinition(def).BuildWith(searchspace.BuildOpts{Method: searchspace.Optimized, Workers: 1})
		if err != nil {
			return constructEnv{}, fmt.Errorf("warm-up build %s: %w", def.Name, err)
		}
		if err := checkSpace(want, def, ss.Columns()); err != nil {
			return constructEnv{}, fmt.Errorf("warm-up: %w", err)
		}
	}
	return constructEnv{ref: ref}, nil
}

func cloneSuite(suite []*model.Definition) []*model.Definition {
	out := make([]*model.Definition, len(suite))
	for i, d := range suite {
		out[i] = d.Clone()
	}
	return out
}

// layerBuild is one traced build: BuildWith's work, one layer call at a
// time, each timed by its own span.
type layerBuild struct {
	toProblem, compile, enumerate, materialize time.Duration
	es                                         core.EnumStats
	allocBytes                                 uint64
	total                                      time.Duration
	sp                                         *space.Space
}

// buildByLayer repeats what BuildWith{Optimized, Workers: 1} does,
// calling each layer directly: validate and lower the definition
// (model, expr), compile and enumerate (core), wrap the columns
// (space).
func buildByLayer(def *model.Definition, rec *recorder) (layerBuild, error) {
	var lb layerBuild
	a0 := allocBytes()
	root := rec.newID()
	t0 := time.Now()
	if err := def.Validate(); err != nil {
		return lb, err
	}
	prob, err := def.ToProblem()
	if err != nil {
		return lb, err
	}
	t1 := time.Now()
	compiled := prob.Compile(core.DefaultOptions())
	t2 := time.Now()
	col, es, _ := compiled.SolveColumnarStatsSink(nil, nil)
	t3 := time.Now()
	sp, err := space.FromColumnar(def, col)
	if err != nil {
		return lb, err
	}
	t4 := time.Now()
	lb = layerBuild{toProblem: t1.Sub(t0), compile: t2.Sub(t1), enumerate: t3.Sub(t2), materialize: t4.Sub(t3),
		es: es, allocBytes: allocBytes() - a0, sp: sp}
	rec.record(rec.newID(), root, "model.to_problem", t0, t1, nil)
	rec.record(rec.newID(), root, "core.compile", t1, t2, nil)
	rec.record(rec.newID(), root, "core.enumerate", t2, t3, map[string]int64{
		"nodes": es.Nodes + es.Blocks, "blocks": es.Blocks, "rows": int64(sp.Size())})
	rec.record(rec.newID(), root, "space.materialize", t3, t4, nil)
	rec.record(root, 0, "build."+def.Name, t0, time.Now(), map[string]int64{"alloc_bytes": int64(lb.allocBytes)})
	lb.total = time.Since(t0)
	return lb, nil
}

// constructTraced is the traced construct run. One client builds every
// definition twice per pass, once through BuildWith (the untraced arm)
// and once layer by layer with spans (the traced arm), in alternating
// order, until its build time reaches o.seconds. A single client keeps
// the per-build allocation counts exact.
func constructTraced(ctx context.Context, o options, env constructEnv, rec *recorder, out *outcome) error {
	rec.on.Store(true)
	type passSums struct {
		raw map[string]float64
		n   int
	}
	var passes []passSums
	hot := map[string][]float64{}
	var withLats, layerLats []float64
	var busy time.Duration
	suite := cloneSuite(o.suite)
	rng := rand.New(rand.NewSource(o.seed * 7919))
	g0 := readGoStats()
	for pass := 0; busy < o.seconds && ctx.Err() == nil; pass++ {
		ps := passSums{raw: map[string]float64{}}
		for _, i := range rng.Perm(len(suite)) {
			def := suite[i]
			var with time.Duration
			var lb layerBuild
			var withSpace *searchspace.SearchSpace
			var errWith, errLayer error
			buildWith := func() {
				t0 := time.Now()
				withSpace, _, errWith = searchspace.FromDefinition(def).BuildWith(searchspace.BuildOpts{Method: searchspace.Optimized, Workers: 1})
				with = time.Since(t0)
			}
			if pass%2 == 0 {
				buildWith()
				lb, errLayer = buildByLayer(def, rec)
			} else {
				lb, errLayer = buildByLayer(def, rec)
				buildWith()
			}
			busy += with + lb.total
			out.attempted += 2
			if errWith == nil {
				errWith = checkSpace(env.ref[def.Name], def, withSpace.Columns())
			}
			if errLayer == nil {
				errLayer = checkSpace(env.ref[def.Name], def, lb.sp.Columns())
			}
			for _, err := range []error{errWith, errLayer} {
				if err != nil {
					out.fail(err)
				}
			}
			if errWith != nil || errLayer != nil {
				continue
			}
			withLats = append(withLats, ms(with))
			layerLats = append(layerLats, ms(lb.total))
			raw := map[string]float64{
				"model.to_problem_ms":  ms(lb.toProblem),
				"core.compile_ms":      ms(lb.compile),
				"core.enumerate_ms":    ms(lb.enumerate),
				"core.nodes":           float64(lb.es.Nodes + lb.es.Blocks),
				"core.blocks":          float64(lb.es.Blocks),
				"space.materialize_ms": ms(lb.materialize),
				"build.buildwith_ms":   ms(with),
				"build.layer_sum_ms":   ms(lb.toProblem + lb.compile + lb.enumerate + lb.materialize),
				"rows":                 float64(lb.sp.Size()),
				"alloc_mb":             float64(lb.allocBytes) / 1e6,
			}
			for k, v := range raw {
				ps.raw[k] += v
			}
			ps.n++
			if def.Name == hotspot {
				for k, v := range layerMetrics(raw, 1) {
					hot[k] = append(hot[k], v)
				}
			}
		}
		if ps.n == len(suite) {
			passes = append(passes, ps)
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	putGCMetrics(out.metrics, g0, readGoStats())
	perPass := map[string][]float64{}
	for _, ps := range passes {
		for k, v := range layerMetrics(ps.raw, ps.n) {
			perPass[k] = append(perPass[k], v)
		}
	}
	for k, v := range perPass {
		out.metrics[k] = median(v)
	}
	for k, v := range hot {
		if k != "build.unattributed_pct" {
			out.metrics[k+".hotspot"] = median(v)
		}
	}
	out.samples["passes"] = len(passes)
	out.samples["hotspot_builds"] = len(hot["core.nodes"])
	out.metrics["trace.overhead_p50_pct"] = pctDiff(quantile(layerLats, 0.5), quantile(withLats, 0.5))
	out.metrics["trace.overhead_ops_pct"] = (1 - sum(withLats)/sum(layerLats)) * 100
	return nil
}

// layerMetrics turns raw per-layer sums over builds builds into the
// reported per-layer metrics.
func layerMetrics(raw map[string]float64, builds int) map[string]float64 {
	m := map[string]float64{}
	for k, v := range raw {
		if k != "rows" && k != "alloc_mb" {
			m[k] = v
		}
	}
	m["core.ns_per_node"] = raw["core.enumerate_ms"] * 1e6 / raw["core.nodes"]
	m["core.rows_per_node"] = raw["rows"] / raw["core.nodes"]
	m["go.alloc_mb_per_build"] = raw["alloc_mb"] / float64(builds)
	m["build.unattributed_pct"] = (raw["build.buildwith_ms"] - raw["build.layer_sum_ms"]) / raw["build.buildwith_ms"] * 100
	return m
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
