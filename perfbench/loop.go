package main

import (
	"context"
	"errors"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// minOps is the fewest ops a timed phase completes, so that at least ten
// latency samples lie beyond p99; a phase that has not reached it by the
// deadline runs on until it has.
const minOps = 1000

// setUp runs a workload's set-up o.setupReps times and keeps the last.
// The first set-up is timed from process start. Each earlier one is
// torn down and its heap collected and returned to the operating system
// before the next starts, untimed, so that every later set-up starts
// from as little memory as the first; what only a fresh process pays
// (its start and first use of each code path) is in the first set-up
// alone. It returns the kept set-up and every set-up's duration in
// seconds.
func setUp[T any](ctx context.Context, o options, setup func() (T, error), teardown func(T) error) (T, []float64, error) {
	var env, zero T
	var secs []float64
	t0 := o.start
	for rep := 0; rep < o.setupReps; rep++ {
		if rep > 0 {
			if err := teardown(env); err != nil {
				return zero, nil, err
			}
			debug.FreeOSMemory()
			t0 = time.Now()
		}
		var err error
		if env, err = setup(); err != nil {
			return zero, nil, err
		}
		if err := ctx.Err(); err != nil {
			return zero, nil, errors.Join(err, teardown(env))
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return env, secs, nil
}

// eachClient runs f for clients 0 to n-1 concurrently, waits for all,
// and joins their errors.
func eachClient(n int, f func(w int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = f(w)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// opResult is one timed op of a closed loop.
type opResult struct {
	route  string
	lat    time.Duration
	traced bool
	err    error
}

// traceBlock is how long each traced or untraced block of a traced run
// lasts; short blocks spread drift in the workload's state evenly over
// both arms.
const traceBlock = 250 * time.Millisecond

// loopResult is what closedLoops measured.
type loopResult struct {
	ops     []opResult
	elapsed time.Duration
	// tracedTime is the part of elapsed spent in traced blocks.
	tracedTime time.Duration
}

// closedLoops runs o.clients closed loops for o.seconds, and past them
// until minOps ops completed: each client sends its next op only after
// the previous one completed. Client w draws its inputs from its own
// generator seeded by (seed, w). In a traced run the recorder is
// switched on and off every traceBlock.
func closedLoops(ctx context.Context, o options, rec *recorder, op func(ctx context.Context, w int, rng *rand.Rand) opResult) loopResult {
	start := time.Now()
	deadline := start.Add(o.seconds)
	per := make([][]opResult, o.clients)
	var done atomic.Int64
	loops := func() {
		// Op failures are recorded per op; a client never fails as a whole.
		_ = eachClient(o.clients, func(w int) error {
			rng := rand.New(rand.NewSource(o.seed*7919 + int64(w)))
			for ctx.Err() == nil && (time.Now().Before(deadline) || done.Load() < minOps) {
				per[w] = append(per[w], op(ctx, w, rng))
				done.Add(1)
			}
			return nil
		})
	}
	var tracedTime time.Duration
	if rec != nil {
		stop := make(chan struct{})
		toggled := make(chan time.Duration)
		go func() {
			var traced time.Duration
			t := time.NewTicker(traceBlock)
			defer t.Stop()
			blockStart := time.Now()
			for {
				select {
				case <-stop:
					if rec.on.Load() {
						traced += time.Since(blockStart)
					}
					rec.on.Store(false)
					toggled <- traced
					return
				case now := <-t.C:
					if rec.on.Load() {
						traced += now.Sub(blockStart)
					}
					blockStart = now
					rec.on.Store(!rec.on.Load())
				}
			}
		}()
		loops()
		close(stop)
		tracedTime = <-toggled
	} else {
		loops()
	}
	res := loopResult{elapsed: time.Since(start), tracedTime: tracedTime}
	for _, ops := range per {
		res.ops = append(res.ops, ops...)
	}
	return res
}

// putLoopMetrics records the end-to-end metrics every closed loop
// yields: throughput, latency quantiles and the success rate. In a
// traced run it records the tracing overhead between the two arms
// instead.
func putLoopMetrics(out *outcome, lr loopResult, traced bool) {
	var all, on, off []float64
	for _, r := range lr.ops {
		ms := float64(r.lat) / 1e6
		all = append(all, ms)
		if r.traced {
			on = append(on, ms)
		} else {
			off = append(off, ms)
		}
	}
	out.samples["latency_ms"] = len(all)
	if traced {
		offTime := (lr.elapsed - lr.tracedTime).Seconds()
		out.metrics["trace.overhead_p50_pct"] = pctDiff(quantile(on, 0.5), quantile(off, 0.5))
		if offTime > 0 && lr.tracedTime > 0 {
			out.metrics["trace.overhead_ops_pct"] = -pctDiff(float64(len(on))/lr.tracedTime.Seconds(), float64(len(off))/offTime)
		}
		out.samples["traced_ops"], out.samples["untraced_ops"] = len(on), len(off)
		return
	}
	out.metrics["ops_per_s"] = float64(len(lr.ops)) / lr.elapsed.Seconds()
	out.metrics["latency_p50_ms"] = quantile(all, 0.5)
	out.metrics["latency_p99_ms"] = quantile(all, 0.99)
}
