package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ProgressSink receives live enumeration counters from inside a
// running solve. The kernel adds to it at its stop-poll cadence (every
// few thousand charged nodes) and at each task boundary, so a reader
// polling the atomics sees a build move in near real time without the
// kernel taking any lock. Nodes counts charged node visits — walked
// loop iterations plus each bulk block's whole subtree, with a leaf
// batch charged as the per-node walk over it; the same accounting the
// stop pacing uses — and Rows counts emitted solution
// rows. Both only ever grow; a canceled run stops adding but never
// subtracts. On the component-product path, Nodes grows by each
// component walk's charged nodes when that walk ends, and Rows by the
// whole row count when the product fill ends.
type ProgressSink struct {
	Nodes atomic.Int64
	Rows  atomic.Int64
}

// Exec configures how a construction run executes: how many workers
// enumerate the search tree, how the run is cancelled, and how progress
// is observed. It is the one execution contract shared by every
// construction backend — the optimized solver here and the
// chain-of-trees builder — so cancellation and parallelism compose the
// same way everywhere.
type Exec struct {
	// Workers is the number of goroutines enumerating concurrently;
	// <= 0 selects GOMAXPROCS, 1 runs the sequential solver unchanged.
	Workers int
	// Stop is polled cooperatively (per scheduled task and every few
	// thousand search-tree nodes within a task); a true return abandons
	// the run. Nil never cancels. Stop may be called concurrently from
	// several workers.
	Stop func() bool
	// OnProgress, when set, is invoked once when the run starts — with
	// done 0 and the task total, so observers learn the denominator
	// before any work completes — and again after each completed prefix
	// task. Calls arrive from worker goroutines concurrently and not
	// necessarily in order of the done count.
	OnProgress func(done, total int)
	// Sink, when set, receives live node/row counters from inside the
	// enumeration kernel; see ProgressSink. Shared by all workers.
	Sink *ProgressSink
}

// EffectiveWorkers resolves the worker count the engine will run with.
func (e Exec) EffectiveWorkers() int {
	if e.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.Workers
}

// Scheduler sizing: the prefix split aims for tasksPerWorker tasks per
// worker so the dynamic queue absorbs skew (one heavily constrained
// prefix does not stall the run), stops extending the prefix once
// maxSplitTasks is reached so bucket bookkeeping stays negligible next
// to the search itself, and never exceeds maxTasksHard — a single
// domain too large to take whole (the split cannot subdivide one
// domain) falls back to fewer tasks rather than allocating millions of
// buckets.
const (
	tasksPerWorker = 16
	maxSplitTasks  = 1 << 16
	maxTasksHard   = 1 << 20
)

// ForEachTask is the shared task scheduler behind every parallel
// construction backend: it drives tasks 0..total-1 over up to
// e.Workers goroutines claiming the next unclaimed index from an
// atomic queue (workers == 1 runs inline, no goroutines). newWorker
// creates one goroutine's reusable state; runTask executes one task,
// polling the passed stop for prompt mid-task cancellation and
// returning true when it observed a cancel. e.Stop is latched — one
// true return cancels every worker at its next poll — and checked per
// claimed task; e.OnProgress fires after each completed task. The
// return reports whether the run was canceled (callers must discard
// partial results).
func (e Exec) ForEachTask(total int, newWorker func() any, runTask func(st any, task int, stop func() bool) bool) (canceled bool) {
	var stopped atomic.Bool
	stop := func() bool {
		if e.Stop == nil {
			return false
		}
		if stopped.Load() {
			return true
		}
		if e.Stop() {
			stopped.Store(true)
			return true
		}
		return false
	}
	var done atomic.Int64
	if e.OnProgress != nil {
		// Publish the denominator up front: a live-progress observer
		// needs the total before the first (possibly long) task lands.
		e.OnProgress(0, total)
	}
	workers := e.EffectiveWorkers()
	if workers > total {
		workers = total
	}
	var next atomic.Int64
	loop := func() {
		st := newWorker()
		for {
			t := next.Add(1) - 1
			if t >= int64(total) || stop() {
				return
			}
			if runTask(st, int(t), stop) {
				return
			}
			if e.OnProgress != nil {
				e.OnProgress(int(done.Add(1)), total)
			}
		}
	}
	if workers <= 1 {
		loop()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				loop()
			}()
		}
		wg.Wait()
	}
	return stopped.Load()
}

// splitPrefix chooses how many leading solve-order variables to pin per
// task. It returns the prefix depth k and the task count (the product
// of the first k domain sizes). Unlike a split along only the first
// domain, the prefix deepens past small and even unit domains until
// there are enough tasks to feed every worker, so parallelism is never
// bounded by one domain's size.
func (c *Compiled) splitPrefix(workers int) (k, tasks int) {
	n := len(c.order)
	target := workers * tasksPerWorker
	tasks = 1
	for k < n && tasks < target {
		next := tasks * len(c.doms[k])
		if next > maxTasksHard || (tasks >= workers && next > maxSplitTasks) {
			break
		}
		tasks = next
		k++
	}
	return k, tasks
}

// SolveColumnarExec enumerates all solutions under the given execution
// config. The output is byte-identical to SolveColumnar regardless of
// worker count: the search tree is split along the first k solve-order
// variables into prefix tasks, idle workers claim the next unclaimed
// task from the shared queue (dynamic scheduling, so an imbalanced
// split still uses every worker), and the tasks' rows are copied once,
// in lexicographic prefix order — exactly the sequential enumeration
// order — into one exactly sized backing. A space that splits into
// independent components is one task to OnProgress: each component is
// split and solved this way in turn, and their product is written once
// (product.go). The canceled return reports a run abandoned by Stop; it
// carries no rows.
//
// python-constraint 2 gained a ParallelSolver as part of the same
// optimization effort this package reproduces; goroutines over a shared
// task queue are the Go analogue, without the process-pool overhead
// Python needs to sidestep the GIL.
func (c *Compiled) SolveColumnarExec(ex Exec) (*Columnar, bool) {
	workers := ex.EffectiveWorkers()
	if c.empty || len(c.order) == 0 {
		return c.newColumnar(0), false
	}
	k, tasks := c.splitPrefix(workers)
	if c.product != nil || workers == 1 || tasks <= 1 {
		if ex.OnProgress != nil {
			ex.OnProgress(0, 1)
		}
		var col *Columnar
		var canceled bool
		if c.product != nil {
			col, _, canceled = c.solveProduct(ex)
		} else {
			col, _, canceled = c.solveWalk(ex.Stop, ex.Sink)
		}
		if !canceled && ex.OnProgress != nil {
			ex.OnProgress(1, 1)
		}
		return col, canceled
	}
	// radix[d] is the domain size at prefix depth d; depth 0 is the most
	// significant digit, so ascending task index IS lexicographic prefix
	// order.
	radix := make([]int, k)
	for d := 0; d < k; d++ {
		radix[d] = len(c.doms[d])
	}

	// Every worker enumerates all its tasks into one sink, and each task
	// records the row range it filled there; the final copy visits the
	// ranges in task order.
	type taskRows struct {
		snk        *sink
		start, end int
	}
	spans := make([]taskRows, tasks)
	type prefixWorker struct {
		st  *state
		pfx []int
		snk *sink
	}
	var mu sync.Mutex
	var sinks []*sink
	defer func() {
		for _, s := range sinks {
			s.reset()
		}
	}()
	canceled := ex.ForEachTask(tasks, func() any {
		snk := newSink(len(c.names))
		mu.Lock()
		sinks = append(sinks, snk)
		mu.Unlock()
		return &prefixWorker{st: c.newState(), pfx: make([]int, k), snk: snk}
	}, func(w any, t int, stop func() bool) bool {
		pw := w.(*prefixWorker)
		rem := int64(t)
		for d := k - 1; d >= 0; d-- {
			pw.pfx[d] = int(rem % int64(radix[d]))
			rem /= int64(radix[d])
		}
		start := pw.snk.rows
		if c.enumColumnar(pw.snk, pw.pfx, pw.st, stop, nil, ex.Sink) {
			return true
		}
		spans[t] = taskRows{pw.snk, start, pw.snk.rows}
		return false
	})
	if canceled {
		return c.newColumnar(0), true
	}
	total := 0
	for _, sp := range spans {
		total += sp.end - sp.start
	}
	// One copy into one exact backing, ranges in ascending task order —
	// lexicographic prefix order, i.e. exactly the sequential
	// enumeration order.
	out := c.newColumnar(total)
	at := 0
	for _, sp := range spans {
		if sp.end > sp.start {
			sp.snk.copyRows(out.Cols, at, sp.start, sp.end)
			at += sp.end - sp.start
		}
	}
	return out, false
}

// SolveColumnarParallel enumerates all solutions using up to workers
// goroutines (0 selects GOMAXPROCS); it is SolveColumnarExec without
// cancellation or progress, kept for callers that only want the worker
// knob.
func (c *Compiled) SolveColumnarParallel(workers int) *Columnar {
	col, _ := c.SolveColumnarExec(Exec{Workers: workers})
	return col
}
