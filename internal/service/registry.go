package service

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"searchspace"
	"searchspace/internal/model"
	"searchspace/internal/obs"
	"searchspace/internal/store"
)

// RegistryConfig bounds the registry's cache. Zero values mean
// unlimited.
type RegistryConfig struct {
	// MaxEntries caps the number of cached spaces.
	MaxEntries int
	// MaxBytes caps the estimated resident size of cached spaces. The
	// most recently built space is always retained, so a single space
	// larger than the budget still gets served (it just evicts
	// everything else). The same budget also gates ADMISSION of
	// concurrent builds: each in-flight construction is charged a
	// conservative (cartesian upper-bound) size estimate, and a build
	// whose estimate does not fit alongside the other in-flight
	// charges — within pendingOvercommit times this budget, since the
	// charges deliberately overshoot — is rejected with ErrBusy rather
	// than allowed to blow far past the budget mid-build.
	MaxBytes int64
	// MaxCartesian rejects definitions whose unconstrained size exceeds
	// this bound BEFORE construction starts — the cache budgets above
	// only apply after a build completes, so this is the admission
	// control that keeps one hostile or careless submission from
	// pinning the daemon on an astronomically large build. It is
	// calibrated for the optimized solver, whose cost scales with the
	// constrained space, not the cartesian product.
	MaxCartesian float64
	// MaxExhaustiveCartesian is the (much tighter) bound applied to the
	// exhaustive baselines — brute-force, original, iterative-sat —
	// whose cost scales with the full cartesian product (or per-solution
	// solving), so a size the optimized solver handles in seconds would
	// pin them for hours.
	MaxExhaustiveCartesian float64
	// MaxConcurrentBuilds caps simultaneous constructions (across build
	// and compare endpoints); excess builds queue for a slot. It bounds
	// the peak of in-flight work, which the cache budgets — applied
	// only to completed spaces — do not. 0 = unlimited.
	MaxConcurrentBuilds int
	// BuildWorkers is the total solver-worker budget shared by all
	// concurrent constructions (-build-workers): each build draws a
	// grant from this pool, so a burst of builds cannot oversubscribe
	// the box. 0 selects GOMAXPROCS.
	BuildWorkers int
	// Store, when set, is the durable snapshot tier: completed builds
	// are written through to it, eviction demotes to it instead of
	// discarding, and GetOrBuild/LookupOrRestore check it before
	// rebuilding — so built spaces survive eviction and restarts.
	Store *store.Store
}

// exhaustiveMethod reports whether a method's construction cost scales
// with the cartesian product rather than the constrained space.
func exhaustiveMethod(m searchspace.Method) bool {
	switch m {
	case searchspace.BruteForce, searchspace.Original, searchspace.IterativeSAT:
		return true
	}
	return false
}

// Admit checks a definition against the pre-build admission bound for
// the chosen construction method.
func (r *Registry) Admit(def *model.Definition, method searchspace.Method) error {
	limit, flag := r.cfg.MaxCartesian, "-max-cartesian"
	if exhaustiveMethod(method) && r.cfg.MaxExhaustiveCartesian > 0 &&
		(limit == 0 || r.cfg.MaxExhaustiveCartesian < limit) {
		limit, flag = r.cfg.MaxExhaustiveCartesian, "-max-exhaustive-cartesian"
	}
	if limit > 0 && def.CartesianSize() > limit {
		return fmt.Errorf("service: definition %q has cartesian size %g, above the server's limit %g for method %s; shrink the domains or raise %s",
			def.Name, def.CartesianSize(), limit, method, flag)
	}
	return nil
}

// Entry is one cached (or in-flight) space. Space/Stats/Err are valid
// only after the build completes; Registry hands entries out completed.
type Entry struct {
	// ID is the content address: hex SHA-256 of the canonical
	// definition+method bytes.
	ID string
	// Def is the definition the space was built from (the registry's
	// own clone; callers must not mutate it).
	Def *model.Definition
	// Method is the construction method used.
	Method searchspace.Method
	// Space is the materialized search space.
	Space *searchspace.SearchSpace
	// Stats reports how construction went (wall time, sizes). A
	// restored entry keeps the ORIGINAL build's stats — restoration is
	// not a construction.
	Stats searchspace.BuildStats
	// Bounds are the true parameter bounds, computed once at build time
	// so describe requests don't rescan the space.
	Bounds []searchspace.ParamBounds
	// Bytes is the estimated resident size used for the LRU budget.
	Bytes int64
	// ParentID, when non-empty, is the id of the cached superset this
	// space was delta-built (restricted) from instead of solved; "" for
	// solver-constructed spaces. Restored entries adopt it from the
	// snapshot, so derivation survives demotion and restarts.
	ParentID string

	// paramsFP is the content address of the definition's parameter
	// block alone (names+domains, no constraints) — the superset
	// lattice index key. Set by the goroutine that materializes the
	// entry before ready closes.
	paramsFP string

	ready chan struct{} // closed when the build (or restore) finishes
	err   error
	elem  *list.Element // position in the LRU list; nil until cached

	// pending is the admission-time size estimate charged against the
	// byte budget while this build is in flight; released on completion.
	pending int64

	// wantWorkers is the initiating request's worker hint, passed to the
	// pool when the build starts (<= 0 asks for the whole pool).
	wantWorkers int

	// waiters counts requests (initiator included) blocked on this
	// in-flight build; when the last one disconnects the build is
	// canceled so the solver stops and its semaphore slot frees up.
	// Guarded by Registry.mu.
	waiters       int
	cancelCh      chan struct{}
	cancelRequest bool

	// reqID is the request id of the client that initiated this build or
	// restore, linking the live op table and journal events back to the
	// initiating trace. Set once before the work goroutine starts.
	reqID string

	// phases records the timed pipeline stages (queue_wait, build,
	// bounds, write_through — or restore_wait, restore_decode) of the
	// goroutine that materialized this entry. Written only by that
	// goroutine before ready closes; the channel close orders the
	// writes before any waiter's read, so waiters adopt them into
	// their traces without locking.
	phases []obs.Phase
}

// Registry is a content-addressed cache of built search spaces. Builds
// of the same canonical definition+method are deduplicated: concurrent
// requests join the single in-flight construction (singleflight), later
// requests hit the cache. Completed spaces are evicted LRU under the
// configured entry/byte budget — and, when a snapshot store is
// configured, eviction demotes to disk instead of discarding, restores
// from disk dedup under the same singleflight, and completed builds are
// written through so a restart warm-starts from the blobs.
type Registry struct {
	cfg RegistryConfig

	mu      sync.Mutex
	entries map[string]*Entry
	lru     *list.List // front = most recently used; completed entries only
	bytes   int64
	// pendingBytes sums the admission estimates of in-flight builds.
	pendingBytes int64

	builds        int64 // constructions actually executed
	hits          int64 // served from a completed in-memory cache entry
	joins         int64 // piggybacked on an in-flight build or restore
	misses        int64 // triggered a new build
	evictions     int64
	canceled      int64 // constructions abandoned after every client left
	buildNanos    int64 // cumulative construction wall time
	restores      int64 // spaces rehydrated from the snapshot store
	demotions     int64 // evictions that kept a disk copy
	demoteDropped int64 // evictions with no disk copy (no store, or write failed)
	busyRejects   int64 // builds rejected by the in-flight byte admission
	restricts     int64 // misses answered by delta-building from a cached superset

	// lattice indexes every completed space by the content address of
	// its parameter block, so a miss can search its constraint-lattice
	// family for a cached superset to restrict instead of solving from
	// scratch. Candidates stay indexed while demoted to disk (a restore
	// plus filter still beats a rebuild) and are dropped when no copy
	// survives anywhere. Guarded by mu.
	lattice map[string][]latticeCand

	buildSem   chan struct{} // nil = unlimited concurrent builds
	restoreSem chan struct{} // bounds parallel snapshot decodes
	pool       *workerPool   // shared solver-worker budget for builds

	// onEvict, when set, is invoked (outside the registry lock) with the
	// id of every evicted entry and whether a disk snapshot survives it,
	// so dependents — tuning sessions — can dehydrate (demoted) or
	// release their references (dropped) instead of keeping the space
	// resident past the byte budget.
	onEvict func(id string, demoted bool)

	// onPhase, when set, receives every completed build/restore phase
	// (name + duration), feeding the per-phase histograms regardless of
	// whether any request carried a trace. Called outside the lock.
	onPhase func(phase string, dur time.Duration)

	// journal, when set, records lifecycle events (build start/finish/
	// cancel, rejects, evictions, restores). Record is nil-safe, so the
	// registry writes events unconditionally. Set before serving.
	journal *obs.Journal

	// opMu guards the live in-flight operations table. It is its own
	// lock — /v1/builds pollers must never contend with the cache lock —
	// and is never held while mu is taken.
	opMu  sync.Mutex
	opSeq int64
	ops   map[int64]*opEntry

	// usageMu guards the per-space attribution table (ops.go). Also its
	// own lock: attribution rides the query hot path.
	usageMu sync.Mutex
	usage   map[string]*spaceUsage

	// workers counts the build and restore goroutines, which run on past
	// their waiters to demote what their insert evicted (see Wait).
	workers sync.WaitGroup
}

// Wait blocks until every build and restore goroutine started so far
// has finished, its evictions' demotion writes included. Call it after
// the server stops taking requests, before the store's directory goes
// away or the process exits.
func (r *Registry) Wait() { r.workers.Wait() }

// spawn runs fn on a goroutine that Wait waits for.
func (r *Registry) spawn(fn func()) {
	r.workers.Add(1)
	go func() {
		defer r.workers.Done()
		fn()
	}()
}

// SetEvictionHook registers the eviction callback; call before serving.
func (r *Registry) SetEvictionHook(fn func(id string, demoted bool)) { r.onEvict = fn }

// SetPhaseObserver registers the build-phase callback; call before
// serving.
func (r *Registry) SetPhaseObserver(fn func(phase string, dur time.Duration)) { r.onPhase = fn }

// observePhases reports completed phases to the observer, if any.
func (r *Registry) observePhases(phases []obs.Phase) {
	if r.onPhase == nil {
		return
	}
	for _, p := range phases {
		r.onPhase(p.Name, p.Dur)
	}
}

// NewRegistry creates an empty registry with the given budget.
func NewRegistry(cfg RegistryConfig) *Registry {
	r := &Registry{
		cfg:        cfg,
		entries:    make(map[string]*Entry),
		lru:        list.New(),
		restoreSem: make(chan struct{}, maxConcurrentRestores),
		pool:       newWorkerPool(cfg.BuildWorkers),
		ops:        make(map[int64]*opEntry),
		usage:      make(map[string]*spaceUsage),
		lattice:    make(map[string][]latticeCand),
	}
	if cfg.MaxConcurrentBuilds > 0 {
		r.buildSem = make(chan struct{}, cfg.MaxConcurrentBuilds)
	}
	return r
}

// Store returns the configured snapshot store (nil when persistence is
// off).
func (r *Registry) Store() *store.Store { return r.cfg.Store }

// SnapshotOnDisk reports whether a snapshot blob for id is present in
// the store's index — a cheap hint, verified only when actually
// restored.
func (r *Registry) SnapshotOnDisk(id string) bool {
	return r.cfg.Store != nil && r.cfg.Store.Has(id)
}

// ErrBusy reports a build rejected by admission control because the
// conservative size estimates of the constructions already in flight
// fill the byte budget; the client should retry once they drain.
var ErrBusy = errors.New("service: build capacity exhausted: concurrent constructions already fill the byte budget; retry shortly")

// EstimatePendingBytes is the admission-time size estimate charged for
// an in-flight build: the shared resident-size model evaluated at the
// definition's full cartesian size, because the valid (constrained)
// size is only discovered by building. It is therefore a deliberate
// upper bound — on the paper's workloads it runs several to tens of
// times the real resident size, which is why admission compares the
// sum of charges against an OVERCOMMITTED budget (pendingOvercommit),
// not the raw one.
func EstimatePendingBytes(def *model.Definition) int64 {
	est := estimateResidentBytes(def.CartesianSize(), float64(def.NumParams()))
	if math.IsInf(est, 0) || est > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(est)
}

// pendingOvercommit scales the byte budget when admitting in-flight
// builds. The per-build charge is a cartesian upper bound (the
// paper's workloads resolve to ~1-50% of their cartesian product, so
// charges overshoot real residency by up to an order of magnitude);
// comparing the raw budget would serialize large builds that
// comfortably fit together. The factor trades admission precision for
// concurrency while still bounding a pathological burst of
// astronomically large builds.
const pendingOvercommit = 8

// GetOrBuild returns the space for the definition+method pair, looking
// through the cache tiers in order — memory, then the snapshot store,
// then a fresh construction. The returned hit flag is true when no new
// construction was triggered by this call (memory hit, joined in-flight
// work, or a disk restore — a restore re-reads solver output, it does
// not re-run the solver). Failed builds are not cached; every waiter
// receives the error and the next call retries.
//
// Concurrent restores of one id dedup under the same singleflight as
// builds: one goroutine reads and decodes the blob, everyone else
// joins. A blob that turns out corrupt is quarantined and the call
// falls back to building.
//
// The context covers only this caller's interest in the result: when
// ctx ends, the call returns ctx.Err() immediately, and once the LAST
// interested caller disconnects an in-flight construction is canceled —
// the solver stops at its next cancellation point and the build's
// semaphore slot frees (a build queued for a slot abandons the queue at
// once). A caller that arrives while a cancellation is in flight
// transparently retries with a fresh build.
func (r *Registry) GetOrBuild(ctx context.Context, def *model.Definition, method searchspace.Method) (*Entry, bool, error) {
	return r.GetOrBuildN(ctx, def, method, 0)
}

// GetOrBuildN is GetOrBuild with a per-request worker hint: a fresh
// construction asks the shared worker pool for up to workers goroutines
// (<= 0 asks for the whole pool; the pool may grant less under
// contention, never less than one). The hint does not participate in
// the content address — the space is the same at any worker count — so
// concurrent requests for one id still join a single build, running
// with the first requester's grant.
func (r *Registry) GetOrBuildN(ctx context.Context, def *model.Definition, method searchspace.Method, workers int) (*Entry, bool, error) {
	tr := obs.TraceFrom(ctx)
	admitStart := time.Now()
	if err := r.Admit(def, method); err != nil {
		// No content address yet (admission precedes hashing), so the
		// event names the definition instead.
		r.journal.Record("admission_reject", "", obs.RequestID(ctx), def.Name, nil)
		return nil, false, err
	}
	id, err := Fingerprint(def, method)
	if err != nil {
		return nil, false, err
	}
	// Admission covers the budget checks plus the content-address hash.
	tr.AddSpan("admission", admitStart, time.Since(admitStart), nil)

	for {
		r.mu.Lock()
		if e, ok := r.entries[id]; ok {
			joined := false
			select {
			case <-e.ready:
				// Completed entries in the map are always successful builds
				// (failures are removed), so this is a clean hit.
				r.hits++
				r.touchLocked(e)
			default:
				joined = true
				e.waiters++
			}
			r.mu.Unlock()
			if joined {
				waitStart := time.Now()
				select {
				case <-e.ready:
				case <-ctx.Done():
					r.dropWaiter(e)
					return nil, false, ctx.Err()
				}
				tr.AddSpan("singleflight_wait", waitStart, time.Since(waitStart), nil)
			}
			err := e.err
			if joined {
				// Only count the join once the outcome is known: a request
				// that piggybacked on a build that then failed got no cached
				// answer and must not inflate the hit ratio. Canceled builds
				// and failed restores are not counted here — the surviving
				// joiner's retry accounts the request on its next pass, so
				// one logical request never counts twice.
				r.mu.Lock()
				e.waiters--
				switch {
				case err == nil:
					r.joins++
				case errors.Is(err, errBuildCanceled), errors.Is(err, errRestoreFailed):
				default:
					r.misses++
				}
				r.mu.Unlock()
			}
			if errors.Is(err, errBuildCanceled) || errors.Is(err, errRestoreFailed) {
				// Either the build this caller piggybacked on was torn down
				// by other clients disconnecting, or a disk restore came up
				// empty; this caller still wants the space, and it has the
				// definition to build it.
				if ctx.Err() != nil {
					return nil, false, ctx.Err()
				}
				continue
			}
			if joined && err == nil {
				// The joined goroutine's pipeline phases tell this request
				// where its singleflight wait actually went.
				tr.AdoptPhases(e.phases)
			}
			return e, true, err
		}

		// Memory miss: second tier. The blob was written by a completed
		// build, so restoring it is a cache hit that skips the solver.
		if r.cfg.Store != nil && r.cfg.Store.Has(id) {
			e := &Entry{
				ID: id, Method: method,
				ready:    make(chan struct{}),
				cancelCh: make(chan struct{}),
				waiters:  1,
				reqID:    obs.RequestID(ctx),
			}
			r.entries[id] = e
			r.mu.Unlock()

			r.spawn(func() { r.restoreEntry(e) })

			select {
			case <-e.ready:
			case <-ctx.Done():
				r.dropWaiter(e)
				return nil, false, ctx.Err()
			}
			r.mu.Lock()
			e.waiters--
			r.mu.Unlock()
			if errors.Is(e.err, errRestoreFailed) {
				if ctx.Err() != nil {
					return nil, false, ctx.Err()
				}
				continue // blob gone or quarantined; fall through to a build
			}
			if e.err == nil {
				tr.AdoptPhases(e.phases)
			}
			return e, true, e.err
		}

		// Third tier: construct. Charge a conservative in-flight estimate
		// against the (overcommitted) byte budget first, so a burst of
		// large concurrent builds cannot blow far past it; a lone build
		// is always admitted (the budget's keep-the-newest rule applies
		// to it anyway).
		est := EstimatePendingBytes(def)
		if r.cfg.MaxBytes > 0 && r.pendingBytes > 0 {
			budget := r.cfg.MaxBytes
			if budget > math.MaxInt64/pendingOvercommit {
				budget = math.MaxInt64
			} else {
				budget *= pendingOvercommit
			}
			if r.pendingBytes > budget || est > budget-r.pendingBytes {
				r.busyRejects++
				pending := r.pendingBytes
				r.mu.Unlock()
				r.journal.Record("busy_reject", id, obs.RequestID(ctx), "in-flight builds fill the byte budget",
					map[string]int64{"pending_bytes": pending, "estimate_bytes": est})
				return nil, false, fmt.Errorf("%w (in-flight estimate %d bytes, new build estimate %d, overcommitted budget %d)",
					ErrBusy, pending, est, budget)
			}
		}
		e := &Entry{
			ID: id, Def: def.Clone(), Method: method,
			ready:       make(chan struct{}),
			cancelCh:    make(chan struct{}),
			waiters:     1,
			pending:     est,
			wantWorkers: workers,
			reqID:       obs.RequestID(ctx),
		}
		r.pendingBytes += est
		r.entries[id] = e
		r.misses++
		r.mu.Unlock()

		r.spawn(func() { r.buildEntry(e) })

		select {
		case <-e.ready:
		case <-ctx.Done():
			r.dropWaiter(e)
			return nil, false, ctx.Err()
		}
		r.mu.Lock()
		e.waiters--
		r.mu.Unlock()
		if errors.Is(e.err, errBuildCanceled) && ctx.Err() == nil {
			// Lost a cancellation race with a disconnecting joiner.
			continue
		}
		if e.err == nil {
			tr.AdoptPhases(e.phases)
		}
		return e, false, e.err
	}
}

// dropWaiter unregisters a disconnected waiter, canceling the build
// when it was the last one (unless the build already finished).
// Restores ignore the cancel signal — they are quick IO on content
// that is already paid for — so dropping the last waiter of a restore
// merely means nobody reads the result.
func (r *Registry) dropWaiter(e *Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.waiters--
	if e.waiters > 0 || e.cancelRequest {
		return
	}
	select {
	case <-e.ready:
		// Build finished before the disconnect was observed; the cached
		// result stands.
	default:
		e.cancelRequest = true
		close(e.cancelCh)
	}
}

// latticeCand is one completed space as indexed in the superset
// lattice: its id, construction method, and canonical (sorted,
// deduplicated) string-constraint set. The constraint set is what
// subset tests run against, so it is cached here rather than
// re-derived from the definition on every probe.
type latticeCand struct {
	id     string
	method searchspace.Method
	cons   []string
}

// registerLatticeLocked indexes a completed entry in the superset
// lattice. Idempotent: re-registration (a restore of a space already
// indexed) is a no-op. Caller holds mu.
func (r *Registry) registerLatticeLocked(e *Entry) {
	if e.paramsFP == "" || e.Def == nil {
		return
	}
	for _, c := range r.lattice[e.paramsFP] {
		if c.id == e.ID {
			return
		}
	}
	r.lattice[e.paramsFP] = append(r.lattice[e.paramsFP],
		latticeCand{id: e.ID, method: e.Method, cons: e.Def.CanonicalConstraints()})
}

// removeLatticeLocked drops a space from the superset lattice — called
// when its last copy is gone (evicted with no surviving disk snapshot,
// or its blob failed to restore). Caller holds mu.
func (r *Registry) removeLatticeLocked(paramsFP, id string) {
	if paramsFP == "" {
		return
	}
	cands := r.lattice[paramsFP]
	for i, c := range cands {
		if c.id == id {
			cands = append(cands[:i], cands[i+1:]...)
			break
		}
	}
	if len(cands) == 0 {
		delete(r.lattice, paramsFP)
	} else {
		r.lattice[paramsFP] = cands
	}
}

// subsetOf reports whether sub ⊆ super; both must be canonical
// (sorted, deduplicated), which makes this a single merge walk.
func subsetOf(sub, super []string) bool {
	i := 0
	for _, s := range super {
		if i < len(sub) && sub[i] == s {
			i++
		}
	}
	return i == len(sub)
}

// probeSupersets returns the lattice candidates able to answer childID
// by restriction — same parameter block, constraint set a subset of
// the child's — best first: resident parents before demoted ones (no
// restore needed), then the most-constrained parent (fewest rows to
// filter), then id for determinism.
func (r *Registry) probeSupersets(paramsFP, childID string, childCons []string) []latticeCand {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []latticeCand
	resident := make(map[string]bool)
	for _, c := range r.lattice[paramsFP] {
		if c.id == childID || !subsetOf(c.cons, childCons) {
			continue
		}
		out = append(out, c)
		if pe, ok := r.entries[c.id]; ok && pe.elem != nil {
			resident[c.id] = true
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if ri, rj := resident[out[i].id], resident[out[j].id]; ri != rj {
			return ri
		}
		if len(out[i].cons) != len(out[j].cons) {
			return len(out[i].cons) > len(out[j].cons)
		}
		return out[i].id < out[j].id
	})
	return out
}

// tryRestrict attempts to answer a cache miss by delta-building: it
// searches the superset lattice for a cached space over the same
// parameters whose constraint set is a subset of the requested one,
// and — going through candidates best-first — filters that parent's
// rows through only the added constraints, re-sorted into the
// requested method's emission order. The result is byte-identical to
// the fresh build it replaces (the golden parity suite pins this), at
// a linear-scan cost instead of solver time.
//
// A demoted candidate is restored through the normal singleflight
// first (restore + filter still beats a rebuild); a candidate whose
// blob is gone is dropped from the lattice and the next one tried.
// The filter itself runs without a build slot or worker grant — it is
// a single cheap linear pass, never solver-scale work — but honors the
// entry's cancel channel like any build.
//
// decided=true means restriction determined the entry's outcome:
// either success (ss/stats/parentID are set) or cancellation
// (err = errBuildCanceled). decided=false means no candidate worked
// out and the caller must fall back to a full build.
func (r *Registry) tryRestrict(e *Entry, op *opEntry) (ss *searchspace.SearchSpace, stats searchspace.BuildStats, parentID string, decided bool, err error) {
	if e.Def == nil {
		return nil, stats, "", false, nil
	}
	paramsFP, fpErr := ParamsFingerprint(e.Def)
	if fpErr != nil {
		return nil, stats, "", false, nil
	}
	e.paramsFP = paramsFP
	probeStart := time.Now()
	cands := r.probeSupersets(paramsFP, e.ID, e.Def.CanonicalConstraints())
	if len(cands) == 0 {
		return nil, stats, "", false, nil
	}
	stop := func() bool {
		select {
		case <-e.cancelCh:
			return true
		default:
			return false
		}
	}
	for _, cand := range cands {
		// Acquire the parent's materialized space: straight off a
		// resident entry (the Space pointer is immutable, so it stays
		// valid even if the entry is evicted underneath us), else
		// restored via the normal singleflight path. The restore uses a
		// background context — the parent is worth caching for its own
		// sake even if this requester disconnects mid-way.
		var parent *searchspace.SearchSpace
		r.mu.Lock()
		if pe, ok := r.entries[cand.id]; ok && pe.elem != nil {
			parent = pe.Space
			r.touchLocked(pe)
		}
		r.mu.Unlock()
		if parent == nil {
			pe, ok := r.LookupOrRestore(context.Background(), cand.id)
			if !ok {
				r.mu.Lock()
				r.removeLatticeLocked(paramsFP, cand.id)
				r.mu.Unlock()
				continue
			}
			parent = pe.Space
		}
		e.phases = append(e.phases, obs.Phase{Name: "superset_probe", Start: probeStart, Dur: time.Since(probeStart)})

		r.setOpKind(op, "restrict")
		op.noteProgress(0, 1)
		restrictStart := time.Now()
		ss, stats, err = searchspace.RestrictWith(parent, searchspace.FromDefinition(e.Def),
			searchspace.BuildOpts{Method: e.Method, Stop: stop, Progress: &op.sink})
		if err == nil {
			op.noteProgress(1, 1)
			e.phases = append(e.phases, obs.Phase{
				Name: "restrict", Start: restrictStart, Dur: time.Since(restrictStart),
				Attrs: map[string]int64{"rows_in": stats.Nodes, "rows_kept": int64(stats.Valid)},
			})
			return ss, stats, cand.id, true, nil
		}
		if errors.Is(err, searchspace.ErrCanceled) {
			return nil, stats, "", true, errBuildCanceled
		}
		// Unexpected — a probed candidate should always restrict. Fall
		// back to the solver path rather than failing the request.
		r.journal.Record("restrict_failed", e.ID, e.reqID, err.Error(), nil)
		r.setOpKind(op, "build")
		return nil, stats, "", false, nil
	}
	return nil, stats, "", false, nil
}

// buildEntry runs one registered construction to completion (or
// cancellation) and publishes the outcome to every waiter. A
// successful build is written through to the snapshot store BEFORE the
// waiters are released: once any client holds the space's id, the blob
// is already on disk, so even a kill immediately after the build
// response finds it at the next boot. (The write is not free: under
// perfbench churn traffic on 2 vCPUs a write-through, fsync included,
// averaged ~7 ms against ~18 ms per solver build with format-6 blobs,
// and ~32 ms with format 5's int32 cells. For durability of solver
// work that is the right trade.)
func (r *Registry) buildEntry(e *Entry) {
	op := r.beginOp("build", e.ID, e.Method.String(), e.reqID, e)
	defer r.endOp(op)
	// Before paying for a solver run, try to delta-build from a cached
	// superset; only a full miss of the lattice (or a non-cancel
	// restrict failure) reaches the solver.
	ss, stats, parentID, restricted, buildErr := r.tryRestrict(e, op)
	if !restricted {
		r.journal.Record("build_start", e.ID, e.reqID, e.Method.String(), nil)
		ss, stats, buildErr = r.runBuild(e.Def, e.Method, e.cancelCh, e.wantWorkers, &e.phases, op)
	}

	// The bounds scan is O(rows x params); do it outside the registry
	// lock.
	var bounds []searchspace.ParamBounds
	if buildErr == nil {
		boundsStart := time.Now()
		bounds = ss.TrueBounds()
		e.phases = append(e.phases, obs.Phase{Name: "bounds", Start: boundsStart, Dur: time.Since(boundsStart)})
	}

	var evicted []*Entry
	r.mu.Lock()
	r.pendingBytes -= e.pending
	e.pending = 0
	if buildErr != nil {
		delete(r.entries, e.ID)
		e.err = buildErr
		if errors.Is(buildErr, errBuildCanceled) {
			r.canceled++
		}
	} else {
		e.Space, e.Stats = ss, stats
		e.Bounds = bounds
		e.Bytes = EstimateBytes(ss)
		e.ParentID = parentID
		e.elem = r.lru.PushFront(e)
		r.bytes += e.Bytes
		if restricted {
			// A delta-build is not a construction: build count and
			// cumulative solver time stay honest for capacity planning,
			// and the restrict counter carries the savings story.
			r.restricts++
		} else {
			r.builds++
			r.buildNanos += int64(stats.Duration)
		}
		r.registerLatticeLocked(e)
		evicted = r.evictLocked()
	}
	r.mu.Unlock()
	switch {
	case buildErr == nil:
		persistStart := time.Now()
		r.persist(e)
		if r.cfg.Store != nil {
			e.phases = append(e.phases, obs.Phase{Name: "write_through", Start: persistStart, Dur: time.Since(persistStart)})
		}
		r.observePhases(e.phases)
		if restricted {
			r.noteRestrict(e.ID, parentID, e.Bytes)
			r.journal.Record("restrict", e.ID, e.reqID, parentID, map[string]int64{
				"rows_in":     stats.Nodes,
				"rows_kept":   int64(stats.Valid),
				"duration_ms": stats.Duration.Milliseconds(),
			})
		} else {
			r.noteBuild(e.ID, int64(stats.Duration), e.Bytes)
			r.journal.Record("build_finish", e.ID, e.reqID, e.Method.String(), map[string]int64{
				"duration_ms": stats.Duration.Milliseconds(),
				"valid":       int64(stats.Valid),
				"workers":     int64(stats.Workers),
			})
		}
	case errors.Is(buildErr, errBuildCanceled):
		r.journal.Record("build_cancel", e.ID, e.reqID, "all requesting clients disconnected", nil)
	default:
		r.journal.Record("build_failed", e.ID, e.reqID, buildErr.Error(), nil)
	}
	close(e.ready)
	r.demoteEvicted(evicted)
}

// persist writes a completed entry through to the snapshot store.
// Failures are counted by the store and tolerated: the space still
// serves from memory, it just cannot survive eviction or restart.
func (r *Registry) persist(e *Entry) {
	if r.cfg.Store == nil {
		return
	}
	_ = r.cfg.Store.Put(e.ID, &store.Snapshot{
		Def:      e.Def,
		Method:   e.Method,
		Stats:    e.Stats,
		Bounds:   e.Bounds,
		Space:    e.Space,
		ParentID: e.ParentID,
	})
}

// demoteEvicted finishes an eviction outside the registry lock: each
// victim's snapshot is ensured on disk (a no-op when write-through
// already put it there, a fresh write if GC dropped it since), turning
// the eviction into a demotion; then the eviction hook learns whether
// a disk copy survives so sessions can dehydrate instead of dying.
func (r *Registry) demoteEvicted(evicted []*Entry) {
	for _, v := range evicted {
		demoted := false
		if r.cfg.Store != nil {
			if r.cfg.Store.Has(v.ID) {
				demoted = true
			} else if err := r.cfg.Store.Put(v.ID, &store.Snapshot{
				Def: v.Def, Method: v.Method, Stats: v.Stats,
				Bounds: v.Bounds, Space: v.Space, ParentID: v.ParentID,
			}); err == nil {
				demoted = true
			}
		}
		r.mu.Lock()
		if demoted {
			r.demotions++
		} else {
			// No copy survives anywhere; the space can no longer answer
			// restricts and must leave the superset lattice.
			r.demoteDropped++
			r.removeLatticeLocked(v.paramsFP, v.ID)
		}
		r.mu.Unlock()
		if demoted {
			r.journal.Record("demote", v.ID, "", "evicted past the cache budget; snapshot retained on disk", nil)
		} else {
			r.journal.Record("evict", v.ID, "", "evicted past the cache budget; no disk copy survives", nil)
		}
		if r.onEvict != nil {
			r.onEvict(v.ID, demoted)
		}
	}
}

// maxConcurrentRestores bounds parallel snapshot decodes. Restores
// are quick IO+decode rather than solver time, so they do not consume
// build slots or pending-byte charges — but each one fully
// materializes a space before eviction rebalances, so a thundering
// herd of restores for DISTINCT demoted spaces (e.g. right after a
// restart) could stack many spaces in memory at once. A small slot
// pool caps that transient overshoot at a few spaces beyond the
// budget.
const maxConcurrentRestores = 4

// restoreEntry rehydrates one space from the snapshot store and
// publishes it to every waiter. Restores never select on the entry's
// cancel channel — the blob is already paid for, so the decode always
// runs to completion and gets cached even if every waiter left. Any
// failure — blob vanished, corrupt (quarantined by the store), or
// misnamed — publishes errRestoreFailed, which sends GetOrBuild
// waiters back around the loop to build from source.
func (r *Registry) restoreEntry(e *Entry) {
	op := r.beginOp("restore", e.ID, "", e.reqID, e)
	op.total.Store(1)
	defer r.endOp(op)
	waitStart := time.Now()
	r.restoreSem <- struct{}{}
	defer func() { <-r.restoreSem }()
	e.phases = append(e.phases, obs.Phase{Name: "restore_wait", Start: waitStart, Dur: time.Since(waitStart)})
	decodeStart := time.Now()
	snap, err := r.cfg.Store.Get(e.ID)
	if err == nil {
		// The blob must BE the space it is named as: recompute the
		// content address of what was decoded. This catches renamed or
		// cross-copied blobs that are internally consistent (checksum
		// fine) but answer for the wrong definition.
		fp, ferr := Fingerprint(snap.Def, snap.Method)
		if ferr != nil || fp != e.ID {
			r.cfg.Store.Quarantine(e.ID)
			err = fmt.Errorf("snapshot content does not hash to its address %s", e.ID)
		}
	}

	if err == nil {
		e.phases = append(e.phases, obs.Phase{
			Name: "restore_decode", Start: decodeStart, Dur: time.Since(decodeStart),
			Attrs: map[string]int64{"rows": int64(snap.Space.Size())},
		})
	}

	var paramsFP string
	if err == nil {
		// Index the restored space in the superset lattice (outside the
		// lock: hashing the parameter block costs an encode).
		paramsFP, _ = ParamsFingerprint(snap.Def)
	}

	var evicted []*Entry
	r.mu.Lock()
	if err != nil {
		delete(r.entries, e.ID)
		e.err = fmt.Errorf("%w: %v", errRestoreFailed, err)
	} else {
		e.Def = snap.Def
		e.Method = snap.Method
		e.Space = snap.Space
		e.Stats = snap.Stats
		e.Bounds = snap.Bounds
		e.Bytes = EstimateBytes(snap.Space)
		e.ParentID = snap.ParentID
		e.paramsFP = paramsFP
		e.elem = r.lru.PushFront(e)
		r.bytes += e.Bytes
		r.restores++
		r.registerLatticeLocked(e)
		evicted = r.evictLocked()
	}
	r.mu.Unlock()
	if err == nil {
		op.noteProgress(1, 1)
		op.sink.Rows.Store(int64(snap.Space.Size()))
		r.observePhases(e.phases)
		r.noteRestore(e.ID, snap.ParentID, e.Bytes)
		r.journal.Record("restore", e.ID, e.reqID, "", map[string]int64{"rows": int64(snap.Space.Size())})
	} else {
		r.journal.Record("restore_failed", e.ID, e.reqID, err.Error(), nil)
	}
	close(e.ready)
	r.demoteEvicted(evicted)
}

// ErrInternal marks build failures that are the server's fault (a
// panicking solver), as opposed to a rejectable definition; handlers
// map it to 500 rather than 422.
var ErrInternal = errors.New("internal construction failure")

// errBuildCanceled marks a construction torn down because every client
// waiting on it disconnected. It never escapes GetOrBuild: surviving
// callers retry and disconnected callers report their own ctx.Err().
// (handleCompare drives runBuild directly and suppresses it itself.)
var errBuildCanceled = errors.New("service: construction canceled: all requesting clients disconnected")

// errRestoreFailed marks a disk restore that came up empty (missing,
// corrupt, or misnamed blob). It never escapes the registry: waiters
// holding a definition fall back to building, waiters holding only an
// id report the space as absent.
var errRestoreFailed = errors.New("service: snapshot restore failed")

// runBuild executes one construction under a build slot, abandoning it
// when cancel closes — while queued for the slot or, via the solver's
// cooperative stop, mid-construction. Once it holds a slot it draws a
// worker grant from the shared pool (want <= 0 asks for everything
// free) and runs the parallel engine with it; the deferred release and
// recover keep a panicking solver from leaking the slot, the grant, or
// wedging waiters: the panic becomes a build error, so the entry is
// removed and every waiter is woken with it. A nil cancel builds
// uncancelably. When rec is non-nil the queue wait and the build
// itself are appended to it as trace phases, the latter carrying the
// kernel's enumeration counters. When op is non-nil the solver's task
// progress and live node/row counters stream into it for /v1/builds.
func (r *Registry) runBuild(def *model.Definition, method searchspace.Method, cancel <-chan struct{}, want int, rec *[]obs.Phase, op *opEntry) (ss *searchspace.SearchSpace, stats searchspace.BuildStats, err error) {
	if r.buildSem != nil {
		queueStart := time.Now()
		select {
		case r.buildSem <- struct{}{}:
		case <-cancel:
			return nil, stats, errBuildCanceled
		}
		if rec != nil {
			*rec = append(*rec, obs.Phase{Name: "queue_wait", Start: queueStart, Dur: time.Since(queueStart)})
		}
		defer func() { <-r.buildSem }()
	}
	if !method.Parallelizable() {
		// A sequential backend runs on one goroutine no matter the
		// grant; reserving more would starve concurrent parallel builds
		// with workers it cannot use.
		want = 1
	}
	grant := r.pool.acquire(want)
	defer r.pool.release(grant)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: construction of %q with %s panicked: %v", ErrInternal, def.Name, method, p)
		}
	}()
	var stop func() bool
	if cancel != nil {
		stop = func() bool {
			select {
			case <-cancel:
				return true
			default:
				return false
			}
		}
	}
	opts := searchspace.BuildOpts{Method: method, Workers: grant, Stop: stop}
	if op != nil {
		opts.OnProgress = op.noteProgress
		opts.Progress = &op.sink
	}
	buildStart := time.Now()
	ss, stats, err = searchspace.FromDefinition(def).BuildWith(opts)
	if errors.Is(err, searchspace.ErrCanceled) {
		err = errBuildCanceled
	}
	if err == nil && rec != nil {
		// Nodes/blocks come from the enumeration kernel and are zero for
		// multi-worker or non-optimized builds, which count differently.
		*rec = append(*rec, obs.Phase{
			Name: "build", Start: buildStart, Dur: time.Since(buildStart),
			Attrs: map[string]int64{
				"nodes":   stats.Nodes,
				"blocks":  stats.Blocks,
				"valid":   int64(stats.Valid),
				"workers": int64(stats.Workers),
			},
		})
	}
	return ss, stats, err
}

// Lookup returns the completed IN-MEMORY entry with the given id,
// refreshing its LRU position; it never touches the disk tier.
// In-flight builds are not visible to Lookup. Use LookupOrRestore to
// look through both tiers.
func (r *Registry) Lookup(id string) (*Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok || e.elem == nil {
		return nil, false
	}
	r.touchLocked(e)
	return e, true
}

// LookupOrRestore resolves an id through both cache tiers: a completed
// in-memory entry is returned at once; an in-flight build or restore
// is joined; a demoted space is restored from its snapshot (deduped
// with any concurrent restore). It returns ok=false when the id is
// unknown in memory AND on disk — only then is the space truly gone.
// Unlike GetOrBuild it holds no definition, so it can never fall back
// to building.
func (r *Registry) LookupOrRestore(ctx context.Context, id string) (*Entry, bool) {
	tr := obs.TraceFrom(ctx)
	for {
		r.mu.Lock()
		if e, ok := r.entries[id]; ok {
			select {
			case <-e.ready:
				r.touchLocked(e)
				r.mu.Unlock()
				return e, true
			default:
			}
			e.waiters++
			r.mu.Unlock()
			waitStart := time.Now()
			select {
			case <-e.ready:
			case <-ctx.Done():
				r.dropWaiter(e)
				return nil, false
			}
			tr.AddSpan("singleflight_wait", waitStart, time.Since(waitStart), nil)
			r.mu.Lock()
			e.waiters--
			r.mu.Unlock()
			if e.err == nil {
				tr.AdoptPhases(e.phases)
				return e, true
			}
			if ctx.Err() != nil {
				return nil, false
			}
			// A canceled build or failed restore: reassess from the top —
			// the id may have landed in memory or still sit on disk.
			continue
		}
		if r.cfg.Store != nil && r.cfg.Store.Has(id) {
			e := &Entry{
				ID:       id,
				ready:    make(chan struct{}),
				cancelCh: make(chan struct{}),
				waiters:  1,
			}
			r.entries[id] = e
			r.mu.Unlock()
			r.spawn(func() { r.restoreEntry(e) })
			select {
			case <-e.ready:
			case <-ctx.Done():
				r.dropWaiter(e)
				return nil, false
			}
			r.mu.Lock()
			e.waiters--
			r.mu.Unlock()
			if e.err == nil {
				tr.AdoptPhases(e.phases)
				return e, true
			}
			if ctx.Err() != nil {
				return nil, false
			}
			continue
		}
		r.mu.Unlock()
		return nil, false
	}
}

// touchLocked moves a completed entry to the LRU front.
func (r *Registry) touchLocked(e *Entry) {
	if e.elem != nil {
		r.lru.MoveToFront(e.elem)
	}
}

// evictLocked drops least-recently-used entries until the cache fits
// the budget, always keeping at least the most recent entry. It
// returns the evicted entries so the caller can demote them to the
// snapshot store and fire the eviction hook outside the lock.
func (r *Registry) evictLocked() []*Entry {
	overBudget := func() bool {
		if r.cfg.MaxEntries > 0 && r.lru.Len() > r.cfg.MaxEntries {
			return true
		}
		return r.cfg.MaxBytes > 0 && r.bytes > r.cfg.MaxBytes
	}
	var evicted []*Entry
	for r.lru.Len() > 1 && overBudget() {
		back := r.lru.Back()
		victim := back.Value.(*Entry)
		r.lru.Remove(back)
		victim.elem = nil
		delete(r.entries, victim.ID)
		r.bytes -= victim.Bytes
		r.evictions++
		evicted = append(evicted, victim)
	}
	return evicted
}

// RegistryStats is a point-in-time snapshot of cache behavior.
type RegistryStats struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// PendingBytes is the sum of in-flight builds' admission estimates.
	PendingBytes int64 `json:"pending_bytes"`
	Builds       int64 `json:"builds"`
	Hits         int64 `json:"hits"`
	Joins        int64 `json:"joins"`
	Misses       int64 `json:"misses"`
	Evictions    int64 `json:"evictions"`
	Canceled     int64 `json:"canceled"`
	// Restores counts spaces rehydrated from the snapshot store;
	// Demotions counts evictions that kept a disk copy, DemoteDropped
	// those that did not (no store configured, or the write failed).
	Restores      int64 `json:"restores"`
	Demotions     int64 `json:"demotions"`
	DemoteDropped int64 `json:"demote_dropped"`
	BusyRejects   int64 `json:"busy_rejects"`
	// Restricts counts misses answered by delta-building from a cached
	// superset (lattice hit) instead of running a solver. Disjoint from
	// Builds: every miss lands in exactly one of the two.
	Restricts int64   `json:"restricts"`
	HitRatio  float64 `json:"hit_ratio"`
	// BuildTime is cumulative construction wall time.
	BuildTime time.Duration `json:"build_time_ns"`
	// BuildPool snapshots the shared solver-worker pool: capacity
	// (-build-workers), current and peak utilization, and the mean
	// per-build parallelism (workers_granted / grants).
	BuildPool PoolStats `json:"build_pool"`
}

// Stats snapshots the registry counters. HitRatio counts joined
// in-flight builds and disk restores as hits: the request did not pay
// for a construction.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RegistryStats{
		Entries:       r.lru.Len(),
		Bytes:         r.bytes,
		PendingBytes:  r.pendingBytes,
		Builds:        r.builds,
		Hits:          r.hits,
		Joins:         r.joins,
		Misses:        r.misses,
		Evictions:     r.evictions,
		Canceled:      r.canceled,
		Restores:      r.restores,
		Demotions:     r.demotions,
		DemoteDropped: r.demoteDropped,
		BusyRejects:   r.busyRejects,
		Restricts:     r.restricts,
		BuildTime:     time.Duration(r.buildNanos),
	}
	s.BuildPool = r.pool.stats()
	if total := s.Hits + s.Joins + s.Restores + s.Misses; total > 0 {
		s.HitRatio = float64(s.Hits+s.Joins+s.Restores) / float64(total)
	}
	return s
}

// StoreStats snapshots the snapshot store's counters, or nil when no
// store is configured.
func (r *Registry) StoreStats() *store.Stats {
	if r.cfg.Store == nil {
		return nil
	}
	st := r.cfg.Store.Stats()
	return &st
}

// String renders the snapshot for logs.
func (s RegistryStats) String() string {
	return fmt.Sprintf("entries=%d bytes=%d builds=%d restricts=%d hits=%d joins=%d misses=%d evictions=%d canceled=%d restores=%d demotions=%d hit_ratio=%.3f",
		s.Entries, s.Bytes, s.Builds, s.Restricts, s.Hits, s.Joins, s.Misses, s.Evictions, s.Canceled, s.Restores, s.Demotions, s.HitRatio)
}

// EstimateBytes approximates the resident size of a materialized space:
// the int32 columns and the row index that serves membership and
// neighbor queries. The index is built lazily on the first such query,
// so counting it up front makes the byte budget conservative — a space
// that never serves one occupies less than charged, never more.
func EstimateBytes(ss *searchspace.SearchSpace) int64 {
	return int64(estimateResidentBytes(float64(ss.Size()), float64(ss.NumParams())))
}

// estimateResidentBytes is the sizing model shared by EstimateBytes
// (measured rows) and EstimatePendingBytes (cartesian upper bound), so
// cache accounting and admission charging cannot drift apart: 4 bytes
// per row per parameter for the int32 columns, plus 12 bytes per row
// for the sorted index (a uint64 key and an int32 row). For the columns
// the model is exact for a built space: the solver returns them as
// windows of one params×rows backing array, with no spare capacity. A
// restored space shares one backing among its one-value columns, so for
// it the model is an upper bound.
func estimateResidentBytes(rows, params float64) float64 {
	if params < 1 {
		params = 1
	}
	return rows*(params*4+12) + 1024
}
