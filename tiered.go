package autogemm

import (
	"context"

	"autogemm/internal/core"
	"autogemm/internal/plan"
)

// Tiered input-aware planning. The full planner's cold cost is the DMT
// dynamic program. A full-mode engine fans its memo rows out over the
// pool with the caller joined (core.ProduceOn). On a 2-worker engine
// that is a median 0.40 ms per new irregular shape (0.54 ms on one
// core), and a median 2.3 ms, at most 7.6 ms, on the ResNet-50 shapes
// (3.5 and 12.9 ms on one core). Those figures are for a 2-vCPU Xeon
// and the KP920 model, and they sit three to four decimal orders above
// a warm cache hit. In tiered mode the engine removes that cliff in two
// moves:
//
//   - Tier 0: a cold miss is answered by core.ProduceHeuristic — the
//     same resolved blocking, kernel keys and cost composition, but
//     each block covered by the single-panel heuristic tiler. Plans in
//     microseconds, tagged plan.SourceHeuristic, same fingerprint.
//   - Tier 1: the serve enqueues a background upgrade on the engine's
//     scheduler pool. core.SubmitProduce fans the DMT memo rows out as
//     pool tasks, and on completion the fully tuned plan is hot-swapped
//     into the plan cache (plan.Cache.Replace) and persisted to the
//     registry. In-flight executions of the heuristic plan are
//     untouched; the next serve gets the upgraded plan. The upgrade
//     runs with the request's own options, so it is Produce's search
//     and lands exactly the plan full planning would have built.
//
// A failed upgrade (planner error, pool closed, injected fault) only
// increments a counter: the serving heuristic plan stays in the cache
// and on the next cold serve the upgrade is retried. Tiered mode is
// opt-in (WithPlanMode) — the default engine plans synchronously
// exactly as before.

// PlanMode selects how an Engine answers a plan-cache miss.
type PlanMode string

const (
	// PlanModeFull blocks the first call on each shape until the full
	// DMT plan is produced — the default, and the pre-tiered behavior.
	PlanModeFull PlanMode = "full"
	// PlanModeTiered serves an instant heuristic plan on a cold miss
	// and upgrades it to the full plan in the background.
	PlanModeTiered PlanMode = "tiered"
)

// WithPlanMode selects the engine's cold-miss policy: PlanModeFull or
// PlanModeTiered, or "" for the default (full). New refuses any other
// mode.
func WithPlanMode(mode PlanMode) EngineOption {
	return func(e *Engine) { e.mode = mode }
}

// PlanMode reports the engine's cold-miss policy.
func (e *Engine) PlanMode() PlanMode {
	if e.mode == PlanModeTiered {
		return PlanModeTiered
	}
	return PlanModeFull
}

// planTiered is planResolved's tiered path: build (or fetch) the tier-0
// plan under the request's key, then — if what came out of the cache
// is still heuristic — make sure a background upgrade is in flight.
// The cache keeps its singleflight invariant untouched: the build
// function still runs once per request, it is just cheap now.
func (e *Engine) planTiered(co core.Options, m, n, k int, req plan.Request) (*core.Plan, error) {
	key := req.Key()
	p, err := e.plans.Get(key, func() (*core.Plan, error) {
		// A registry hit is already the full plan — no tier-0 detour.
		if p := e.warmStart(req, co); p != nil {
			return p, nil
		}
		rec, err := core.ProduceHeuristic(e.chip, m, n, k, co)
		if err != nil {
			return nil, err
		}
		att := co
		att.TrustedPlan = true // produced in-process, no audit needed
		return core.Attach(e.chip, rec, att)
	})
	if err != nil {
		return nil, err
	}
	if p.Recipe.Source == plan.SourceHeuristic {
		e.heuristicServed.Add(1)
		e.maybeUpgrade(req, co, m, n, k)
	}
	return p, nil
}

// maybeUpgrade enqueues the background DMT upgrade for a request
// currently served by a heuristic plan, unless one is already in
// flight. Enqueueing is best-effort and never blocks the serving path:
// a pool at depth (sched.ErrBusy) or closed simply means the next
// serve of the heuristic plan retries.
func (e *Engine) maybeUpgrade(req plan.Request, co core.Options, m, n, k int) {
	key := req.Key()
	// A serve that raced past a completed upgrade still holds the old
	// heuristic handle; consult the cache, not the handle, before
	// spending a planner run.
	if cur, ok := e.plans.Lookup(key); ok && cur.Recipe.Source != plan.SourceHeuristic {
		return
	}
	e.upMu.Lock()
	if _, busy := e.upgrading[key]; busy {
		e.upMu.Unlock()
		return
	}
	done := make(chan struct{})
	e.upgrading[key] = done
	e.upMu.Unlock()
	settle := func() {
		e.upMu.Lock()
		delete(e.upgrading, key)
		e.upMu.Unlock()
		close(done)
	}

	err := core.SubmitProduce(e.sched, e.chip, m, n, k, co, func(rec *plan.Plan, perr error) {
		defer settle()
		if perr != nil {
			// The heuristic plan keeps serving; nothing is evicted and
			// the next cold serve retries the upgrade.
			e.upgradesFailed.Add(1)
			return
		}
		att := co
		att.TrustedPlan = true
		p, aerr := core.Attach(e.chip, rec, att)
		if aerr != nil {
			e.upgradesFailed.Add(1)
			return
		}
		if cur, ok := e.plans.Lookup(key); ok && cur.Recipe.Source != plan.SourceHeuristic {
			return // an earlier upgrade (or a tuner/load) already landed
		}
		e.plans.Replace(key, p)
		e.upgradesCompleted.Add(1)
		if e.registry != nil {
			_ = e.registry.Store(rec) // best-effort persistence
		}
	})
	if err != nil {
		settle()
	}
}

// FlushUpgrades blocks until every background plan upgrade currently in
// flight has settled (hot-swapped or failed), or until the context
// fires. Benchmarks and tests use it to observe the upgraded state;
// serving code never needs to call it.
func (e *Engine) FlushUpgrades(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		e.upMu.Lock()
		var done chan struct{}
		for _, d := range e.upgrading {
			done = d
			break
		}
		e.upMu.Unlock()
		if done == nil {
			return nil
		}
		select {
		case <-done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
