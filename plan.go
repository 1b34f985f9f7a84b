package autogemm

import (
	"context"
	"fmt"

	"autogemm/internal/core"
	"autogemm/internal/plan"
)

// This file is the public face of the plan layer: explicit plan
// handles (PlanFor / MultiplyPlanned), plan serialization (Encode /
// LoadPlan / SavePlan) and the engine's plan-cache plumbing. The
// lifecycle is produce → fingerprint → cache → persist → warm-start →
// execute; see docs/INTERNALS.md, "Plan lifecycle".

// Plan is a resolved, reusable execution plan bound to the engine that
// resolved or loaded it: the serializable recipe (blocking, loop order, packing, panel
// splits, kernel keys) plus the attached executor with its generated
// kernels. Plans are safe for concurrent use and cheap to reuse —
// executing one performs no planning work.
type Plan struct {
	eng *Engine
	p   *core.Plan
}

// Fingerprint returns the plan's cache key: a stable hash of the chip,
// problem shape, options and plan-format version.
func (p *Plan) Fingerprint() string { return p.p.Recipe.Fingerprint }

// Shape returns the problem extents the plan was produced for.
func (p *Plan) Shape() (m, n, k int) { return p.p.M, p.p.N, p.p.K }

// Source reports where the plan came from: "auto" (model-default
// planning), "tuner" (winner of a tuning search) or "heuristic" (the
// tiered engine's instant tier-0 recipe, pending background upgrade).
func (p *Plan) Source() string { return p.p.Recipe.Source }

// ModelCycles returns the analytic model's projected cycles for one
// execution of the plan.
func (p *Plan) ModelCycles() float64 { return p.p.Recipe.ModelCycles }

// Encode serializes the plan's recipe as JSON. The executor state
// (generated kernels, scratch buffers) is not serialized; LoadPlan
// rebuilds it on attach.
func (p *Plan) Encode() ([]byte, error) { return p.p.Recipe.Encode() }

// Describe renders the plan as a human-readable report.
func (p *Plan) Describe() (string, error) { return p.p.Describe() }

// PlanFor resolves (or retrieves from the cache) the execution plan for
// a problem without running it. Use MultiplyPlanned to execute it, or
// Encode / SavePlan to persist it.
func (e *Engine) PlanFor(opts *Options, m, n, k int) (*Plan, error) {
	cp, err := e.plan(opts, m, n, k)
	if err != nil {
		return nil, err
	}
	return &Plan{eng: e, p: cp}, nil
}

// MultiplyPlanned computes C += A·B executing an explicit plan — the
// zero-planning hot path for serving workloads that multiply the same
// shape many times — as a single-worker job, like Multiply. The plan
// must come from this engine's PlanFor or LoadPlan: a plan is attached
// to its engine's scheduler, so moving one to another engine goes
// through Encode and LoadPlan, which also re-audits it.
func (e *Engine) MultiplyPlanned(p *Plan, c, a, b []float32) error {
	if p == nil || p.p == nil {
		return fmt.Errorf("autogemm: nil plan")
	}
	if p.eng != e {
		return fmt.Errorf("autogemm: plan %s belongs to another engine (move it with Encode and LoadPlan)",
			p.Fingerprint())
	}
	return wait(e.submitPlan(context.Background(), p.p, GEMM{C: c, A: a, B: b}, 1))
}

// LoadPlan deserializes a plan produced by Encode (or read from a
// registry file) and attaches it to this engine, entering it into the
// plan cache under its request's key. The decoded plan is untrusted: it
// must pass the static audit (coverage, bounds composition, kernel-key
// consistency) before any kernel can execute. A plan for a different
// chip, an older format version, or with corrupted or tampered
// contents is rejected with an error matching ErrBadPlan.
func (e *Engine) LoadPlan(data []byte) (*Plan, error) {
	rec, err := plan.Decode(data) // checks the fingerprint against the request
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadPlan, err)
	}
	cp, err := e.plans.Get(rec.Request.Key(), func() (*core.Plan, error) {
		return core.Attach(e.chip, rec, e.withRuntime(core.Options{}))
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadPlan, err)
	}
	return &Plan{eng: e, p: cp}, nil
}

// SavePlan persists a plan into the engine's on-disk registry
// (WithPlanDir or AUTOGEMM_PLAN_DIR). It fails when no plan directory
// is configured.
func (e *Engine) SavePlan(p *Plan) error {
	if p == nil || p.p == nil {
		return fmt.Errorf("autogemm: nil plan")
	}
	if e.registry == nil {
		return fmt.Errorf("autogemm: no plan directory configured (WithPlanDir or AUTOGEMM_PLAN_DIR)")
	}
	return e.registry.Store(p.p.Recipe)
}

// PlanCacheStats is a snapshot of the engine's plan-cache traffic and
// its scheduler runtime. Built counts plan constructions (including
// registry warm-starts): under concurrent load it equals the number of
// distinct requests made — the singleflight guarantee. The
// Sched* counters cover the execution layer: every Multiply /
// MultiplyBatch / Submit is one scheduler job.
type PlanCacheStats struct {
	Hits    int64
	Misses  int64
	Built   int64
	HitRate float64

	SchedWorkers        int   // worker goroutines of the engine's pool
	SchedJobsSubmitted  int64 // jobs accepted by the scheduler
	SchedJobsCompleted  int64 // jobs whose every task finished
	SchedTasksStolen    int64 // tasks run by a worker other than the job's first claimant
	SchedQueueHighWater int   // most jobs ever in flight at once
	SchedTasksPanicked  int64 // tasks whose panic was contained into a job error
	SchedJobsCancelled  int64 // jobs failed by context cancellation

	// SchedClasses breaks the scheduler counters down per QoS class
	// (sorted by class name; see qos.go). Empty until the first job is
	// accepted.
	SchedClasses []SchedClassStats

	// SchedPerWorker reports each pool worker's task and busy/idle
	// accounting, indexed by worker ID. BusyCycles/IdleCycles are in
	// charged virtual cycles and stay zero unless cost accounting is
	// enabled; TasksRun counts regardless. Idle is derived against the
	// busiest worker at snapshot time (sched.Stats.IdleCycles).
	SchedPerWorker []SchedWorkerStats

	// Tiered planning (zero unless PlanModeTiered; see tiered.go).
	HeuristicServed   int64 // serves answered by a tier-0 heuristic plan
	UpgradesCompleted int64 // background upgrades hot-swapped into the cache
	UpgradesFailed    int64 // background upgrades that failed (heuristic kept serving)
	NeighborSeeded    int64 // upgrades warm-started from a registry neighbor
}

// SchedWorkerStats is one pool worker's execution accounting, as
// reported by PlanCacheStats.SchedPerWorker and exported per worker on
// a serving front door's /metrics surface.
type SchedWorkerStats struct {
	TasksRun   int64   // tasks this worker executed
	BusyCycles float64 // charged virtual cycles (0 without cost accounting)
	IdleCycles float64 // busiest worker's busy cycles minus this worker's
}

// PlanCacheStats returns the engine's plan-cache and scheduler
// counters.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	s := e.plans.Stats()
	ss := e.sched.Stats()
	var perWorker []SchedWorkerStats
	if len(ss.PerWorker) > 0 {
		idle := ss.IdleCycles(0)
		perWorker = make([]SchedWorkerStats, len(ss.PerWorker))
		for i, pw := range ss.PerWorker {
			perWorker[i] = SchedWorkerStats{
				TasksRun: pw.TasksRun, BusyCycles: pw.BusyCycles, IdleCycles: idle[i],
			}
		}
	}
	return PlanCacheStats{
		Hits: s.Hits, Misses: s.Misses, Built: s.Built, HitRate: s.HitRate(),
		SchedWorkers:        ss.Workers,
		SchedJobsSubmitted:  ss.JobsSubmitted,
		SchedJobsCompleted:  ss.JobsCompleted,
		SchedTasksStolen:    ss.TasksStolen,
		SchedQueueHighWater: ss.QueueHighWater,
		SchedTasksPanicked:  ss.TasksPanicked,
		SchedJobsCancelled:  ss.JobsCancelled,
		SchedClasses:        schedClassStats(ss.Classes),
		SchedPerWorker:      perWorker,
		HeuristicServed:     e.heuristicServed.Load(),
		UpgradesCompleted:   e.upgradesCompleted.Load(),
		UpgradesFailed:      e.upgradesFailed.Load(),
		NeighborSeeded:      e.neighborSeeded.Load(),
	}
}

// planResolved serves the executor for resolved core options from the
// plan cache: on a miss it first tries the on-disk registry (a stale or
// mismatched entry falls through to fresh planning), then produces and
// attaches a fresh plan. Concurrent misses on one request plan
// exactly once. The cache is keyed by the request's Key; the SHA-256
// fingerprint is computed only on a miss, when the plan is built or
// loaded from the registry. In tiered mode (WithPlanMode) the miss
// path serves an instant heuristic plan instead and upgrades it in the
// background — see tiered.go.
func (e *Engine) planResolved(co core.Options, m, n, k int) (*core.Plan, error) {
	req := core.RequestOf(e.chip, m, n, k, co)
	if e.PlanMode() == PlanModeTiered {
		return e.planTiered(co, m, n, k, req)
	}
	return e.plans.Get(req.Key(), func() (*core.Plan, error) {
		if p := e.warmStart(req, co); p != nil {
			return p, nil
		}
		rec, err := core.Produce(e.chip, m, n, k, co)
		if err != nil {
			return nil, err
		}
		co.TrustedPlan = true // just produced in-process, no audit needed
		return core.Attach(e.chip, rec, co)
	})
}

// warmStart attaches the registry's plan for req. It returns nil — plan
// from scratch — when no registry is configured or the entry is
// missing, stale, mismatched or fails the attach-time audit.
func (e *Engine) warmStart(req plan.Request, co core.Options) *core.Plan {
	if e.registry == nil {
		return nil
	}
	rec, err := e.registry.Load(req.Fingerprint())
	if err != nil || rec.CheckRequest(req) != nil {
		return nil
	}
	p, err := core.Attach(e.chip, rec, co)
	if err != nil {
		return nil
	}
	return p
}
