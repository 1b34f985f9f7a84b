package main

import (
	"math"
	"time"

	"autogemm"
	"autogemm/internal/core"
	"autogemm/internal/hw"
	"autogemm/internal/plan"
	"autogemm/internal/sched"
)

// The traced run's layer probes call one layer at a time, from outside,
// on the workload's own problems: the planner (core.Produce, core.Attach,
// a cold Engine.PlanFor), the executor at one worker with compiled
// kernels and with the interpreter, the cycle model (Estimate and
// EstimateExact) and the scheduler (empty jobs).

// probeBudget is how long one probe repeats a fast call to time it.
const probeBudget = 20 * time.Millisecond

// noopBudget is how long the scheduler probe submits empty jobs.
const noopBudget = 300 * time.Millisecond

// probe fills the kernel, exec, model, plan and sched.noop metrics.
func probe(tr *tracer, ps []*problem, out map[string]float64) error {
	hc, err := hw.ByName(chip)
	if err != nil {
		return err
	}
	pool := sched.New(2, 0)
	defer pool.Close()
	if err := probeShapes(tr, hc, pool, ps, out); err != nil {
		return err
	}
	if err := probeModel(hc, pool, out); err != nil {
		return err
	}
	return probeSched(out)
}

func probeShapes(tr *tracer, hc *hw.Chip, pool *sched.Pool, ps []*problem, out map[string]float64) error {
	eng, err := autogemm.New(chip, autogemm.WithWorkers(2))
	if err != nil {
		return err
	}
	defer eng.Close()

	var compiled, interp, nsPerCycle, simGF, lazy []float64
	var blocks core.ExecStats // per pass over ps
	for _, p := range ps {
		if err := tr.timed("plan.cold_planfor", 0, 0, laneProbe, func() error {
			_, err := eng.PlanFor(nil, p.M, p.N, p.K)
			return err
		}); err != nil {
			return err
		}
		opts := core.AutoOptions(hc)
		opts.Runtime = pool
		var rec *plan.Plan
		if err := tr.timed("plan.produce", 0, 0, laneProbe, func() (err error) {
			rec, err = core.Produce(hc, p.M, p.N, p.K, opts)
			return err
		}); err != nil {
			return err
		}
		opts.TrustedPlan = true // produced in this process, as the engine marks it
		var cp *core.Plan
		if err := tr.timed("plan.attach", 0, 0, laneProbe, func() (err error) {
			cp, err = core.Attach(hc, rec, opts)
			return err
		}); err != nil {
			return err
		}
		opts.ForceInterp = true
		ip, err := core.Attach(hc, rec, opts)
		if err != nil {
			return err
		}

		c := make([]float32, p.M*p.N)
		run := func() error { return cp.RunParallel(c, p.a, p.b, 1) }
		first, err := timeOnce(tr, "exec.first_run", run)
		if err != nil {
			return err
		}
		before := cp.Stats()
		warm, n, err := timeRepeated(tr, "exec.warm_run", run)
		if err != nil {
			return err
		}
		after := cp.Stats()
		blocks.InPlaceBlocks += (after.InPlaceBlocks - before.InPlaceBlocks) / int64(n)
		blocks.ABInPlaceBlocks += (after.ABInPlaceBlocks - before.ABInPlaceBlocks) / int64(n)
		blocks.PackedBlocks += (after.PackedBlocks - before.PackedBlocks) / int64(n)
		blocks.InterpBlocks += (after.InterpBlocks - before.InterpBlocks) / int64(n)

		// The interpreter generates its kernels on the first run; the
		// median of repeated runs drops it where runs are short, and it is
		// negligible where a single run fills the budget.
		slow, _, err := timeRepeated(tr, "exec.interp_run", func() error { return ip.RunParallel(c, p.a, p.b, 1) })
		if err != nil {
			return err
		}
		est, err := cp.Estimate()
		if err != nil {
			return err
		}
		compiled = append(compiled, p.FLOPs()/warm.Seconds()/1e9)
		interp = append(interp, p.FLOPs()/slow.Seconds()/1e9)
		nsPerCycle = append(nsPerCycle, float64(warm.Nanoseconds())/est.Cycles)
		simGF = append(simGF, est.GFLOPS)
		lazy = append(lazy, ms(first-warm))
	}
	out["kernel.compiled_gflops_1w"] = geomean(compiled)
	out["kernel.interp_gflops_1w"] = geomean(interp)
	if g := geomean(interp); g > 0 {
		out["kernel.speedup_1w"] = geomean(compiled) / g
	}
	out["exec.inplace_blocks"] = float64(blocks.InPlaceBlocks)
	out["exec.ab_inplace_blocks"] = float64(blocks.ABInPlaceBlocks)
	out["exec.packed_blocks"] = float64(blocks.PackedBlocks)
	out["exec.interp_blocks"] = float64(blocks.InterpBlocks)
	if all := blocks.InPlaceBlocks + blocks.ABInPlaceBlocks + blocks.PackedBlocks + blocks.InterpBlocks; all > 0 {
		out["exec.interp_frac"] = float64(blocks.InterpBlocks) / float64(all)
	}
	out["exec.lazy_compile_p50_ms"] = median(lazy)
	out["model.host_ns_per_sim_cycle"] = geomean(nsPerCycle)
	out["model.sim_gflops"] = geomean(simGF)
	return nil
}

// timeOnce times one call as a probe span.
func timeOnce(tr *tracer, name string, run func() error) (time.Duration, error) {
	start := time.Now()
	err := tr.timed(name, 0, 0, laneProbe, run)
	return time.Since(start), err
}

// timeRepeated calls run at least once and until probeBudget has
// passed, and returns the median call time and the number of calls.
func timeRepeated(tr *tracer, name string, run func() error) (time.Duration, int, error) {
	var ds []float64
	start := time.Now()
	for len(ds) == 0 || time.Since(start) < probeBudget {
		d, err := timeOnce(tr, name, run)
		if err != nil {
			return 0, 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), len(ds), nil
}

// probeModel compares the Eqn-13 estimate with the cycle simulator's
// exact count on the small-gemm shapes, where EstimateExact is cheap
// enough; the comparison is the same whatever the workload.
func probeModel(hc *hw.Chip, pool *sched.Pool, out map[string]float64) error {
	var errPct []float64
	for _, s := range smallShapes() {
		opts := core.AutoOptions(hc)
		opts.Runtime = pool
		p, err := core.NewPlan(hc, s.M, s.N, s.K, opts)
		if err != nil {
			return err
		}
		est, err := p.Estimate()
		if err != nil {
			return err
		}
		exact, err := p.EstimateExact()
		if err != nil {
			return err
		}
		// Floored so one exact match cannot zero the geometric mean.
		errPct = append(errPct, math.Max(100*math.Abs(est.Cycles-exact.Cycles)/exact.Cycles, 0.01))
	}
	out["model.eqn13_vs_exact_pct"] = geomean(errPct)
	return nil
}

// probeSched times one-task empty jobs on a two-worker pool: the
// scheduler's own cost per job, which every Multiply pays.
func probeSched(out map[string]float64) error {
	pool := sched.New(2, 0)
	defer pool.Close()
	var lat []float64
	for start := time.Now(); time.Since(start) < noopBudget; {
		t0 := time.Now()
		f, err := pool.Submit(1, 1, func(*sched.Worker, int) error { return nil })
		if err != nil {
			return err
		}
		if err := f.Wait(); err != nil {
			return err
		}
		lat = append(lat, us(time.Since(t0)))
	}
	out["sched.noop_job_p50_us"] = median(lat)
	out["sched.noop_job_p99_us"] = quantile(lat, 0.99)
	return nil
}

// spanLayers derives the api, plan and serve metrics from the spans.
func spanLayers(tr *tracer, out map[string]float64) {
	q := func(ds []time.Duration, p float64, unit func(time.Duration) float64) float64 {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = unit(d)
		}
		return quantile(xs, p)
	}
	d := tr.durations
	out["api.plan_resolve_p50_us"] = q(d("api.plan_resolve"), 0.5, us)
	out["api.run_p50_us"] = q(d("api.run"), 0.5, us)
	out["api.run_p99_us"] = q(d("api.run"), 0.99, us)
	out["api.batch_pass_p50_ms"] = q(d("api.batch_pass"), 0.5, ms)
	out["plan.produce_p50_ms"] = q(d("plan.produce"), 0.5, ms)
	out["plan.produce_p95_ms"] = q(d("plan.produce"), 0.95, ms)
	out["plan.attach_p50_ms"] = q(d("plan.attach"), 0.5, ms)
	out["plan.cold_planfor_p50_ms"] = q(d("plan.cold_planfor"), 0.5, ms)
	out["serve.client_p50_ms"] = q(d("serve.client"), 0.5, ms)
	out["serve.client_p99_ms"] = q(d("serve.client"), 0.99, ms)
	out["serve.handler_p50_ms"] = q(d("serve.handler"), 0.5, ms)
	out["serve.handler_p99_ms"] = q(d("serve.handler"), 0.99, ms)
	out["serve.pre_write_p50_ms"] = q(d("serve.pre_write"), 0.5, ms)
	out["serve.write_p50_ms"] = q(d("serve.write"), 0.5, ms)
	out["serve.batch_request_p50_ms"] = q(d("serve.batch"), 0.5, ms)
	// A client span's only child is the handler span of its request, so
	// its self time is everything the client saw outside the handler:
	// encoding, the connection both ways, and decoding.
	out["serve.client_overhead_p50_ms"] = q(tr.selfTimes("serve.client"), 0.5, ms)
}

// engineCounters is the part of an engine's PlanCacheStats a traced
// window reports, as differences over the window.
type engineCounters struct {
	hits, misses, built                     int64
	submitted, completed, cancelled, stolen int64
	highWater                               int
	tasks                                   []int64             // per worker
	classes                                 map[string][3]int64 // wait claims, waited jobs, rejected
}

// add folds in one engine's counters over a window, now − before, with
// the highest high-water mark. A window that replaced its engine adds
// each one.
func (c *engineCounters) add(before, now autogemm.PlanCacheStats) {
	c.hits += now.Hits - before.Hits
	c.misses += now.Misses - before.Misses
	c.built += now.Built - before.Built
	c.submitted += now.SchedJobsSubmitted - before.SchedJobsSubmitted
	c.completed += now.SchedJobsCompleted - before.SchedJobsCompleted
	c.cancelled += now.SchedJobsCancelled - before.SchedJobsCancelled
	c.stolen += now.SchedTasksStolen - before.SchedTasksStolen
	c.highWater = max(c.highWater, now.SchedQueueHighWater)
	for i, w := range now.SchedPerWorker {
		if i == len(c.tasks) {
			c.tasks = append(c.tasks, 0)
		}
		c.tasks[i] += w.TasksRun
		if i < len(before.SchedPerWorker) {
			c.tasks[i] -= before.SchedPerWorker[i].TasksRun
		}
	}
	if c.classes == nil {
		c.classes = map[string][3]int64{}
	}
	was := map[string]autogemm.SchedClassStats{}
	for _, cl := range before.SchedClasses {
		was[cl.Class] = cl
	}
	for _, cl := range now.SchedClasses {
		v, b := c.classes[cl.Class], was[cl.Class]
		c.classes[cl.Class] = [3]int64{
			v[0] + cl.QueueWaitClaims - b.QueueWaitClaims,
			v[1] + cl.QueueWaitJobs - b.QueueWaitJobs,
			v[2] + cl.Rejected - b.Rejected,
		}
	}
}

// engineLayers reports one engine's counters over a window.
func engineLayers(before, now autogemm.PlanCacheStats) map[string]float64 {
	var c engineCounters
	c.add(before, now)
	out := map[string]float64{}
	c.layers(out)
	return out
}

func (c engineCounters) layers(out map[string]float64) {
	out["plan.hits"] = float64(c.hits)
	out["plan.misses"] = float64(c.misses)
	out["plan.built"] = float64(c.built)
	if n := c.hits + c.misses; n > 0 {
		out["plan.hit_rate"] = float64(c.hits) / float64(n)
	}
	out["sched.jobs_submitted"] = float64(c.submitted)
	out["sched.jobs_completed"] = float64(c.completed)
	out["sched.jobs_cancelled"] = float64(c.cancelled)
	out["sched.tasks_stolen"] = float64(c.stolen)
	out["sched.queue_high_water"] = float64(c.highWater)
	if len(c.tasks) > 0 {
		lo, hi := c.tasks[0], c.tasks[0]
		for _, n := range c.tasks {
			lo, hi = min(lo, n), max(hi, n)
		}
		out["sched.worker_task_imbalance"] = float64(hi) / float64(max(lo, 1))
	}
	perJob := func(claims, jobs int64) float64 {
		if jobs == 0 {
			return 0
		}
		return float64(claims) / float64(jobs)
	}
	var claims, jobs, rejected int64
	for name, v := range c.classes {
		switch name {
		case classLatency:
			out["sched.queue_wait_claims_per_job.latency"] = perJob(v[0], v[1])
		case classBatch:
			out["sched.queue_wait_claims_per_job.batch"] = perJob(v[0], v[1])
		}
		claims, jobs, rejected = claims+v[0], jobs+v[1], rejected+v[2]
	}
	out["sched.queue_wait_claims_per_job.all"] = perJob(claims, jobs)
	out["sched.rejected"] = float64(rejected)
}
