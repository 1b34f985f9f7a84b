package sched

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// addFloatBits adds v to the float64 stored as bits at addr. The slot
// has a single writer (the owning worker), so load-add-store needs no
// CAS; the atomic store keeps concurrent Stats readers tear-free.
func addFloatBits(addr *uint64, v float64) {
	bits := atomic.LoadUint64(addr)
	atomic.StoreUint64(addr, math.Float64bits(math.Float64frombits(bits)+v))
}

// This file is the virtual-time seam of the runtime. Execution on this
// host is wall-clock-flat (one CPU), so multi-worker performance is
// made measurable the same way the repo makes Arm hardware measurable:
// by simulation. A task that knows its own modelled cost charges it to
// the worker that ran it (Worker.Charge); an installed Timekeeper
// observes every (worker, job, task, cost) tuple as the real scheduler
// produces it. Claiming order, stealing and participant caps are
// untouched — the hook is pure accounting, and when no Timekeeper is
// installed the only cost is one atomic load per task.
//
// The cost tuples a Timekeeper collects are keyed by task index, not by
// the (racy) physical worker assignment, so a recording made under any
// GOMAXPROCS is deterministic: internal/vtime replays the claim
// discipline over the recorded costs to produce bit-reproducible
// simulated schedules.

// TaskCost is the simulated cost of one task: compute cycles on the
// modelled chip plus the DRAM traffic the task moves (the contention
// model debits it against shared NUMA/CMG-group bandwidth).
type TaskCost struct {
	Cycles float64 // modelled compute cycles (kernel + pack + launch)
	Bytes  float64 // DRAM bytes moved
}

// Add returns the sum of two costs.
func (c TaskCost) Add(d TaskCost) TaskCost {
	return TaskCost{Cycles: c.Cycles + d.Cycles, Bytes: c.Bytes + d.Bytes}
}

// Timekeeper observes the simulated cost of every completed task. It is
// invoked from the participant's goroutine — a pool worker, or a RunQoS
// caller, whose ID is a caller slot — after the task's callback
// returns; implementations must be safe for concurrent use. Skipped
// claims (after a failure or cancellation) are not observed: they ran
// no work.
type Timekeeper interface {
	ObserveTask(worker int, job int64, task int, cost TaskCost)
}

// JobMeta is the scheduling identity of an accepted job: what a
// replay needs to reconstruct the pool's multi-job arbitration.
type JobMeta struct {
	Class      string // QoS class the job parked in
	Weight     int    // class weight at acceptance
	Tasks      int    // task count
	MaxWorkers int    // participant cap (resolved, >= 1)
}

// JobObserver is an optional extension of Timekeeper: a hook that also
// implements it is told each job's scheduling identity at acceptance,
// before any of the job's tasks are observed. Invoked outside the pool
// lock; implementations must be safe for concurrent use.
type JobObserver interface {
	ObserveJob(job int64, meta JobMeta)
}

// SetTimekeeper installs (or, with nil, removes) the pool's virtual
// clock hook. It may be called at any time, including while jobs run;
// tasks completing after the call observe the new hook.
func (p *Pool) SetTimekeeper(tk Timekeeper) {
	p.tk.Store(&tkBox{tk})
}

// tkBox wraps the Timekeeper so atomic.Pointer has a concrete type and
// a nil hook is storable.
type tkBox struct{ tk Timekeeper }

// timekeeper returns the installed hook, or nil.
func (p *Pool) timekeeper() Timekeeper {
	if b := p.tk.Load(); b != nil {
		return b.tk
	}
	return nil
}

// Charge adds cost to the task the worker is currently running. The
// executor calls it from inside the task callback; the pool forwards
// the task's accumulated cost to the Timekeeper (and, for a pool
// worker, its busy counters) when the task completes. Charges outside
// a task are dropped.
func (w *Worker) Charge(c TaskCost) {
	w.pending = w.pending.Add(c)
}

// workerCounters is the per-worker accounting slot. Only worker `id`
// ever writes slot `id` (the Worker single-goroutine contract), so the
// writes are plain read-modify-write on atomics — no CAS loop — and
// Stats readers load them concurrently.
type workerCounters struct {
	tasks int64  // tasks actually run (skipped claims excluded)
	busy  uint64 // math.Float64bits of charged virtual cycles
}

// WorkerStats is one worker's task accounting: how many tasks it ran
// and how many simulated cycles were charged to it. BusyCycles is zero
// unless tasks charge costs (Worker.Charge); TasksRun counts always.
// The spread across workers is the load-imbalance figure the scaling
// report shows directly.
type WorkerStats struct {
	TasksRun   int64
	BusyCycles float64
}

// Recorder is a Timekeeper that records every observed task cost,
// keyed by job and task index. Because task indices are dense and each
// task runs exactly once, the recorded cost slice of a job is
// independent of which physical worker ran which task — the property
// that makes virtual-time replays deterministic across GOMAXPROCS.
type Recorder struct {
	mu   sync.Mutex
	jobs map[int64][]TaskCost
	meta map[int64]JobMeta
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{jobs: make(map[int64][]TaskCost), meta: make(map[int64]JobMeta)}
}

// ObserveJob implements JobObserver: the recorder files each accepted
// job's scheduling identity so a multi-job replay (vtime.SimulateBatch)
// can rebuild the class/weight arbitration the pool ran under.
func (r *Recorder) ObserveJob(job int64, meta JobMeta) {
	r.mu.Lock()
	r.meta[job] = meta
	r.mu.Unlock()
}

// Meta returns the scheduling identity recorded for one job.
func (r *Recorder) Meta(job int64) (JobMeta, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.meta[job]
	return m, ok
}

// ObserveTask implements Timekeeper.
func (r *Recorder) ObserveTask(worker int, job int64, task int, cost TaskCost) {
	r.mu.Lock()
	costs := r.jobs[job]
	for len(costs) <= task {
		costs = append(costs, TaskCost{})
	}
	costs[task] = cost
	r.jobs[job] = costs
	r.mu.Unlock()
}

// Costs returns a copy of the recorded per-task costs of one job
// (indexed by task), or nil if the job was never observed.
func (r *Recorder) Costs(job int64) []TaskCost {
	r.mu.Lock()
	defer r.mu.Unlock()
	costs, ok := r.jobs[job]
	if !ok {
		return nil
	}
	out := make([]TaskCost, len(costs))
	copy(out, costs)
	return out
}

// Jobs returns the observed job IDs in ascending order.
func (r *Recorder) Jobs() []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int64, 0, len(r.jobs))
	for id := range r.jobs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Total sums every recorded cost across all jobs.
func (r *Recorder) Total() TaskCost {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t TaskCost
	for _, costs := range r.jobs {
		for _, c := range costs {
			t = t.Add(c)
		}
	}
	return t
}

// observeTask folds a completed task's charge into the per-worker
// counters and forwards it to the Timekeeper, if one is installed.
//
// The busy charge is folded BEFORE the task counter is incremented on
// purpose: the two slots are separate atomics with no common lock, so a
// concurrent Stats snapshot sees them in some interleaving — this order
// guarantees a snapshot never reports a task whose charge is missing
// (TasksRun counted, BusyCycles not yet folded would understate average
// cost). The benign converse — a folded charge whose task is not yet
// counted — overstates nothing a quiescent read won't correct. See
// Pool.Stats for the full relaxed-read contract.
func (p *Pool) observeTask(w *Worker, job int64, task int) {
	if w.id >= p.workers {
		// A RunQoS caller: counted apart, so PerWorker stays one entry
		// per pool worker. The Timekeeper still sees the charge.
		p.callerTasks.Add(1)
	} else {
		pw := &p.perWorker[w.id]
		if w.pending != (TaskCost{}) {
			addFloatBits(&pw.busy, w.pending.Cycles)
		}
		atomic.AddInt64(&pw.tasks, 1)
	}
	if tk := p.timekeeper(); tk != nil {
		tk.ObserveTask(w.id, job, task, w.pending)
	}
}

// IdleCycles derives each worker's idle time against a horizon: for
// every worker it returns horizon − BusyCycles (clamped at zero). A
// horizon <= 0 uses the busiest worker's BusyCycles — the makespan
// lower bound a balanced schedule would achieve — which is the figure
// the bench reports instead of re-deriving it ad hoc at call sites.
func (s Stats) IdleCycles(horizon float64) []float64 {
	if horizon <= 0 {
		for _, pw := range s.PerWorker {
			if pw.BusyCycles > horizon {
				horizon = pw.BusyCycles
			}
		}
	}
	out := make([]float64, len(s.PerWorker))
	for i, pw := range s.PerWorker {
		idle := horizon - pw.BusyCycles
		if idle < 0 {
			idle = 0
		}
		out[i] = idle
	}
	return out
}
