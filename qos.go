package autogemm

import (
	"time"

	"autogemm/internal/sched"
)

// This file is the public multi-tenant QoS surface of the runtime:
// scheduling classes, weighted claiming, per-class admission control
// and deadlines, threaded down to internal/sched's per-class queues.
// Each GEMM request carries its own QoS (GEMM.QoS): a zero QoS runs
// under the engine's default class, so Multiply and untagged requests
// behave exactly like the pre-QoS scheduler, while a tagged Submit or
// batch element picks its class, weight and deadline. See
// docs/INTERNALS.md, "Runtime & scheduling".

// ErrAdmission matches (via errors.Is) every submission the scheduler
// refuses at admission: a class at its configured depth bound, or a QoS
// deadline already expired at submit time. Admission sheds immediately
// — it never blocks the submitter the way queue-depth backpressure
// does — so a serving front door can turn it into a 429 without
// holding the request.
var ErrAdmission = sched.ErrAdmission

// DefaultClass is the scheduling class work runs under when no QoS is
// given (engine default weight 16). BackgroundClass is the
// minimum-weight class best-effort work — including the tiered
// planner's background plan upgrades — runs under; it only consumes
// workers no higher-weight class is asking for.
const (
	DefaultClass    = sched.DefaultClass
	BackgroundClass = sched.BackgroundClass
)

// QoS tags a request (GEMM.QoS) with its scheduling treatment.
type QoS struct {
	// Class names the scheduling class (queue) the job parks in. ""
	// means the engine's default class (WithDefaultClass, else
	// DefaultClass). Classes are created on first use; WithClass (or a
	// positive Weight here) configures them.
	Class string

	// Weight, when positive, sets the class's relative share of worker
	// claim decisions. Zero keeps the class's current weight
	// (DefaultClass defaults to 16, every other class to 1). Weights
	// are starvation-free: any positive-weight class keeps making
	// progress under sustained higher-weight load.
	Weight int

	// Deadline, when non-zero, bounds the job's completion. An already
	// expired deadline is refused with ErrAdmission; one that expires
	// while the job is queued fails it before any task runs, and one
	// that expires mid-run skips the remaining tasks — the error is
	// context.DeadlineExceeded either way.
	Deadline time.Time
}

func (q QoS) toSched() sched.QoS {
	return sched.QoS{Class: q.Class, Weight: q.Weight, Deadline: q.Deadline}
}

// WithDefaultClass sets the scheduling class requests with an empty
// QoS class run under (default DefaultClass), whatever the entry point
// and wherever the plan came from. A serving setup can point each
// tenant's engine-facing path at its own class.
func WithDefaultClass(name string) EngineOption {
	return func(e *Engine) { e.defaultClass = name }
}

// WithClass pre-configures a scheduling class on the engine's runtime:
// weight is the class's relative share of worker claim decisions
// (<= 0 keeps the default), depth bounds the class's jobs in flight —
// beyond it submissions fail with ErrAdmission immediately. A depth of
// 0 keeps the class's current bound (a fresh class starts unbounded,
// so at construction 0 simply means unbounded) and a negative depth
// explicitly clears the bound, matching ConfigureClass.
func WithClass(name string, weight, depth int) EngineOption {
	return func(e *Engine) {
		e.classCfg = append(e.classCfg, classSetup{name: name, weight: weight, depth: depth})
	}
}

// classSetup is a WithClass request applied once the pool exists.
type classSetup struct {
	name          string
	weight, depth int
}

// ConfigureClass creates or reconfigures a scheduling class at runtime
// — the dynamic counterpart of WithClass, and the call a serving
// control plane retunes tenants with under load. It may be called
// while jobs of the class are in flight; weight changes take effect on
// the next claim decision, depth changes on the next submission. Both
// parameters follow the keep-on-zero contract: weight <= 0 keeps the
// current weight, depth 0 keeps the current admission bound — so a
// weight-only retune never drops a tenant's depth bound — and a
// negative depth explicitly clears the bound (unbounded; only the
// engine-wide queue depth applies).
func (e *Engine) ConfigureClass(name string, weight, depth int) {
	e.sched.ConfigureClass(name, sched.ClassConfig{Weight: weight, Depth: depth})
}

// ClassStats returns one scheduling class's counters without
// materializing the whole PlanCacheStats snapshot — the per-tenant
// lookup a serving front door polls on its hot path. "" names the
// engine's built-in DefaultClass queue. The second return is false
// until the class has been configured or first submitted to.
func (e *Engine) ClassStats(name string) (SchedClassStats, bool) {
	cs, ok := e.sched.Class(name)
	if !ok {
		return SchedClassStats{}, false
	}
	return schedClassStats([]sched.ClassStats{cs})[0], true
}

// SchedClassStats is one scheduling class's counters, as reported by
// PlanCacheStats.SchedClasses.
type SchedClassStats struct {
	Class     string
	Weight    int
	Depth     int   // 0 = unbounded
	InFlight  int   // accepted, not yet completed
	Submitted int64 // jobs accepted into the class
	Completed int64 // jobs whose every task finished
	Rejected  int64 // submissions refused at admission

	// Queue-wait accounting in claim decisions (the scheduler is
	// wall-clock-free): how many worker claim decisions the class's
	// jobs waited between acceptance and their first claim.
	// Cycle-accurate wait distributions come from the virtual-time
	// replay (the qos-replay experiment).
	QueueWaitJobs   int64
	QueueWaitClaims int64
}

// schedClassStats mirrors the scheduler's per-class snapshot into the
// public type.
func schedClassStats(in []sched.ClassStats) []SchedClassStats {
	if len(in) == 0 {
		return nil
	}
	out := make([]SchedClassStats, len(in))
	for i, c := range in {
		out[i] = SchedClassStats{
			Class:           c.Class,
			Weight:          c.Weight,
			Depth:           c.Depth,
			InFlight:        c.InFlight,
			Submitted:       c.Submitted,
			Completed:       c.Completed,
			Rejected:        c.Rejected,
			QueueWaitJobs:   c.QueueWaitJobs,
			QueueWaitClaims: c.QueueWaitClaims,
		}
	}
	return out
}
