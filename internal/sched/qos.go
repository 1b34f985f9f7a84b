package sched

import (
	"errors"
	"sort"
	"time"
)

// This file is the multi-class quality-of-service layer of the pool:
// per-class job queues, starvation-free weighted claiming, and
// admission control. Jobs carry a QoS — a class name, a claiming
// weight and an optional deadline — and the pool keeps one bounded
// FIFO queue per class instead of the single global list the original
// runtime used. Workers still claim tasks exactly as before; what
// changed is *which job* a free worker joins: claimableLocked arbitrates
// across classes with a deterministic credit (stride) scheme, so a
// high-weight latency class is served preferentially while a
// minimum-weight class still makes progress under sustained load.
//
// The scheme is stride scheduling on integer credit: every class holds
// a pass value; each join decision picks the active class with the
// lowest pass (ties break toward the lowest head-job ID, so replays of
// the same state are bit-stable) and advances that class's pass by
// strideScale/weight. A class idle long enough to fall behind is
// clamped up to the pool's virtual pass when it re-activates, so idling
// never banks credit. With a single active class every decision is the
// FIFO scan the pre-QoS scheduler performed — the default path is
// behavior-identical.
//
// Admission control is per class: a class configured with a bounded
// depth sheds work with ErrAdmission instead of blocking once that many
// of its jobs are in flight (the pool-wide depth still applies and
// still blocks). A job whose QoS deadline has already expired is
// refused the same way; one whose deadline expires while parked in its
// class queue fails before claiming through the scheduler's existing
// context fast-path — its future fires with context.DeadlineExceeded
// and no task runs.

// Built-in class names. A zero QoS routes to DefaultClass; the
// background class is what best-effort work (the tiered planner's
// DMT upgrades) runs under, pre-configured at minimum weight so it can
// never delay foreground classes that have work queued.
const (
	// DefaultClass is the class a zero QoS submits to.
	DefaultClass = "default"
	// BackgroundClass is the pre-registered minimum-weight class for
	// best-effort work.
	BackgroundClass = "background"
)

// ErrAdmission matches (via errors.Is) every submission the pool
// refuses at admission: a class at its bounded depth, or a QoS deadline
// already expired at submit time. Shedding is immediate — admission
// never blocks the submitter the way pool-level backpressure does.
var ErrAdmission = errors.New("sched: admission refused")

// QoS describes how a job is scheduled relative to other jobs:
// the class queue it parks in, the claiming weight of that class, and
// an optional completion deadline.
type QoS struct {
	// Class names the job's queue. "" means DefaultClass. Classes are
	// created on first use; ConfigureClass sets weight and depth
	// explicitly.
	Class string

	// Weight, when positive, sets the class's claiming weight (relative
	// share of worker join decisions). Zero leaves the class weight
	// unchanged: DefaultClass defaults to 16, every other class to 1.
	Weight int

	// Deadline, when non-zero, bounds the job's completion. An already
	// expired deadline is refused at admission (ErrAdmission); one that
	// expires while the job is queued or running makes remaining claims
	// skip work, so the future fires promptly with
	// context.DeadlineExceeded.
	Deadline time.Time
}

// className resolves the queue name of a QoS.
func (q QoS) className() string {
	if q.Class == "" {
		return DefaultClass
	}
	return q.Class
}

// ClassConfig configures one class queue. Both fields follow the same
// keep-on-zero contract, so a partial reconfiguration never silently
// resets the dimension it did not name.
type ClassConfig struct {
	// Weight is the class's relative share of worker join decisions;
	// <= 0 keeps the current (or default) weight.
	Weight int
	// Depth bounds the class's jobs in flight (accepted, not yet
	// completed): at the bound further submissions are refused with
	// ErrAdmission instead of blocking. Positive sets the bound, 0
	// keeps the current one (a new class starts unbounded), and a
	// negative value explicitly clears it — only the pool-wide depth
	// applies then.
	Depth int
}

// ConfigureClass creates (or reconfigures) a class queue. It may be
// called at any time, including while jobs of the class are in flight;
// weight changes take effect on the next join decision, depth changes
// on the next submission. A zero field keeps the class's current
// setting — a weight-only retune of a bounded class preserves its
// admission bound — and a negative Depth explicitly removes the bound.
func (p *Pool) ConfigureClass(name string, cfg ClassConfig) {
	if name == "" {
		name = DefaultClass
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cq := p.classLocked(name)
	if cfg.Weight > 0 {
		cq.weight = cfg.Weight
	}
	if cfg.Depth > 0 {
		cq.depth = cfg.Depth
	} else if cfg.Depth < 0 {
		cq.depth = 0
	}
}

// ClassStats is a snapshot of one class queue's counters.
type ClassStats struct {
	Class     string
	Weight    int
	Depth     int   // 0 = unbounded
	InFlight  int   // accepted, not yet completed
	Submitted int64 // jobs accepted into the class
	Completed int64 // jobs whose every task finished
	Rejected  int64 // submissions refused at admission (depth or expired deadline)

	// Queue-wait accounting, in *claim decisions*, not wall time: the
	// scheduler is wall-clock-free by the walltime vet contract, so a
	// job's wait is measured as how many worker join decisions the pool
	// made between the job's acceptance and its own first join. Zero
	// means a worker picked the job up immediately. Cycle-accurate wait
	// distributions come from the virtual-time replay
	// (vtime.SimulateBatch, the qos-replay experiment).
	QueueWaitJobs   int64 // jobs that have been joined at least once
	QueueWaitClaims int64 // cumulative claim decisions those jobs waited
}

// strideScale is the credit numerator of the weighted-claiming scheme:
// a class's pass advances by strideScale/weight per join decision, so
// relative claim rates match relative weights while integer math stays
// exact and overflow-free (maximum advance 1<<16 per decision).
const strideScale = 1 << 16

// classQueue is one QoS class: a FIFO of accepted jobs with unclaimed
// tasks plus the class's scheduling state and counters. All fields are
// guarded by pool.mu.
type classQueue struct {
	name   string
	weight int
	depth  int    // max in-flight jobs; 0 = unbounded
	pass   uint64 // stride-scheduling credit consumed

	jobs     []*job // claim frontier, FIFO by acceptance
	inflight int

	submitted, completed, rejected int64
	waitJobs, waitClaims           int64
}

// stride returns the pass advance of one join decision for the class.
func (cq *classQueue) stride() uint64 {
	w := cq.weight
	if w < 1 {
		w = 1
	}
	if w > strideScale {
		w = strideScale
	}
	return uint64(strideScale / w)
}

// joinableLocked returns the first job of the class a new participant
// may join — unclaimed tasks remain and the participant cap is not
// reached — preserving the FIFO discipline within the class.
func (cq *classQueue) joinableLocked() *job {
	for _, j := range cq.jobs {
		if j.joinableLocked() {
			return j
		}
	}
	return nil
}

// classLocked returns the named class queue, creating it on first use.
// DefaultClass is born with weight 16 so foreground work outweighs
// unconfigured (weight-1) classes such as BackgroundClass. New classes
// are inserted at their sorted position (sort.Search + shift) instead
// of re-sorting the whole list under pool.mu — class creation sits on
// the submit path, and the list is already ordered.
func (p *Pool) classLocked(name string) *classQueue {
	if cq, ok := p.classes[name]; ok {
		return cq
	}
	w := 1
	if name == DefaultClass {
		w = 16
	}
	cq := &classQueue{name: name, weight: w}
	p.classes[name] = cq
	i := sort.Search(len(p.classList), func(i int) bool { return p.classList[i].name >= name })
	p.classList = append(p.classList, nil)
	copy(p.classList[i+1:], p.classList[i:])
	p.classList[i] = cq
	return cq
}

// statsLocked snapshots one class queue's counters.
func (cq *classQueue) statsLocked() ClassStats {
	return ClassStats{
		Class:           cq.name,
		Weight:          cq.weight,
		Depth:           cq.depth,
		InFlight:        cq.inflight,
		Submitted:       cq.submitted,
		Completed:       cq.completed,
		Rejected:        cq.rejected,
		QueueWaitJobs:   cq.waitJobs,
		QueueWaitClaims: cq.waitClaims,
	}
}

// Class returns a snapshot of one class queue's counters without
// materializing the full Stats slice — the single-class lookup a
// serving control plane polls per tenant ("" means DefaultClass). The
// second return is false when the class has never been configured or
// submitted to.
func (p *Pool) Class(name string) (ClassStats, bool) {
	if name == "" {
		name = DefaultClass
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cq, ok := p.classes[name]
	if !ok {
		return ClassStats{}, false
	}
	return cq.statsLocked(), true
}

// classStatsLocked snapshots every class queue, sorted by name.
func (p *Pool) classStatsLocked() []ClassStats {
	out := make([]ClassStats, 0, len(p.classList))
	for _, cq := range p.classList {
		out = append(out, cq.statsLocked())
	}
	return out
}
