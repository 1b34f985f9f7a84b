package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"autogemm/internal/sched"
)

// This file is the plan's bridge onto the scheduler runtime
// (internal/sched). Every execution — the blocking Run, RunParallel and
// RunQoS, and the asynchronous Submit — is one scheduler job: the
// plan's C-tile groups are the job's tasks, claimed from a shared
// atomic cursor by up to `workers` participants. A blocking run is one
// of them, claiming on the calling goroutine; an async job runs on pool
// workers only.
// Different (m, n) groups touch disjoint C regions, so they run
// concurrently; the k chunks of one group accumulate in ascending order
// inside a single task, which keeps per-job results bit-identical to a
// serial Run at every worker count.

// jobSeq distinguishes jobs so worker-held pack-reuse keys reset at job
// boundaries (see execState.job).
var jobSeq uint64

// partitionGroups groups a block iteration by (m, n) tile of C, keeping
// each group's k chunks in ascending order (accumulation is
// order-sensitive only in rounding, but keep it deterministic). Groups
// appear in first-visit order of the plan's loop order. Attach calls
// this once; execution never re-partitions.
func partitionGroups(blocks []blockIter) [][]blockIter {
	index := make(map[[2]int]int)
	var groups [][]blockIter
	for _, blk := range blocks {
		key := [2]int{blk.MOff, blk.NOff}
		gi, ok := index[key]
		if !ok {
			gi = len(groups)
			index[key] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], blk)
	}
	for _, g := range groups {
		g := g
		sort.SliceStable(g, func(i, j int) bool { return g[i].KOff < g[j].KOff })
	}
	return groups
}

// RunFuture is a pending GEMM job submitted through the plan's runtime.
// Wait blocks until the job completes and returns its first error; it
// is safe to call from multiple goroutines and idempotent.
type RunFuture struct {
	p    *Plan
	f    *sched.Future
	once sync.Once
	err  error
}

// Wait blocks for the job and returns its first task error.
func (f *RunFuture) Wait() error {
	f.once.Do(func() { f.err = f.p.settle(f.f) })
	return f.err
}

// settle waits for a job, folds it into the plan's job counters and
// returns its first task error. Called once per job.
func (p *Plan) settle(f *sched.Future) error {
	err := f.Wait()
	atomic.AddInt64(&p.nJobsDone, 1)
	atomic.AddInt64(&p.nStolen, f.TasksStolen())
	return err
}

// Done returns a channel closed when the job completes. After Done,
// Wait returns without blocking.
func (f *RunFuture) Done() <-chan struct{} { return f.f.Done() }

// OnDone invokes fn with the job's completion error exactly once, on a
// scheduler-owned goroutine (sched.Future.OnDone's contract). The
// error is routed through Wait so the plan's job counters fold exactly
// once however completion is observed.
func (f *RunFuture) OnDone(fn func(error)) {
	f.f.OnDone(func(error) { fn(f.Wait()) })
}

// JobID returns the scheduler's pool-unique ID for this job: the order
// the pool accepted it in, which a vtime replay orders jobs by.
func (f *RunFuture) JobID() int64 { return f.f.JobID() }

// Tasks returns the number of C-tile-group tasks in this job.
func (f *RunFuture) Tasks() int { return f.f.Tasks() }

// Participants returns how many pool workers ran at least one of the
// job's tasks. Only meaningful after the job completes.
func (f *RunFuture) Participants() int { return f.f.Participants() }

// TasksStolen returns how many of the job's tasks were claimed by
// workers other than the one that claimed the first task.
func (f *RunFuture) TasksStolen() int64 { return f.f.TasksStolen() }

// WaitContext is Wait bounded by a context: it returns the job's error
// once it completes, or ctx.Err() if the context fires first. An early
// return does not abandon the job; Wait remains usable and the
// operand slices stay in use until the job actually completes.
func (f *RunFuture) WaitContext(ctx context.Context) error {
	select {
	case <-f.f.Done():
		return f.Wait()
	default:
	}
	select {
	case <-f.f.Done():
		return f.Wait()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// checkGeometry rejects negative extents and operand areas that
// overflow int before any buffer-length arithmetic: with m = k = -1 the
// product m*k is 1, so the minimum-length checks alone would wave
// garbage geometry into execution.
func checkGeometry(m, n, k int) error {
	if m < 0 || n < 0 || k < 0 {
		return fmt.Errorf("core: negative problem extents %dx%dx%d", m, n, k)
	}
	for _, d := range [3][2]int{{m, k}, {k, n}, {m, n}} {
		if d[0] > 0 && d[1] > math.MaxInt/d[0] {
			return fmt.Errorf("core: problem extents %dx%dx%d overflow int", m, n, k)
		}
	}
	return nil
}

// ErrOverlap is returned, before any work, for a run whose C shares
// memory with A or B: the C-tile groups write C while others, and later
// k blocks of their own, still read A and B. A and B may overlap each
// other; both are only read.
var ErrOverlap = errors.New("core: C overlaps A or B")

// job validates the geometry and operand buffers and returns the
// plan's C-tile-group task function over them, with each operand cut
// to its m·k, k·n or m·n elements. The scheduler resolves the
// participant cap: <= 0 means the whole pool, and never more than one
// participant per group.
func (p *Plan) job(c, a, b []float32) (func(*sched.Worker, int) error, error) {
	m, n, k := p.M, p.N, p.K
	if err := checkGeometry(m, n, k); err != nil {
		return nil, err
	}
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		return nil, fmt.Errorf("core: buffer sizes (%d,%d,%d) too small for %dx%dx%d",
			len(a), len(b), len(c), m, n, k)
	}
	c, a, b = c[:m*n], a[:m*k], b[:k*n]
	if overlaps(c, a) || overlaps(c, b) {
		return nil, fmt.Errorf("%w (%dx%dx%d)", ErrOverlap, m, n, k)
	}
	seq := atomic.AddUint64(&jobSeq, 1)
	return func(w *sched.Worker, gi int) error {
		return p.runGroup(p.stateFor(w, seq), p.groups[gi], c, a, b)
	}, nil
}

// overlaps reports whether x and y share an element. It reads the
// addresses through reflect because unsafe stays inside the compiled
// executor (the unsafeptr vet pass), and takes them from element
// pointers, which box without allocating.
func overlaps(x, y []float32) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	x0, y0 := reflect.ValueOf(&x[0]).Pointer(), reflect.ValueOf(&y[0]).Pointer()
	return x0 < y0+uintptr(len(y))*4 && y0 < x0+uintptr(len(x))*4
}

// Submit validates the geometry and operand buffers and enqueues the
// plan's C-tile-group task list on the runtime as one job bound to ctx,
// claimed by at most `workers` pool workers (<= 0 means all of them),
// scheduled under qos. The operand slices must stay untouched until
// the future's Wait returns. Cancellation mid-job skips the remaining
// C-tile groups (the job fails with ctx.Err()) and unblocks a submitter
// stalled on scheduler backpressure; a set qos.Deadline bounds
// completion (expired -> sched.ErrAdmission before claiming).
func (p *Plan) Submit(ctx context.Context, c, a, b []float32, workers int, qos sched.QoS) (*RunFuture, error) {
	run, err := p.job(c, a, b)
	if err != nil {
		return nil, err
	}
	fut, err := p.runtime.SubmitQoS(ctx, len(p.groups), workers, qos, run)
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&p.nJobs, 1)
	return &RunFuture{p: p, f: fut}, nil
}

// RunQoS is Submit followed by Wait, with the calling goroutine as one
// of the job's `workers` participants (sched.Pool.RunQoS): it claims
// C-tile groups itself and wakes at most workers − 1 pool workers, so
// with workers = 1 the whole job runs on the caller and no worker is
// woken. Admission, backpressure, cancellation and deadlines are
// Submit's; it returns the submission error, else the job's.
func (p *Plan) RunQoS(ctx context.Context, c, a, b []float32, workers int, qos sched.QoS) error {
	run, err := p.job(c, a, b)
	if err != nil {
		return err
	}
	fut, err := p.runtime.RunQoS(ctx, len(p.groups), workers, qos, run)
	if err != nil {
		return err
	}
	atomic.AddInt64(&p.nJobs, 1)
	return p.settle(fut)
}

// RunParallel is Run with the C-tile groups claimed by up to `workers`
// participants concurrently, the caller among them — the functional
// counterpart of the multi-core scheduling the Estimate path models.
// workers <= 0 uses the whole pool. Results are bit-identical to Run:
// each C tile's k chunks execute in ascending order within one task.
func (p *Plan) RunParallel(c, a, b []float32, workers int) error {
	return p.RunQoS(context.Background(), c, a, b, workers, sched.QoS{})
}
