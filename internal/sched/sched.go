// Package sched is the persistent execution runtime GEMMs run on: a
// fixed set of worker goroutines owned by an engine (or the shared
// process-wide pool), bounded per-class job queues, and futures for
// asynchronous completion.
//
// A job is one GEMM decomposed into independent tasks — the C-tile
// groups of the plan's block grid. Tasks are claimed from a shared
// atomic cursor, the same work-claiming discipline the old one-shot
// RunParallel goroutines used, so an expensive edge group never
// serializes the rest behind a static partition. Workers are not bound
// to jobs: a worker that exhausts one job's claim frontier moves to the
// next claimable job, and several workers gang up on a single large job
// (up to the job's participant cap), so a batch of small shapes never
// strands workers behind one slow GEMM.
//
// A caller that blocks on its job anyway (RunQoS) does not hand it off:
// it joins the job as its first participant and claims tasks on its own
// goroutine, waking only the workers the job can use beside it. A job
// capped at one participant, or with one task, wakes no worker at all.
//
// Scheduling policy: jobs park in per-class queues (see qos.go). A free
// worker joins the job chosen by deterministic weighted claiming across
// the active classes — stride-scheduled credit, FIFO within a class,
// ties broken by the lowest job ID — so a latency-sensitive class is
// served preferentially while every class, whatever its weight, keeps
// making progress. With a single active class this degenerates to the
// plain FIFO the pre-QoS scheduler ran.
//
// Backpressure and admission: the pool bounds the number of jobs in
// flight (submitted but not yet completed). Submit blocks while the
// pool is at depth and fails with ErrClosed once Close is called. A
// class configured with its own depth sheds instead: submissions beyond
// it fail immediately with ErrAdmission. Close drains every job already
// accepted — their futures complete — and then stops the workers; it
// never abandons accepted work.
//
// Failure semantics: a panic inside a task is contained — it is
// converted into a *PanicError on the job (matching ErrPanicked), the
// worker survives, the job's remaining claims are skipped, and the
// future still fires. SubmitQoS binds a job to a context:
// cancellation makes later claims skip work (the error-fast-path) and
// wakes submitters blocked on backpressure; a QoS deadline rides the
// same path. CloseWithTimeout bounds the drain and reports
// still-running work instead of hanging.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by Submit after Close, and by futures whose
// submission raced with Close.
var ErrClosed = errors.New("sched: pool closed")

// ErrPanicked matches (via errors.Is) the error a job's future returns
// when one of its tasks panicked. The concrete error is a *PanicError
// carrying the recovered value and stack.
var ErrPanicked = errors.New("sched: task panicked")

// ErrDrainTimeout matches the error CloseWithTimeout returns when the
// drain deadline expires with jobs still running.
var ErrDrainTimeout = errors.New("sched: drain timed out")

// ErrBusy is returned by TrySubmit when the pool is at its in-flight
// depth. Best-effort callers (the tiered planner's background upgrade)
// treat it as "not now" and retry later instead of blocking a serving
// path on planner backpressure.
var ErrBusy = errors.New("sched: pool busy")

// PanicError is the job error produced when a task panics: the panic is
// recovered inside the worker (which survives and keeps serving other
// jobs), the job fails, and its future returns this error. It unwraps
// to ErrPanicked.
type PanicError struct {
	Task  int    // index of the panicking task
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking goroutine at recovery
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: task %d panicked: %v", e.Task, e.Value)
}

// Unwrap makes errors.Is(err, ErrPanicked) match.
func (e *PanicError) Unwrap() error { return ErrPanicked }

// Pool is a persistent worker pool executing jobs of independent tasks.
// It is safe for concurrent use. Workers start lazily on the first
// Submit and live until Close.
type Pool struct {
	workers int
	depth   int

	// mu guards the pool's state. Parked workers wait on work, which
	// only an accepted job signals — no other event makes a job
	// joinable. Submitters blocked on backpressure wait on room, which
	// a completing job, a firing context and Close broadcast.
	mu        sync.Mutex
	work      *sync.Cond
	room      *sync.Cond
	classes   map[string]*classQueue // per-QoS-class claim frontiers (qos.go)
	classList []*classQueue          // classes sorted by name: deterministic arbitration scans
	vpass     uint64                 // stride clock: pass of the last chosen class
	claimSeq  int64                  // join decisions made; queue-wait unit
	inflight  int                    // accepted, not yet completed (bounded by depth)
	started   bool
	closed    bool
	wg        sync.WaitGroup

	submitted int64
	completed int64
	stolen    int64
	highWater int
	jobSeq    int64 // job IDs, assigned at acceptance (under mu)

	panicked  int64 // atomic: tasks whose panic was contained
	cancelled int64 // jobs failed by context cancellation

	perWorker   []atomic.Int64 // tasks run by each pool worker (countTask)
	callerTasks atomic.Int64   // tasks run by RunQoS callers

	// Caller slots: Worker IDs in [workers, workers+depth) lent to RunQoS
	// callers for the life of their job, reused LIFO so a steady caller
	// keeps one slot (and the Local value stored under it). A slot is
	// returned before its job completes, so no more slots are out than
	// jobs in flight, which the depth bounds.
	callerFree []int
	callerNext int

	local []any // one Worker.Local value per ID, Slots() entries
}

// Stats is a snapshot of a pool's scheduling counters.
type Stats struct {
	Workers        int
	JobsSubmitted  int64
	JobsCompleted  int64
	TasksStolen    int64         // tasks run by a worker other than the job's first claimant
	QueueHighWater int           // most jobs ever in flight at once (bounded by the depth)
	TasksPanicked  int64         // tasks whose panic was recovered and converted to a job error
	JobsCancelled  int64         // jobs that failed because their context was cancelled
	Classes        []ClassStats  // per-QoS-class counters, sorted by class name (qos.go)
	PerWorker      []WorkerStats // per-worker tasks run, indexed by worker ID
	CallerTasks    int64         // tasks RunQoS callers ran on their own jobs (not in PerWorker)
}

// WorkerStats is one pool worker's task accounting. The spread of
// TasksRun across workers is the load-imbalance figure.
type WorkerStats struct {
	TasksRun int64 // tasks actually run (skipped claims excluded)
}

// New returns a pool with the given worker count and queue depth.
// workers <= 0 uses GOMAXPROCS; depth <= 0 uses a default generous
// enough that synchronous callers rarely block (max(64, 4·workers)).
func New(workers, depth int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth <= 0 {
		depth = 4 * workers
		if depth < 64 {
			depth = 64
		}
	}
	p := &Pool{workers: workers, depth: depth, classes: make(map[string]*classQueue)}
	p.work = sync.NewCond(&p.mu)
	p.room = sync.NewCond(&p.mu)
	p.perWorker = make([]atomic.Int64, workers)
	p.local = make([]any, p.Slots())
	return p
}

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-wide fallback pool, used by plans attached
// without an engine-owned runtime (direct core.NewPlan callers, tests).
// It is sized at GOMAXPROCS and never closed.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = New(0, 0) })
	return sharedPool
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Slots returns the number of distinct Worker IDs a task can see: the
// pool workers' [0, Workers()) and the caller slots [Workers(), Slots())
// RunQoS lends its callers, one per job in flight at most.
func (p *Pool) Slots() int { return p.workers + p.depth }

// Worker identifies the participant running a task callback: a pool
// worker, or a RunQoS caller running its own job. IDs are dense in
// [0, Slots()) and each ID is only ever active on one goroutine at a
// time, so the value an ID keeps in Local (e.g. the executor's packing
// buffers) needs no locking. A worker's ID is stable for the life of
// the pool; a caller holds its slot for one job.
type Worker struct {
	id   int
	pool *Pool
}

// ID returns the participant's dense index: in [0, Workers()) for a
// pool worker, in [Workers(), Slots()) for a RunQoS caller.
func (w *Worker) ID() int { return w.id }

// Local returns the pool's storage slot for this participant's ID. It
// outlives the task and the job: the next task run under the same ID,
// on any job, sees what this one stored. Only the goroutine holding the
// ID touches it, so it needs no lock.
func (w *Worker) Local() *any { return &w.pool.local[w.id] }

// job is one submitted unit: n independent tasks claimed from an atomic
// cursor by up to max participating workers.
type job struct {
	pool *Pool
	ctx  context.Context // cancellation: later claims skip once Done
	id   int64           // pool-unique, assigned at acceptance
	n    int
	max  int
	run  func(w *Worker, task int) error

	next   int64 // atomic claim cursor
	done   int64 // atomic count of arrivals: completed tasks, plus a caller's exit
	end    int64 // arrivals that complete the job: n, plus one with a caller
	failed int32 // atomic: a task returned an error; later claims skip
	stolen int64 // atomic: tasks run by non-primary participants

	parts  int  // participants joined (under pool.mu)
	listed bool // still on its class queue (under pool.mu)

	cq        *classQueue        // owning class queue (under pool.mu)
	cancel    context.CancelFunc // releases a QoS-deadline context at completion
	acceptSeq int64              // pool claimSeq at acceptance (queue-wait base)
	joined    bool               // first join recorded (under pool.mu)
	caller    Worker             // a RunQoS job's caller, as a participant
	helper    bool               // a TryRunQoS job: outside its class's depth bound

	mu  sync.Mutex
	err error

	fin chan struct{}
}

// joinableLocked reports whether a new participant may join the job:
// unclaimed tasks remain and the participant cap is not reached.
func (j *job) joinableLocked() bool {
	return j.parts < j.max && atomic.LoadInt64(&j.next) < int64(j.n)
}

// Future is a handle on a submitted job. Wait blocks until every task
// has completed (or been skipped after a failure) and returns the first
// task error.
type Future struct{ j *job }

// Wait blocks for job completion and returns the first task error.
func (f *Future) Wait() error {
	<-f.j.fin
	f.j.mu.Lock()
	defer f.j.mu.Unlock()
	return f.j.err
}

// Done returns a channel closed when the job completes (every task ran
// or was skipped). After Done, Wait returns without blocking.
func (f *Future) Done() <-chan struct{} { return f.j.fin }

// WaitContext is Wait bounded by a context: it returns the job's first
// task error once the job completes, or ctx.Err() if the context fires
// first. An early context return does not abandon the job — it keeps
// running (or draining, if it was itself cancelled) and Wait remains
// usable.
func (f *Future) WaitContext(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-f.j.fin: // completed: prefer the job's result over a racing cancel
		return f.Wait()
	default:
	}
	select {
	case <-f.j.fin:
		return f.Wait()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TasksStolen reports, after Wait, how many of the job's tasks ran on a
// worker other than its first claimant.
func (f *Future) TasksStolen() int64 {
	<-f.j.fin
	return atomic.LoadInt64(&f.j.stolen)
}

// Tasks reports the job's task count — the group geometry the caller
// decomposed the work into. Together with Participants it lets callers
// (and the plan auditor's tests) cross-check that a submission's
// decomposition matches the C-tile groups a plan promises: one task per
// group, so exclusivity of groups implies race-freedom of the job.
func (f *Future) Tasks() int { return f.j.n }

// JobID returns the pool-unique ID assigned to the job at acceptance:
// the order the pool accepted its jobs in.
func (f *Future) JobID() int64 { return f.j.id }

// Participants reports, after the job completes, how many participants
// actually joined it — pool workers, and for a RunQoS job its caller.
// Always in [1, min(maxWorkers, tasks, pool size)] for a non-empty job;
// the task-claim cursor guarantees each task ran exactly once
// regardless of the participant count.
func (f *Future) Participants() int {
	<-f.j.fin
	f.j.pool.mu.Lock()
	defer f.j.pool.mu.Unlock()
	return f.j.parts
}

// OnDone invokes fn with the job's first task error once the job
// completes, without the caller having to park a goroutine on Wait —
// the continuation hook asynchronous submitters (the background plan
// upgrade) chain completion work on. fn runs exactly once, on a
// dedicated goroutine owned by the pool runtime, never inside a worker
// — so it may submit follow-up jobs, lock caller state, or run for a
// while without stalling task execution. A task error or contained
// panic reaches fn as the error; fn observing nil means every task
// ran. Note that OnDone fires even on a job whose remaining tasks were
// skipped after a failure — exactly the case a continuation must see
// to run its error path.
//
// Ordering contract: fn is asynchronous with respect to Wait. The
// callback is released by the same completion event that unblocks Wait
// (and closes Done()), but there is NO ordering between the two — a
// caller returning from Wait may observe the callback not yet run, and
// fn may likewise run before any waiter wakes. What is guaranteed: fn
// runs exactly once, it observes the same error Wait returns, and a
// registration after completion still fires. Callers needing
// wait-then-callback ordering must sequence it themselves;
// TestOnDoneOrderingContract pins these semantics.
func (f *Future) OnDone(fn func(error)) {
	go func() {
		<-f.j.fin
		fn(f.Wait())
	}()
}

// Submit enqueues a job of `tasks` independent tasks, each executed as
// run(worker, i), with at most maxWorkers pool workers participating
// (<= 0 means all). Tasks are claimed in ascending index order; with
// maxWorkers = 1 exactly one worker executes 0..tasks-1 sequentially.
// Submit blocks while the pool is at its in-flight depth and returns
// ErrClosed after Close. The job runs under the default QoS class.
func (p *Pool) Submit(tasks, maxWorkers int, run func(w *Worker, task int) error) (*Future, error) {
	return p.submit(context.Background(), tasks, maxWorkers, QoS{}, intakeQueue, run)
}

// SubmitQoS is Submit bound to a context and a QoS. A context that
// fires while the submitter is blocked on backpressure aborts the
// submission with ctx.Err(); one that fires after acceptance cancels
// the job — unclaimed tasks are skipped (claims drain without running
// work, the same fast-path a task error takes), the job completes
// promptly, and its future returns ctx.Err(). A task already running is
// not interrupted. A nil context means Background. The job parks in
// qos.Class's queue (the zero QoS is the default class), is claimed at
// that class's weight, and — when qos.Deadline is set — fails before
// claiming once the deadline expires. Admission control applies: a
// class at its configured depth, or a deadline already expired at
// submission, refuses the job with an error matching ErrAdmission
// instead of blocking.
func (p *Pool) SubmitQoS(ctx context.Context, tasks, maxWorkers int, qos QoS, run func(w *Worker, task int) error) (*Future, error) {
	return p.submit(ctx, tasks, maxWorkers, qos, intakeQueue, run)
}

// RunQoS is SubmitQoS for a caller that blocks until the job is done:
// the calling goroutine joins the job as its first participant, under a
// caller slot ID in [Workers(), Slots()), claims tasks from the job's
// cursor like a pool worker and, once the cursor is exhausted, waits
// for the tasks other participants still run. The caller counts toward
// maxWorkers, so only min(maxWorkers, tasks) − 1 parked workers are
// woken and a job capped at one participant runs on the caller alone,
// in task order. Admission, backpressure, shedding, deadlines,
// cancellation, the fault hook and panic containment are SubmitQoS's.
// It returns the completed job's future (Wait returns at once), or the
// submission error.
func (p *Pool) RunQoS(ctx context.Context, tasks, maxWorkers int, qos QoS, run func(w *Worker, task int) error) (*Future, error) {
	return p.join(p.submit(ctx, tasks, maxWorkers, qos, intakeRun, run))
}

// TryRunQoS is RunQoS for a helper job: work a call could also do
// serially, which the engine uses to fan a cold call's planning and
// kernel builds out. It never waits: at the pool's in-flight depth it
// fails at once with ErrBusy, and a refusal (ErrBusy, ErrClosed, a done
// context or expired deadline) only means the caller does the work
// alone. A helper is part of its call, not a request of its own, so it
// stands outside its class's admission: it neither takes one of the
// class's depth slots (ClassStats.InFlight leaves it out) nor is shed
// at that bound, and a refusal is never counted in ClassStats.Rejected.
// It is still counted as submitted and completed in qos.Class, and
// claimed at its weight.
func (p *Pool) TryRunQoS(ctx context.Context, tasks, maxWorkers int, qos QoS, run func(w *Worker, task int) error) (*Future, error) {
	return p.join(p.submit(ctx, tasks, maxWorkers, qos, intakeHelper, run))
}

// join runs an accepted caller-joined job on the calling goroutine:
// claim tasks until the cursor is exhausted, leave, and wait for the
// tasks other participants still run.
func (p *Pool) join(f *Future, err error) (*Future, error) {
	if err != nil || f.j.n == 0 {
		return f, err
	}
	j := f.j
	j.work(&j.caller, true)
	j.leave(&j.caller)
	j.arrive()
	<-j.fin
	return f, nil
}

// TrySubmitQoS is Submit with an explicit QoS and without the
// backpressure wait: when the pool is at its in-flight depth it fails
// immediately with ErrBusy instead of blocking. It exists for
// best-effort background work — the background planner enqueues its DMT
// upgrades with it under BackgroundClass, because a caller serving a
// latency-sensitive request must never park behind the queue just to
// schedule an optimization.
func (p *Pool) TrySubmitQoS(tasks, maxWorkers int, qos QoS, run func(w *Worker, task int) error) (*Future, error) {
	return p.submit(context.Background(), tasks, maxWorkers, qos, intakeTry, run)
}

// intake is how a job enters the pool, one per entry point.
type intake uint8

const (
	intakeQueue  intake = iota // Submit, SubmitQoS: wait out backpressure, run on pool workers
	intakeRun                  // RunQoS: wait out backpressure, the submitter joins
	intakeHelper               // TryRunQoS: never wait, the submitter joins, outside class admission
	intakeTry                  // TrySubmitQoS: never wait, run on pool workers
)

// waits reports whether the submission waits out pool-level
// backpressure instead of failing with ErrBusy.
func (in intake) waits() bool { return in == intakeQueue || in == intakeRun }

// joins reports whether the submitter joins the job at acceptance
// under a caller slot.
func (in intake) joins() bool { return in == intakeRun || in == intakeHelper }

// submit is the single intake path behind every Submit variant and
// RunQoS: validate, resolve the QoS class, apply admission control,
// wait out (or refuse, for try-submits) pool-level backpressure, and
// accept the job into its class queue. A joining submitter takes a
// caller slot at acceptance and one fewer worker is woken. A helper
// job skips the class's depth bound and its refusals are not counted
// as rejections.
func (p *Pool) submit(ctx context.Context, tasks, maxWorkers int, qos QoS, in intake, run func(w *Worker, task int) error) (*Future, error) {
	helper := in == intakeHelper
	if ctx == nil {
		ctx = context.Background()
	}
	if tasks < 0 {
		return nil, fmt.Errorf("sched: negative task count %d", tasks)
	}
	var cancel context.CancelFunc
	if !qos.Deadline.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, qos.Deadline)
	}
	fail := func(err error) (*Future, error) {
		if cancel != nil {
			cancel()
		}
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		if cancel != nil && errors.Is(err, context.DeadlineExceeded) {
			if !helper {
				p.countRejected(qos)
			}
			return fail(fmt.Errorf("%w: class %q deadline already expired: %v", ErrAdmission, qos.className(), err))
		}
		return fail(err)
	}
	if maxWorkers <= 0 || maxWorkers > p.workers {
		maxWorkers = p.workers
	}
	// A participant beyond the task count could claim nothing.
	maxWorkers = max(min(maxWorkers, tasks), 1)
	j := &job{pool: p, ctx: ctx, n: tasks, end: int64(tasks), max: maxWorkers, run: run, cancel: cancel, helper: helper, fin: make(chan struct{})}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fail(ErrClosed)
	}
	p.startLocked()
	if p.inflight >= p.depth {
		if !in.waits() {
			p.mu.Unlock()
			return fail(ErrBusy)
		}
		// Blocked on backpressure: a cond.Wait cannot select on the
		// context, so a watcher broadcasts room when it fires and the
		// loop re-checks ctx.Err. The watcher exits either way.
		var stop chan struct{}
		if done := ctx.Done(); done != nil {
			stop = make(chan struct{})
			go func() {
				select {
				case <-done:
					p.mu.Lock()
					p.room.Broadcast()
					p.mu.Unlock()
				case <-stop:
				}
			}()
		}
		for p.inflight >= p.depth && !p.closed && ctx.Err() == nil {
			p.room.Wait()
		}
		if stop != nil {
			close(stop)
		}
	}
	if p.closed {
		p.mu.Unlock()
		return fail(ErrClosed)
	}
	cq := p.classLocked(qos.className())
	if qos.Weight > 0 {
		cq.weight = qos.Weight
	}
	if err := ctx.Err(); err != nil {
		if cancel != nil && errors.Is(err, context.DeadlineExceeded) {
			if !helper {
				cq.rejected++
			}
			p.mu.Unlock()
			return fail(fmt.Errorf("%w: class %q deadline expired before acceptance: %v", ErrAdmission, cq.name, err))
		}
		p.mu.Unlock()
		return fail(err)
	}
	if !helper && cq.depth > 0 && cq.inflight >= cq.depth {
		// Per-class admission sheds immediately — a bounded class never
		// converts its own overload into blocking for the submitter.
		cq.rejected++
		p.mu.Unlock()
		return fail(fmt.Errorf("%w: class %q at depth %d", ErrAdmission, cq.name, cq.depth))
	}
	p.submitted++
	cq.submitted++
	p.jobSeq++
	j.id = p.jobSeq
	j.cq = cq
	j.acceptSeq = p.claimSeq
	p.inflight++
	if !helper {
		cq.inflight++
	}
	if p.inflight > p.highWater {
		p.highWater = p.inflight
	}
	if tasks == 0 {
		p.inflight--
		if !helper {
			cq.inflight--
		}
		p.completed++
		cq.completed++
		p.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		close(j.fin)
		return &Future{j}, nil
	}
	if in.joins() {
		// The caller joins at acceptance, having waited no claim
		// decision, and leaves before the job can complete.
		j.caller = Worker{id: p.callerSlotLocked(), pool: p}
		j.parts, j.joined = 1, true
		cq.waitJobs++
		j.end++
	}
	if j.joinableLocked() {
		j.listed = true
		cq.jobs = append(cq.jobs, j)
		// A class activating after idling is clamped up to the stride
		// clock so banked idle time can never monopolize the workers;
		// for already active classes this is a no-op (their pass is
		// >= vpass).
		if cq.pass < p.vpass {
			cq.pass = p.vpass
		}
	}
	// Wake only the parked workers the job can use beside its caller. A
	// worker busy elsewhere re-scans before it parks, so it needs no
	// wake-up.
	for i := j.parts; i < maxWorkers; i++ {
		p.work.Signal()
	}
	p.mu.Unlock()
	return &Future{j}, nil
}

// callerSlotLocked lends a caller slot ID, the most recently returned
// one first.
func (p *Pool) callerSlotLocked() int {
	if n := len(p.callerFree); n > 0 {
		id := p.callerFree[n-1]
		p.callerFree = p.callerFree[:n-1]
		return id
	}
	p.callerNext++
	return p.workers + p.callerNext - 1
}

// countRejected tallies an admission refusal that happened before the
// class queue was resolved under the lock.
func (p *Pool) countRejected(qos QoS) {
	p.mu.Lock()
	p.classLocked(qos.className()).rejected++
	p.mu.Unlock()
}

// Close rejects further submissions, drains every job already accepted,
// stops the workers and returns once they exit and every RunQoS caller
// has finished its job. It is idempotent; Submit calls blocked on
// backpressure fail with ErrClosed.
func (p *Pool) Close() error {
	p.beginClose()
	p.drain()
	return nil
}

// CloseWithTimeout is Close with a bounded drain: it rejects further
// submissions, lets accepted jobs drain for at most d, and — instead of
// hanging on a stuck task — returns an ErrDrainTimeout-matching error
// reporting how many jobs are still in flight. The workers keep
// draining in the background; a later Close (or CloseWithTimeout) waits
// again. It is safe to call repeatedly and after Close.
func (p *Pool) CloseWithTimeout(d time.Duration) error {
	p.beginClose()
	done := make(chan struct{})
	go func() { p.drain(); close(done) }()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-timer.C:
		p.mu.Lock()
		n := p.inflight
		p.mu.Unlock()
		return fmt.Errorf("%w after %v: %d job(s) still in flight", ErrDrainTimeout, d, n)
	}
}

// drain waits for the workers to exit, then for the jobs RunQoS callers
// still run on their own goroutines: a job capped at its caller has no
// worker to wait for.
func (p *Pool) drain() {
	p.wg.Wait()
	p.mu.Lock()
	for p.inflight > 0 {
		p.room.Wait()
	}
	p.mu.Unlock()
}

// beginClose marks the pool closed and wakes every parked worker and
// blocked submitter. Idempotent.
func (p *Pool) beginClose() {
	p.mu.Lock()
	p.closed = true
	p.work.Broadcast()
	p.room.Broadcast()
	p.mu.Unlock()
}

// Stats returns a snapshot of the pool's counters.
//
// PerWorker and CallerTasks are relaxed reads: each is an atomic slot
// bumped when a task completes (countTask), read without stopping the
// tasks in flight, so a snapshot taken mid-job lags by the tasks still
// running. The counters are exact whenever the pool is quiescent.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Stats{
		Workers:        p.workers,
		JobsSubmitted:  p.submitted,
		JobsCompleted:  p.completed,
		TasksStolen:    p.stolen,
		QueueHighWater: p.highWater,
		TasksPanicked:  atomic.LoadInt64(&p.panicked),
		JobsCancelled:  p.cancelled,
		Classes:        p.classStatsLocked(),
		PerWorker:      make([]WorkerStats, len(p.perWorker)),
		CallerTasks:    p.callerTasks.Load(),
	}
	for i := range p.perWorker {
		s.PerWorker[i] = WorkerStats{TasksRun: p.perWorker[i].Load()}
	}
	return s
}

// startLocked spawns the workers on first use.
func (p *Pool) startLocked() {
	if p.started {
		return
	}
	p.started = true
	p.wg.Add(p.workers)
	for id := 0; id < p.workers; id++ {
		go p.worker(id)
	}
}

// worker is the scheduling loop of one pool goroutine: claim tasks from
// the job weighted claiming selects, fall through to the next when a
// frontier is exhausted, park when nothing is claimable, exit when the
// pool is closed and drained.
func (p *Pool) worker(id int) {
	defer p.wg.Done()
	w := &Worker{id: id, pool: p}
	p.mu.Lock()
	for {
		j := p.claimableLocked()
		if j == nil {
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.work.Wait()
			continue
		}
		j.parts++
		primary := j.parts == 1
		p.mu.Unlock()
		j.work(w, primary)
		p.mu.Lock()
		j.unlistLocked()
	}
}

// claimableLocked is the join-decision arbiter: across every class with
// a joinable job it picks the class with the lowest stride pass — ties
// broken by the lowest head-job ID, so identical queue states always
// produce identical decisions — charges that class one stride of
// credit, and returns the class's first joinable job (FIFO within the
// class). A lone active class is chosen unconditionally, which is
// exactly the pre-QoS FIFO scan; weights only matter when classes
// compete. Starvation-freedom: a class passed over keeps its pass while
// the chosen class's pass advances, so any positive weight's pass
// eventually becomes the minimum and the class is served.
func (p *Pool) claimableLocked() *job {
	var best *classQueue
	var bestJob *job
	for _, cq := range p.classList {
		j := cq.joinableLocked()
		if j == nil {
			continue
		}
		if best == nil || cq.pass < best.pass || (cq.pass == best.pass && j.id < bestJob.id) {
			best, bestJob = cq, j
		}
	}
	if bestJob == nil {
		return nil
	}
	p.vpass = best.pass
	best.pass += best.stride()
	p.claimSeq++
	if !bestJob.joined {
		bestJob.joined = true
		best.waitJobs++
		best.waitClaims += p.claimSeq - 1 - bestJob.acceptSeq
	}
	return bestJob
}

// work claims and runs tasks until the job's frontier is exhausted;
// the participant then unlists the job. After a task fails — an error
// return, a contained panic, or the job's context firing — later
// claims are skipped (but still counted), so the job always completes
// and its future always fires.
func (j *job) work(w *Worker, primary bool) {
	for {
		i := atomic.AddInt64(&j.next, 1) - 1
		if i >= int64(j.n) {
			return
		}
		if atomic.LoadInt32(&j.failed) == 0 {
			if err := j.ctx.Err(); err != nil {
				j.fail(err, true)
			} else {
				err := j.runTask(w, int(i))
				j.pool.countTask(w)
				if err != nil {
					j.fail(err, false)
				}
			}
		}
		if !primary {
			atomic.AddInt64(&j.stolen, 1)
		}
		j.arrive()
	}
}

// countTask tallies one executed task: a pool worker in its own slot, a
// RunQoS caller in CallerTasks, so PerWorker stays one entry per pool
// worker. Skipped claims ran no work and are not counted.
func (p *Pool) countTask(w *Worker) {
	if w.id >= p.workers {
		p.callerTasks.Add(1)
		return
	}
	p.perWorker[w.id].Add(1)
}

// arrive counts one completed task, or a caller's exit, and finishes
// the job on the last.
func (j *job) arrive() {
	if atomic.AddInt64(&j.done, 1) == j.end {
		j.finish()
	}
}

// runTask executes one task, converting a panic into a *PanicError so a
// panicking task fails its job — future fires, in-flight slot freed —
// without killing the pool worker.
func (j *job) runTask(w *Worker, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			atomic.AddInt64(&j.pool.panicked, 1)
			err = &PanicError{Task: i, Value: r, Stack: debug.Stack()}
		}
	}()
	if h := loadFaultHook(); h != nil {
		if err := h(i); err != nil {
			return err
		}
	}
	return j.run(w, i)
}

// fail records the job's first error and flips the skip fast-path so
// remaining claims drain without running work.
func (j *job) fail(err error, cancelled bool) {
	j.mu.Lock()
	first := j.err == nil
	if first {
		j.err = err
	}
	j.mu.Unlock()
	atomic.StoreInt32(&j.failed, 1)
	if first && cancelled {
		p := j.pool
		p.mu.Lock()
		p.cancelled++
		p.mu.Unlock()
	}
}

// unlistLocked removes an exhausted claim frontier from its class queue
// (idempotent — several participants observe exhaustion).
func (j *job) unlistLocked() {
	if j.listed {
		j.listed = false
		q := j.cq.jobs
		for i, other := range q {
			if other == j {
				j.cq.jobs = append(q[:i], q[i+1:]...)
				break
			}
		}
	}
}

// leave ends a RunQoS caller's part in its job: the exhausted job is
// unlisted and the caller's slot returned, before the caller's own
// arrival lets the job complete.
func (j *job) leave(w *Worker) {
	p := j.pool
	p.mu.Lock()
	j.unlistLocked()
	p.callerFree = append(p.callerFree, w.id)
	p.mu.Unlock()
}

// finish completes the job: fold its counters into the pool and its
// class, free an in-flight slot (waking blocked Submit calls, never
// workers), release a QoS-deadline context, and fire the future. It
// broadcasts rather than signals: with no submitter blocked that costs
// nothing, and a signal could land on a submitter whose context has
// just fired, which would leave without taking the slot.
func (j *job) finish() {
	p := j.pool
	p.mu.Lock()
	p.inflight--
	if !j.helper {
		j.cq.inflight--
	}
	p.completed++
	j.cq.completed++
	p.stolen += atomic.LoadInt64(&j.stolen)
	p.room.Broadcast()
	p.mu.Unlock()
	if j.cancel != nil {
		j.cancel()
	}
	close(j.fin)
}
