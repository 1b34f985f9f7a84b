package autogemm

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"autogemm/internal/core"
	"autogemm/internal/hw"
	"autogemm/internal/refgemm"
	"autogemm/internal/sched"
)

// The helper-job contract of a cold call: a plan-cache miss fills the
// DMT memo rows as a caller-joined job, and a blocking run's first
// execution compiles its kernels as another (docs/INTERNALS.md,
// "Runtime & scheduling"). These tests pin that the helpers never wait,
// never change a plan or a result, run in the call's class, fail the
// call with their own fault, and cannot deadlock.

// coldShape splits into two DMT row chunks on a 2-worker pool and runs
// several kernels, so both helper jobs are submitted on a fresh engine.
var coldShape = [3]int{130, 70, 96}

// coldOperands returns seeded operands for shape s and the refgemm
// product, which the engine matches bit for bit.
func coldOperands(s [3]int, seed uint64) (a, b, want []float32) {
	m, n, k := s[0], s[1], s[2]
	a, b, want = make([]float32, m*k), make([]float32, k*n), make([]float32, m*n)
	refgemm.Fill(a, m, k, k, seed)
	refgemm.Fill(b, k, n, n, seed+1)
	refgemm.GEMM(m, n, k, a, k, b, n, want, n)
	return a, b, want
}

// parkFirstTask holds the first task to start after it is called in the
// scheduler's fault hook until release (at the latest when the test
// ends); parked is closed once that task is held.
func parkFirstTask(t *testing.T) (parked <-chan struct{}, release func()) {
	t.Helper()
	gate, held := make(chan struct{}), make(chan struct{})
	var once atomic.Bool
	sched.SetFaultHook(func(int) error {
		if once.CompareAndSwap(false, true) {
			close(held)
			<-gate
		}
		return nil
	})
	var released atomic.Bool
	release = func() {
		if released.CompareAndSwap(false, true) {
			close(gate)
		}
	}
	t.Cleanup(func() {
		release()
		sched.SetFaultHook(nil)
	})
	return held, release
}

// within fails the test if done does not deliver within a minute.
func within(t *testing.T, what string, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(time.Minute):
		t.Fatalf("%s did not finish: it waited for the parked job", what)
	}
}

// samePlanAsProduce fails unless p's recipe encodes exactly as
// core.Produce's for the same request.
func samePlanAsProduce(t *testing.T, p *Plan) {
	t.Helper()
	m, n, k := p.Shape()
	chip, err := hw.ByName(p.p.Chip.Name)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := core.Produce(chip, m, n, k, core.AutoOptions(chip))
	if err != nil {
		t.Fatal(err)
	}
	want, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%dx%dx%d: plan differs from core.Produce's\n got: %s\nwant: %s", m, n, k, got, want)
	}
}

// TestColdCallHelpersNeverWait: with the engine's one queue slot held
// by a parked job, a cold PlanFor plans on its caller alone and a cold
// Multiply finishes planning without waiting for the park — only its
// execution job queues for the slot, as every job does. Plans match
// core.Produce's and results refgemm's.
func TestColdCallHelpersNeverWait(t *testing.T) {
	e, err := New("KP920", WithWorkers(2), WithQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const wm, wn, wk = 24, 24, 24
	if _, err := e.PlanFor(nil, wm, wn, wk); err != nil {
		t.Fatal(err)
	}
	parked, release := parkFirstTask(t)
	blocker, err := e.Submit(context.Background(), GEMM{M: wm, N: wn, K: wk,
		A: make([]float32, wm*wk), B: make([]float32, wk*wn), C: make([]float32, wm*wn)})
	if err != nil {
		t.Fatal(err)
	}
	<-parked

	var planned *Plan
	done := make(chan error, 1)
	go func() {
		var err error
		planned, err = e.PlanFor(nil, coldShape[0], coldShape[1], coldShape[2])
		done <- err
	}()
	within(t, "cold PlanFor beside the parked job", done)
	samePlanAsProduce(t, planned)

	s := [3]int{300, 100, 130} // several blocks: several searches in one fill
	a, b, want := coldOperands(s, 3)
	c := make([]float32, s[0]*s[1])
	built := e.PlanCacheStats().Built
	multiplied := make(chan error, 1)
	go func() { multiplied <- e.Multiply(c, a, b, s[0], s[1], s[2]) }()
	for e.PlanCacheStats().Built == built {
		select {
		case err := <-multiplied:
			t.Fatalf("cold Multiply returned %v before it planned", err)
		case <-time.After(time.Millisecond):
		}
	}
	// A cache hit waits for the cold call's planning, which must finish
	// while the park still holds the only queue slot.
	go func() {
		p, err := e.PlanFor(nil, s[0], s[1], s[2])
		if err == nil {
			planned = p
		}
		done <- err
	}()
	within(t, "cold Multiply's planning beside the parked job", done)
	samePlanAsProduce(t, planned)
	release()
	within(t, "cold Multiply after the release", multiplied)
	diffBits(t, "cold Multiply", c, want)
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}

}

// TestColdCallHelpersOutsideClassBound: a cold call's helper jobs stand
// outside its class's admission bound (sched.Pool.TryRunQoS). On a
// 2-worker engine whose depth-1 class is held by a parked job, a cold
// PlanFor in the class plans with its helper and counts no rejection;
// a cold Multiply is shed by its execution job alone and counted once;
// so is a cold call whose deadline has already passed. With the class
// free, a warm call of the class is not shed while a cold call of the
// class is planning.
func TestColdCallHelpersOutsideClassBound(t *testing.T) {
	e, err := New("KP920", WithWorkers(2), WithDefaultClass("tight"), WithClass("tight", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	// A cleanup, not a defer: on a failure the park is released first.
	t.Cleanup(func() { e.Close() })
	rejected := func() int64 {
		cs, _ := e.ClassStats("tight")
		return cs.Rejected
	}
	warm := [3]int{24, 24, 24}
	wa, wb, wwant := coldOperands(warm, 31)
	multiplyWarm := func() []float32 {
		c := make([]float32, warm[0]*warm[1])
		done := make(chan error, 1)
		go func() { done <- e.Multiply(c, wa, wb, warm[0], warm[1], warm[2]) }()
		within(t, "warm Multiply of the class", done)
		return c
	}
	diffBits(t, "warm-up Multiply", multiplyWarm(), wwant)

	parked, release := parkFirstTask(t)
	blocker, err := e.Submit(context.Background(), GEMM{M: warm[0], N: warm[1], K: warm[2],
		A: wa, B: wb, C: make([]float32, warm[0]*warm[1])})
	if err != nil {
		t.Fatal(err)
	}
	<-parked
	var planned *Plan
	done := make(chan error, 1)
	go func() {
		var err error
		planned, err = e.PlanFor(nil, coldShape[0], coldShape[1], coldShape[2])
		done <- err
	}()
	within(t, "cold PlanFor beside a full class", done)
	samePlanAsProduce(t, planned)
	if n := rejected(); n != 0 {
		t.Fatalf("class tight counted %d rejections for a cold PlanFor, want 0", n)
	}

	s := [3]int{300, 100, 130}
	a, b, _ := coldOperands(s, 33)
	if err := e.Multiply(make([]float32, s[0]*s[1]), a, b, s[0], s[1], s[2]); !errors.Is(err, ErrAdmission) {
		t.Fatalf("cold Multiply into a full class = %v, want ErrAdmission", err)
	}
	if n := rejected(); n != 1 {
		t.Fatalf("class tight counted %d rejections for one shed cold Multiply, want 1", n)
	}
	ds := [3]int{140, 90, 60}
	a, b, _ = coldOperands(ds, 35)
	if err := e.MultiplyContext(context.Background(), GEMM{C: make([]float32, ds[0]*ds[1]), A: a, B: b,
		M: ds[0], N: ds[1], K: ds[2], QoS: QoS{Deadline: time.Now().Add(-time.Second)}}); !errors.Is(err, ErrAdmission) {
		t.Fatalf("cold Multiply past its deadline = %v, want ErrAdmission", err)
	}
	if n := rejected(); n != 2 {
		t.Fatalf("class tight counted %d rejections after one more shed cold call, want 2", n)
	}
	release()
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}

	// Park the first task of a cold call: its planning fill's.
	cs := [3]int{520, 300, 200}
	a, b, want := coldOperands(cs, 37)
	before, _ := e.ClassStats("tight")
	parked, release = parkFirstTask(t)
	c := make([]float32, cs[0]*cs[1])
	cold := make(chan error, 1)
	go func() { cold <- e.Multiply(c, a, b, cs[0], cs[1], cs[2]) }()
	<-parked
	// The parked job is the call's first, its fill, and holds no slot.
	if now, _ := e.ClassStats("tight"); now.Submitted-before.Submitted != 1 || now.InFlight != 0 {
		t.Fatalf("cold call parked with %d jobs submitted and %d of the class's slots taken, want 1 and 0",
			now.Submitted-before.Submitted, now.InFlight)
	}
	diffBits(t, "warm Multiply beside a planning cold call", multiplyWarm(), wwant)
	release()
	within(t, "cold Multiply after the release", cold)
	diffBits(t, "cold Multiply", c, want)
	if n := rejected(); n != 2 {
		t.Fatalf("class tight counted %d rejections, want still 2", n)
	}
}

// TestColdCallClosedEnginePlans: PlanFor and Estimate on a closed
// engine plan on the caller alone, and the plan is core.Produce's.
func TestColdCallClosedEnginePlans(t *testing.T) {
	e, err := New("KP920", WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := e.PlanFor(nil, coldShape[0], coldShape[1], coldShape[2])
	if err != nil {
		t.Fatalf("PlanFor on a closed engine: %v", err)
	}
	samePlanAsProduce(t, p)
	if _, err := e.Estimate(300, 100, 130, nil); err != nil {
		t.Fatalf("Estimate on a closed engine: %v", err)
	}
	if st := e.PlanCacheStats(); st.SchedJobsSubmitted != 0 {
		t.Fatalf("a closed engine accepted %d jobs", st.SchedJobsSubmitted)
	}
}

// TestColdCallHelpersRunInCallClass: a cold call's helper jobs run in
// the call's QoS class — the engine's default class (WithDefaultClass)
// for PlanFor and untagged calls, the request's class otherwise — and
// never in DefaultClass. A warm call then submits its execution job
// alone.
func TestColdCallHelpersRunInCallClass(t *testing.T) {
	e, err := New("KP920", WithWorkers(2), WithDefaultClass("tenant"))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	submitted := func(class string) int64 {
		cs, _ := e.ClassStats(class)
		return cs.Submitted
	}
	if _, err := e.PlanFor(nil, coldShape[0], coldShape[1], coldShape[2]); err != nil {
		t.Fatal(err)
	}
	if n := submitted("tenant"); n != 1 {
		t.Fatalf("cold PlanFor submitted %d jobs to the engine's default class, want its planning helper", n)
	}

	s := [3]int{300, 100, 130}
	a, b, want := coldOperands(s, 5)
	for call, wantJobs := range []int64{3, 1} { // cold: fill, kernel builds, execution; warm: execution
		c := make([]float32, s[0]*s[1])
		before := submitted("other")
		if err := e.MultiplyContext(context.Background(), GEMM{C: c, A: a, B: b, M: s[0], N: s[1], K: s[2],
			QoS: QoS{Class: "other"}}); err != nil {
			t.Fatal(err)
		}
		diffBits(t, "tagged Multiply", c, want)
		if n := submitted("other") - before; n != wantJobs {
			t.Fatalf("call %d submitted %d jobs to its class, want %d", call, n, wantJobs)
		}
	}

	// Async submission plans in the request's class too.
	as := [3]int{140, 90, 60}
	a, b, want = coldOperands(as, 7)
	g := GEMM{C: make([]float32, as[0]*as[1]), A: a, B: b, M: as[0], N: as[1], K: as[2], QoS: QoS{Class: "async"}}
	f, err := e.Submit(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	diffBits(t, "async Submit", g.C, want)
	if n := submitted("async"); n != 2 {
		t.Fatalf("cold Submit submitted %d jobs to its class, want its planning helper and its job", n)
	}
	if n := submitted(DefaultClass); n != 0 {
		t.Fatalf("DefaultClass saw %d jobs despite WithDefaultClass and tagged calls", n)
	}
}

// TestColdCallHelperFaultFailsCall: a fault injected into a helper
// task fails the call with the fault's error. A failed planning fill
// leaves nothing in the plan cache, a failed kernel build leaves the
// plan unexecuted, and the next call plans (or builds) again and
// matches refgemm bit for bit.
func TestColdCallHelperFaultFailsCall(t *testing.T) {
	e, err := New("KP920", WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	errInjected := errors.New("injected helper fault")
	inject := func() {
		var fired atomic.Bool
		sched.SetFaultHook(func(int) error {
			if fired.CompareAndSwap(false, true) {
				return errInjected
			}
			return nil
		})
	}
	defer sched.SetFaultHook(nil)
	m, n, k := coldShape[0], coldShape[1], coldShape[2]
	a, b, want := coldOperands(coldShape, 9)

	// The first task of a cold call is its planning fill's.
	inject()
	if err := e.Multiply(make([]float32, m*n), a, b, m, n, k); !errors.Is(err, errInjected) {
		t.Fatalf("cold Multiply with a faulted fill = %v, want the injected fault", err)
	}
	if got := e.CachedPlans(); got != 0 {
		t.Fatalf("plan cache holds %d plans after a failed build, want 0", got)
	}
	sched.SetFaultHook(nil)
	c := make([]float32, m*n)
	if err := e.Multiply(c, a, b, m, n, k); err != nil {
		t.Fatalf("Multiply after the failed build: %v", err)
	}
	diffBits(t, "after a faulted fill", c, want)

	// Planned but never executed: the first task is a kernel build's.
	s := [3]int{300, 100, 130}
	a, b, want = coldOperands(s, 11)
	p, err := e.PlanFor(nil, s[0], s[1], s[2])
	if err != nil {
		t.Fatal(err)
	}
	inject()
	if err := e.Multiply(make([]float32, s[0]*s[1]), a, b, s[0], s[1], s[2]); !errors.Is(err, errInjected) {
		t.Fatalf("first Multiply with a faulted kernel build = %v, want the injected fault", err)
	}
	if st := p.p.Stats(); st.JobsSubmitted != 0 {
		t.Fatalf("the plan ran %d execution jobs; the fault belongs to its kernel build", st.JobsSubmitted)
	}
	sched.SetFaultHook(nil)
	c = make([]float32, s[0]*s[1])
	if err := e.Multiply(c, a, b, s[0], s[1], s[2]); err != nil {
		t.Fatalf("Multiply after the failed kernel build: %v", err)
	}
	diffBits(t, "after a faulted kernel build", c, want)
}

// TestColdCallBatchNoDeadlock: a MultiplyBatch of cold shapes on a
// one-slot queue finishes on one and on two workers — a helper never
// queues behind the batch's own jobs — and every element matches
// refgemm bit for bit.
func TestColdCallBatchNoDeadlock(t *testing.T) {
	shapes := [][3]int{coldShape, {300, 100, 130}, {64, 300, 64}, {33, 17, 9}, {140, 90, 60}}
	for _, workers := range []int{1, 2} {
		e, err := New("KP920", WithWorkers(workers), WithQueueDepth(1))
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]GEMM, len(shapes))
		wants := make([][]float32, len(shapes))
		for i, s := range shapes {
			a, b, want := coldOperands(s, uint64(20+2*i))
			batch[i] = GEMM{C: make([]float32, s[0]*s[1]), A: a, B: b, M: s[0], N: s[1], K: s[2]}
			wants[i] = want
		}
		done := make(chan error, 1)
		go func() { done <- e.MultiplyBatch(batch) }()
		within(t, "cold MultiplyBatch on a one-slot queue", done)
		for i := range batch {
			diffBits(t, "batch element", batch[i].C, wants[i])
		}
		e.Close()
	}
}
