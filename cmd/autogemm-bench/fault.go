package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"

	"autogemm"
	"autogemm/internal/sched"
)

// The AUTOGEMM_FAULT knob runs a deterministic failure drill against
// the real engine before any -json measurement: it injects the
// requested fault classes through the scheduler's test hook
// (sched.SetFaultHook) and through context cancellation, and verifies
// the documented failure semantics — the fault surfaces as the right
// error, the engine keeps serving afterwards, and no worker is lost.
//
//	AUTOGEMM_FAULT=panic,error,cancel,upgrade autogemm-bench -json -tag smoke ...
//
// Accepted classes: "panic", "error", "cancel", "upgrade", or "all".
// The "upgrade" class runs against a fresh PlanModeTiered engine and
// kills the background plan upgrade instead of an execution task. CI
// runs the drill in the bench-smoke job; the same paths are covered
// under -race by the sched and root failure tests.

// faultDrill executes each requested fault class on a fresh engine and
// returns an error when a failure path misbehaves.
func faultDrill(spec, chipName string) error {
	modes := strings.Split(spec, ",")
	if spec == "all" {
		modes = []string{"panic", "error", "cancel", "upgrade"}
	}
	eng, err := autogemm.New(chipName, autogemm.WithWorkers(2))
	if err != nil {
		return err
	}
	defer eng.Close()
	defer sched.SetFaultHook(nil)

	const m, n, k = 48, 48, 48
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	fill(a, 7)
	fill(b, 9)
	// Small explicit blocks so one job has several C-tile groups — the
	// cancel drill needs claims left to skip after the fault lands.
	opts := &autogemm.Options{MC: 16, NC: 16, KC: 16}
	mul := func(ctx context.Context) error {
		return eng.MultiplyContext(ctx, autogemm.GEMM{C: make([]float32, m*n), A: a, B: b, M: m, N: n, K: k, Opts: opts})
	}

	for _, mode := range modes {
		var err error
		switch strings.TrimSpace(mode) {
		case "panic":
			var fired int32
			sched.SetFaultHook(func(task int) error {
				if atomic.CompareAndSwapInt32(&fired, 0, 1) {
					panic("AUTOGEMM_FAULT drill")
				}
				return nil
			})
			if err = mul(context.Background()); !errors.Is(err, autogemm.ErrPanicked) {
				return fmt.Errorf("fault drill panic: err = %v, want ErrPanicked", err)
			}
		case "error":
			var fired int32
			boom := errors.New("AUTOGEMM_FAULT drill error")
			sched.SetFaultHook(func(task int) error {
				if atomic.CompareAndSwapInt32(&fired, 0, 1) {
					return boom
				}
				return nil
			})
			if err = mul(context.Background()); !errors.Is(err, boom) {
				return fmt.Errorf("fault drill error: err = %v, want injected error", err)
			}
		case "cancel":
			// Cancel mid-job, from inside the job's first task: the
			// remaining C-tile groups must be skipped and the call must
			// report the cancellation, not a result.
			ctx, cancel := context.WithCancel(context.Background())
			var fired int32
			sched.SetFaultHook(func(task int) error {
				if atomic.CompareAndSwapInt32(&fired, 0, 1) {
					cancel()
				}
				return nil
			})
			if err = mul(ctx); !errors.Is(err, context.Canceled) {
				cancel()
				return fmt.Errorf("fault drill cancel: err = %v, want context.Canceled", err)
			}
			cancel()
		case "upgrade":
			// Runs on its own tiered engine; prints its own ok line.
			if err := upgradeDrill(chipName); err != nil {
				return err
			}
			sched.SetFaultHook(nil)
			continue
		default:
			return fmt.Errorf("unknown AUTOGEMM_FAULT class %q (panic, error, cancel, all)", mode)
		}
		sched.SetFaultHook(nil)
		// The engine must keep serving at full strength after the fault.
		if err := mul(context.Background()); err != nil {
			return fmt.Errorf("fault drill %s: engine unhealthy afterwards: %v", mode, err)
		}
		fmt.Fprintf(os.Stderr, "fault drill %-6s ok (fault surfaced: %v)\n", mode, err)
	}
	st := eng.PlanCacheStats()
	fmt.Fprintf(os.Stderr, "fault drill counters: panicked=%d cancelled=%d completed=%d/%d\n",
		st.SchedTasksPanicked, st.SchedJobsCancelled, st.SchedJobsCompleted, st.SchedJobsSubmitted)
	return nil
}

// upgradeDrill verifies the tiered planner's failure containment: a
// background DMT upgrade killed by an injected fault must leave the
// tier-0 heuristic plan serving (bit-correct results, no eviction, no
// cache poisoning), count exactly one failed upgrade, and the next
// serve of the shape must retry the upgrade and land the full plan.
func upgradeDrill(chipName string) error {
	eng, err := autogemm.New(chipName,
		autogemm.WithPlanMode(autogemm.PlanModeTiered), autogemm.WithWorkers(2))
	if err != nil {
		return err
	}
	defer eng.Close()
	defer sched.SetFaultHook(nil)

	const m, n, k = 64, 72, 48
	var fired int32
	sched.SetFaultHook(func(task int) error {
		if atomic.CompareAndSwapInt32(&fired, 0, 1) {
			return errors.New("AUTOGEMM_FAULT upgrade drill")
		}
		return nil
	})
	// PlanFor (not Multiply) keeps the upgrade job the only scheduler
	// work, so the one-shot fault lands on it deterministically.
	p, err := eng.PlanFor(nil, m, n, k)
	if err != nil {
		return fmt.Errorf("fault drill upgrade: cold plan: %v", err)
	}
	if p.Source() != "heuristic" {
		return fmt.Errorf("fault drill upgrade: cold source %q, want heuristic", p.Source())
	}
	if err := eng.FlushUpgrades(context.Background()); err != nil {
		return err
	}
	st := eng.PlanCacheStats()
	if st.UpgradesFailed != 1 || st.UpgradesCompleted != 0 {
		return fmt.Errorf("fault drill upgrade: failed=%d completed=%d after injected fault, want 1/0",
			st.UpgradesFailed, st.UpgradesCompleted)
	}
	sched.SetFaultHook(nil)

	// The surviving heuristic plan must keep serving, bit-identical to
	// a default (full-planning) engine.
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	fill(a, 11)
	fill(b, 13)
	got := make([]float32, m*n)
	if err := eng.Multiply(got, a, b, m, n, k); err != nil {
		return fmt.Errorf("fault drill upgrade: serve after failed upgrade: %v", err)
	}
	full, err := autogemm.New(chipName)
	if err != nil {
		return err
	}
	defer full.Close()
	want := make([]float32, m*n)
	if err := full.Multiply(want, a, b, m, n, k); err != nil {
		return err
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("fault drill upgrade: result diverges at element %d after failed upgrade", i)
		}
	}

	// That serve retried the upgrade with the hook cleared; once it
	// settles the full plan must be in the cache.
	if err := eng.FlushUpgrades(context.Background()); err != nil {
		return err
	}
	if p, err = eng.PlanFor(nil, m, n, k); err != nil {
		return err
	}
	if p.Source() == "heuristic" {
		return fmt.Errorf("fault drill upgrade: retried upgrade never landed")
	}
	if st = eng.PlanCacheStats(); st.UpgradesCompleted != 1 {
		return fmt.Errorf("fault drill upgrade: completed=%d after retry, want 1", st.UpgradesCompleted)
	}
	fmt.Fprintf(os.Stderr, "fault drill upgrade ok (failure contained, heuristic kept serving, retry landed)\n")
	return nil
}
