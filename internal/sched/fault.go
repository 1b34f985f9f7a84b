package sched

import "sync/atomic"

// Fault injection: a process-wide, test-only hook consulted immediately
// before every task executes, used to exercise the runtime's failure
// paths — task errors, contained panics, cancellation — deterministically
// (the sched and root failure tests drive it, including under -race).
// It is not part of the serving API; production code never installs a
// hook and pays one atomic load per task.

// faultFunc is consulted with the task index before the task's run
// function. A non-nil return fails the task as if run returned it; a
// hook that panics exercises the panic-containment path; a hook that
// cancels a context exercises the cancellation path mid-job.
type faultFunc func(task int) error

var faultHook atomic.Value // of faultFunc

// SetFaultHook installs h as the process-wide fault injector (nil
// removes it). Test-only: the hook applies to every pool in the
// process, including the shared one.
func SetFaultHook(h func(task int) error) { faultHook.Store(faultFunc(h)) }

// loadFaultHook returns the installed injector, or nil.
func loadFaultHook() faultFunc {
	if v := faultHook.Load(); v != nil {
		return v.(faultFunc)
	}
	return nil
}
