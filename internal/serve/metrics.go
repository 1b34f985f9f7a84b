package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"
)

// This file is the observability surface of the front door: /metrics
// renders the engine's PlanCacheStats — cache traffic, scheduler
// totals, per-class QoS counters, per-worker task counts — in Prometheus
// text exposition format, and /debug/vars dumps the same snapshot as
// JSON for humans and tests.

// handleMetrics is GET /metrics: Prometheus text format, version 0.0.4.
// Class-scoped series carry a class="..." label, worker-scoped series a
// worker="N" label; everything cumulative is a counter, everything
// point-in-time a gauge.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.eng.PlanCacheStats()
	s.count(http.StatusOK)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	counter := func(name, help string, v interface{}) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v interface{}) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}

	counter("autogemm_plan_cache_hits_total", "Plan cache hits.", st.Hits)
	counter("autogemm_plan_cache_misses_total", "Plan cache misses.", st.Misses)
	counter("autogemm_plan_cache_built_total", "Plans constructed (including registry warm-starts).", st.Built)
	gauge("autogemm_plan_cache_hit_rate", "Plan cache hit rate.", st.HitRate)

	gauge("autogemm_sched_workers", "Worker goroutines in the engine's pool.", st.SchedWorkers)
	counter("autogemm_sched_jobs_submitted_total", "Jobs accepted by the scheduler.", st.SchedJobsSubmitted)
	counter("autogemm_sched_jobs_completed_total", "Jobs whose every task finished.", st.SchedJobsCompleted)
	counter("autogemm_sched_jobs_cancelled_total", "Jobs failed by context cancellation.", st.SchedJobsCancelled)
	counter("autogemm_sched_tasks_stolen_total", "Tasks run by a worker other than the job's first claimant.", st.SchedTasksStolen)
	counter("autogemm_sched_tasks_panicked_total", "Tasks whose panic was contained into a job error.", st.SchedTasksPanicked)
	counter("autogemm_sched_caller_tasks_total", "Tasks blocking calls ran on their own goroutine (not in autogemm_worker_tasks_total).", st.SchedCallerTasks)
	gauge("autogemm_sched_queue_high_water", "Most jobs ever in flight at once.", st.SchedQueueHighWater)

	counter("autogemm_tiered_heuristic_served_total", "Serves answered by a tier-0 heuristic plan.", st.HeuristicServed)
	counter("autogemm_tiered_upgrades_completed_total", "Background plan upgrades hot-swapped into the cache.", st.UpgradesCompleted)
	counter("autogemm_tiered_upgrades_failed_total", "Background plan upgrades that failed.", st.UpgradesFailed)

	// Per-class QoS counters. One TYPE header per family, then one
	// labelled sample per class.
	classFamily := func(name, kind, help string, val func(i int) interface{}) {
		if len(st.SchedClasses) == 0 {
			return
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		for i, cs := range st.SchedClasses {
			fmt.Fprintf(w, "%s{class=%q} %v\n", name, cs.Class, val(i))
		}
	}
	classFamily("autogemm_class_weight", "gauge", "Class claiming weight.",
		func(i int) interface{} { return st.SchedClasses[i].Weight })
	classFamily("autogemm_class_depth", "gauge", "Class admission depth bound (0 = unbounded).",
		func(i int) interface{} { return st.SchedClasses[i].Depth })
	classFamily("autogemm_class_inflight", "gauge", "Class jobs accepted and not yet completed.",
		func(i int) interface{} { return st.SchedClasses[i].InFlight })
	classFamily("autogemm_class_submitted_total", "counter", "Jobs accepted into the class.",
		func(i int) interface{} { return st.SchedClasses[i].Submitted })
	classFamily("autogemm_class_completed_total", "counter", "Class jobs whose every task finished.",
		func(i int) interface{} { return st.SchedClasses[i].Completed })
	classFamily("autogemm_class_rejected_total", "counter", "Class submissions refused at admission.",
		func(i int) interface{} { return st.SchedClasses[i].Rejected })
	classFamily("autogemm_class_queue_wait_claims_total", "counter", "Claim decisions class jobs waited before first claim.",
		func(i int) interface{} { return st.SchedClasses[i].QueueWaitClaims })

	// Per-worker task counts, one labelled sample per pool worker.
	if len(st.SchedPerWorker) > 0 {
		fmt.Fprintf(w, "# HELP autogemm_worker_tasks_total Tasks executed by the worker.\n# TYPE autogemm_worker_tasks_total counter\n")
		for i, pw := range st.SchedPerWorker {
			fmt.Fprintf(w, "autogemm_worker_tasks_total{worker=\"%d\"} %d\n", i, pw.TasksRun)
		}
	}

	// HTTP responses by status code, from the server's own tally.
	s.mu.Lock()
	codes := make([]int, 0, len(s.responses))
	for code := range s.responses {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	fmt.Fprintf(w, "# HELP autogemm_http_responses_total HTTP responses by status code.\n# TYPE autogemm_http_responses_total counter\n")
	for _, code := range codes {
		fmt.Fprintf(w, "autogemm_http_responses_total{code=\"%d\"} %d\n", code, s.responses[code])
	}
	s.mu.Unlock()

	gauge("autogemm_uptime_seconds", "Seconds since the server was constructed.", time.Since(s.start).Seconds())
}

// handleVars is GET /debug/vars: the full stats snapshot plus the
// tenant topology, as one JSON document.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	s.count(http.StatusOK)
	s.mu.Lock()
	responses := make(map[string]int64, len(s.responses))
	for code, n := range s.responses {
		responses[fmt.Sprintf("%d", code)] = n
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]interface{}{
		"planCache":     s.eng.PlanCacheStats(),
		"tenants":       s.cfg.Tenants,
		"httpResponses": responses,
		"uptimeSec":     time.Since(s.start).Seconds(),
	})
}
