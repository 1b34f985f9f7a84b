package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"autogemm/internal/core"
	"autogemm/internal/hw"
	"autogemm/internal/sched"
	"autogemm/internal/vtime"
	"autogemm/internal/workload"
)

// The -sim-qos mode measures scheduling *policy* — FIFO vs weighted
// multi-class claiming — in simulated cycles on a mixed ResNet-50
// workload: a few large-FLOP shapes submitted first as a low-weight
// "batch" class, then a burst of small shapes as a high-weight
// "latency" class. The real runtime executes the whole mix once (real
// pool, real per-class queues, Recorder capturing every job's task
// costs and scheduling identity), outputs are verified bit-identical
// to serial, and the recorded schedule is replayed twice through
// vtime.SimulateBatch — once under each policy — to produce per-class
// queue-wait distributions and makespans. FIFO shows the starvation
// pathology (small shapes wait behind every batch frontier); weighted
// claiming bounds it without giving up makespan, which is the
// weighted-beats-FIFO assert -assert-qos gates in make bench-smoke.

// Mixed-workload composition: the top batchShapes shapes by FLOPs are
// the batch tenant (batchCopies jobs each, submitted first, so FIFO
// serves them first), the bottom latencyShapes are the latency tenant.
const (
	batchShapes   = 2
	batchCopies   = 2
	latencyShapes = 4
	latencyCopies = 3

	latencyClass  = "latency"
	batchClass    = "batch"
	latencyWeight = 16
	batchWeight   = 1
)

// simQoSClassDist is one class's simulated queue-wait distribution
// under one policy, in virtual cycles.
type simQoSClassDist struct {
	Class      string  `json:"class"`
	Jobs       int     `json:"jobs"`
	P50Wait    float64 `json:"p50WaitCycles"`
	P99Wait    float64 `json:"p99WaitCycles"`
	MaxWait    float64 `json:"maxWaitCycles"`
	MeanFinish float64 `json:"meanFinishCycles"`
}

// simQoSPolicy is one policy's replay outcome.
type simQoSPolicy struct {
	Policy   string            `json:"policy"`
	Makespan float64           `json:"makespanCycles"`
	Classes  []simQoSClassDist `json:"classes"`
}

// simQoSReport is the -sim-qos result: both policies on the same
// recorded schedule, plus the evidence it came from a real run.
type simQoSReport struct {
	Chip          string   `json:"chip"`
	VirtWorkers   int      `json:"virtWorkers"`
	PoolWorkers   int      `json:"poolWorkers"`
	Jobs          int      `json:"jobs"`
	BatchShapes   []string `json:"batchShapes"`
	LatencyShapes []string `json:"latencyShapes"`

	// Real-pool per-class counters (queue wait in claim decisions) and
	// idle-cycle spread (Stats.IdleCycles against the busiest worker).
	PoolClasses    []sched.ClassStats `json:"poolClasses"`
	PoolIdleSpread float64            `json:"poolIdleSpreadCycles"`

	FIFO     simQoSPolicy `json:"fifo"`
	Weighted simQoSPolicy `json:"weighted"`

	// LatencyP99Speedup is FIFO's latency-class p99 queue wait divided
	// by weighted's; MakespanDeltaPct is the weighted makespan relative
	// to FIFO, percent (positive = slower).
	LatencyP99Speedup float64 `json:"latencyP99Speedup"`
	MakespanDeltaPct  float64 `json:"makespanDeltaPct"`
}

// simQoSJob pairs a submitted future with its expected output bits.
type simQoSJob struct {
	shape workload.Shape
	class string
	fut   *core.RunFuture
	c     []float32
	ref   []float32
}

// mixedWorkload splits the ResNet-50 set into batch (largest FLOPs)
// and latency (smallest) shape groups.
func mixedWorkload() (batch, latency []workload.Shape) {
	shapes := workload.ResNet50()
	sort.SliceStable(shapes, func(i, j int) bool { return shapes[i].FLOPs() > shapes[j].FLOPs() })
	batch = append(batch, shapes[:batchShapes]...)
	latency = append(latency, shapes[len(shapes)-latencyShapes:]...)
	return batch, latency
}

// runSimQoS executes the mixed workload on a real pool and replays it
// under both policies.
func runSimQoS(chip *hw.Chip, poolWorkers, virtWorkers int) (simQoSReport, error) {
	rep := simQoSReport{Chip: chip.Name, VirtWorkers: virtWorkers, PoolWorkers: poolWorkers}

	pool := sched.New(poolWorkers, 0)
	defer pool.Close()
	rec := sched.NewRecorder()
	pool.SetTimekeeper(rec)
	pool.ConfigureClass(latencyClass, sched.ClassConfig{Weight: latencyWeight})
	pool.ConfigureClass(batchClass, sched.ClassConfig{Weight: batchWeight})

	batch, latency := mixedWorkload()
	for _, s := range batch {
		rep.BatchShapes = append(rep.BatchShapes, s.Name)
	}
	for _, s := range latency {
		rep.LatencyShapes = append(rep.LatencyShapes, s.Name)
	}

	// One plan per distinct shape, with cost accounting on so every
	// task charges its precomputed simulated cost.
	plans := make(map[string]*core.Plan)
	refs := make(map[string][]float32)
	ops := make(map[string][2][]float32)
	prep := func(s workload.Shape) error {
		if _, ok := plans[s.Name]; ok {
			return nil
		}
		opts := core.AutoOptions(chip)
		opts.Runtime = pool
		p, err := core.NewPlan(chip, s.M, s.N, s.K, opts)
		if err != nil {
			return err
		}
		if err := p.EnableCostAccounting(); err != nil {
			return err
		}
		a := make([]float32, s.M*s.K+4*chip.Lanes)
		b := make([]float32, s.K*s.N+2*s.N+4*chip.Lanes)
		fill(a, 3)
		fill(b, 5)
		ref := make([]float32, s.M*s.N)
		if err := p.RunParallel(ref, a, b, 1); err != nil {
			return err
		}
		plans[s.Name] = p
		refs[s.Name] = ref
		ops[s.Name] = [2][]float32{a, b}
		return nil
	}
	for _, s := range append(append([]workload.Shape{}, batch...), latency...) {
		if err := prep(s); err != nil {
			return rep, err
		}
	}

	// Submit the batch tenant first (lower job IDs — the jobs FIFO
	// serves first), then the latency burst, all in flight together.
	var jobs []*simQoSJob
	submit := func(s workload.Shape, class string) error {
		j := &simQoSJob{shape: s, class: class, ref: refs[s.Name], c: make([]float32, s.M*s.N)}
		ab := ops[s.Name]
		fut, err := plans[s.Name].Submit(context.Background(), j.c, ab[0], ab[1], 0, sched.QoS{Class: class})
		if err != nil {
			return err
		}
		j.fut = fut
		jobs = append(jobs, j)
		return nil
	}
	for copy := 0; copy < batchCopies; copy++ {
		for _, s := range batch {
			if err := submit(s, batchClass); err != nil {
				return rep, err
			}
		}
	}
	for copy := 0; copy < latencyCopies; copy++ {
		for _, s := range latency {
			if err := submit(s, latencyClass); err != nil {
				return rep, err
			}
		}
	}
	rep.Jobs = len(jobs)

	// Barrier + the acceptance checks: every output bit-identical to
	// its serial reference (QoS never touches numerics), every job's
	// recorded costs and scheduling identity on file.
	var vjobs []vtime.Job
	for _, j := range jobs {
		if err := j.fut.Wait(); err != nil {
			return rep, fmt.Errorf("%s [%s]: %w", j.shape.Name, j.class, err)
		}
		if !float32BitsEqual(j.ref, j.c) {
			return rep, fmt.Errorf("%s [%s]: QoS-scheduled output differs from serial bits", j.shape.Name, j.class)
		}
		costs := rec.Costs(j.fut.JobID())
		if len(costs) != j.fut.Tasks() {
			return rep, fmt.Errorf("%s: recorded %d task costs, want %d", j.shape.Name, len(costs), j.fut.Tasks())
		}
		meta, ok := rec.Meta(j.fut.JobID())
		if !ok {
			return rep, fmt.Errorf("%s: job %d has no recorded scheduling identity", j.shape.Name, j.fut.JobID())
		}
		if meta.Class != j.class {
			return rep, fmt.Errorf("%s: recorded class %q, want %q", j.shape.Name, meta.Class, j.class)
		}
		// The recorded participant cap is an artifact of the recording
		// pool's size; the virtual sweep scales workers independently,
		// so only a genuine (task-count) cap carries into the replay.
		maxw := meta.MaxWorkers
		if maxw >= poolWorkers {
			maxw = 0
		}
		vjobs = append(vjobs, vtime.Job{
			ID: j.fut.JobID(), Class: meta.Class, Weight: meta.Weight, Max: maxw, Costs: costs,
		})
	}

	ps := pool.Stats()
	rep.PoolClasses = ps.Classes
	for _, idle := range ps.IdleCycles(0) {
		if idle > rep.PoolIdleSpread {
			rep.PoolIdleSpread = round3(idle)
		}
	}

	// Replay under both policies; a second weighted replay must be
	// bit-identical — the determinism the tie-break rules buy.
	fifo := vtime.SimulateBatch(chip, virtWorkers, vjobs, vtime.PolicyFIFO)
	weighted := vtime.SimulateBatch(chip, virtWorkers, vjobs, vtime.PolicyWeighted)
	again := vtime.SimulateBatch(chip, virtWorkers, vjobs, vtime.PolicyWeighted)
	if weighted.Makespan != again.Makespan || len(weighted.Jobs) != len(again.Jobs) {
		return rep, fmt.Errorf("weighted replay not deterministic: makespan %.0f vs %.0f", weighted.Makespan, again.Makespan)
	}
	for i := range weighted.Jobs {
		if weighted.Jobs[i] != again.Jobs[i] {
			return rep, fmt.Errorf("weighted replay not deterministic at job %d", weighted.Jobs[i].ID)
		}
	}

	rep.FIFO = summarizePolicy(fifo)
	rep.Weighted = summarizePolicy(weighted)
	fifoP99 := classP99(rep.FIFO, latencyClass)
	weightedP99 := classP99(rep.Weighted, latencyClass)
	if weightedP99 > 0 {
		rep.LatencyP99Speedup = round3(fifoP99 / weightedP99)
	}
	rep.MakespanDeltaPct = round3((weighted.Makespan - fifo.Makespan) / fifo.Makespan * 100)
	return rep, nil
}

// summarizePolicy folds a replay into per-class distributions.
func summarizePolicy(res vtime.BatchResult) simQoSPolicy {
	out := simQoSPolicy{Policy: res.Policy.String(), Makespan: res.Makespan}
	waits := make(map[string][]float64)
	finishes := make(map[string][]float64)
	var classes []string
	for _, jr := range res.Jobs {
		if _, ok := waits[jr.Class]; !ok {
			classes = append(classes, jr.Class)
		}
		waits[jr.Class] = append(waits[jr.Class], jr.QueueWait)
		finishes[jr.Class] = append(finishes[jr.Class], jr.Finish)
	}
	sort.Strings(classes)
	for _, cls := range classes {
		w := waits[cls]
		var meanFinish float64
		for _, f := range finishes[cls] {
			meanFinish += f
		}
		meanFinish /= float64(len(w))
		out.Classes = append(out.Classes, simQoSClassDist{
			Class:      cls,
			Jobs:       len(w),
			P50Wait:    round3(vtime.Quantile(w, 0.5)),
			P99Wait:    round3(vtime.Quantile(w, 0.99)),
			MaxWait:    round3(vtime.Quantile(w, 1)),
			MeanFinish: round3(meanFinish),
		})
	}
	return out
}

func classP99(p simQoSPolicy, class string) float64 {
	for _, c := range p.Classes {
		if c.Class == class {
			return c.P99Wait
		}
	}
	return 0
}

// assertQoS gates the weighted-beats-FIFO claim: the latency class's
// p99 queue wait must improve under weighted claiming, and the
// makespan must not degrade by more than 5%.
func assertQoS(rep simQoSReport) error {
	fifoP99 := classP99(rep.FIFO, latencyClass)
	weightedP99 := classP99(rep.Weighted, latencyClass)
	if weightedP99 >= fifoP99 {
		return fmt.Errorf("qos assert: weighted latency p99 wait %.0f not below FIFO %.0f", weightedP99, fifoP99)
	}
	if rep.MakespanDeltaPct > 5 {
		return fmt.Errorf("qos assert: weighted makespan %.1f%% worse than FIFO (limit 5%%)", rep.MakespanDeltaPct)
	}
	fmt.Fprintf(os.Stderr, "qos assert ok: latency p99 wait %.0f -> %.0f cycles (%.1fx), makespan %+.2f%%\n",
		fifoP99, weightedP99, rep.LatencyP99Speedup, rep.MakespanDeltaPct)
	return nil
}

// runSimQoSMode is the -sim-qos entry point.
func runSimQoSMode(chipName string, poolWorkers, virtWorkers int, emitJSON, assert bool, updateBench, tag string) error {
	chip, err := hw.ByName(chipName)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sim-qos on %s: %d virtual workers, pool %d...\n", chip.Name, virtWorkers, poolWorkers)
	rep, err := runSimQoS(chip, poolWorkers, virtWorkers)
	if err != nil {
		return err
	}
	if assert {
		if err := assertQoS(rep); err != nil {
			return err
		}
	}
	if emitJSON {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	} else {
		printSimQoS(rep)
	}
	if updateBench == "merge" {
		if err := mergeSimQoS(tag, rep); err != nil {
			return err
		}
	}
	return nil
}

func printSimQoS(rep simQoSReport) {
	fmt.Printf("%s  %d jobs (%v batch-first, %v latency), %d virtual workers\n",
		rep.Chip, rep.Jobs, rep.BatchShapes, rep.LatencyShapes, rep.VirtWorkers)
	for _, p := range []simQoSPolicy{rep.FIFO, rep.Weighted} {
		fmt.Printf("  %-8s makespan %14.0f cycles\n", p.Policy, p.Makespan)
		for _, c := range p.Classes {
			fmt.Printf("    %-10s %2d jobs  wait p50 %12.0f  p99 %12.0f  max %12.0f\n",
				c.Class, c.Jobs, c.P50Wait, c.P99Wait, c.MaxWait)
		}
	}
	fmt.Printf("  latency p99 speedup %.1fx, makespan delta %+.2f%%\n",
		rep.LatencyP99Speedup, rep.MakespanDeltaPct)
}

// mergeSimQoS folds the report into BENCH_<tag>.json, like
// mergeSimScaling.
func mergeSimQoS(tag string, rep simQoSReport) error {
	path := "BENCH_" + tag + ".json"
	var res benchResult
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &res); err != nil {
			return fmt.Errorf("merge into %s: %w", path, err)
		}
	} else {
		res.Tag = tag
	}
	res.SimQoS = &rep
	out, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "merged simQoS into %s\n", path)
	return nil
}
