package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"autogemm/internal/core"
	"autogemm/internal/hw"
	"autogemm/internal/refgemm"
	"autogemm/internal/sched"
	"autogemm/internal/vtime"
	"autogemm/internal/workload"
)

// The replay experiments produce the strong-scaling and QoS figures
// from the real scheduler's jobs, in virtual time. Each one runs the
// actual runtime once — real pool, real claiming — checks that every
// output is bit-identical to a serial run, then replays each job's
// per-task costs (core.Plan.TaskCosts) under the class, weight and ID
// the pool accepted it with through internal/vtime at any virtual
// worker count. N workers exist only in virtual time, so a two-core
// host measures a 48-core A64FX schedule. BENCH_local.json keeps both
// replays' results (simScaling, simQoS) as a frozen record the package
// tests pin bit for bit; the json tags below name that record's fields.

// submission is one job of a recorded run.
type submission struct {
	shape workload.Shape
	qos   sched.QoS
}

// recordedJob is one finished job of a recorded run: the replay input
// plus the plan and future that produced it.
type recordedJob struct {
	vtime.Job
	plan *core.Plan
	fut  *core.RunFuture
}

// record executes subs on a real poolWorkers-worker pool, all jobs in
// flight together in submission order, and returns them as replay
// jobs. It fails unless every output is bit-identical to a serial run
// of its plan. A job's replay costs are its plan's TaskCosts, a pure
// function of the plan, independent of the racy task-to-worker
// assignment, which is what makes the replay deterministic across runs
// and GOMAXPROCS. No participant cap carries into the replay: the pool
// caps a job at min(tasks, poolWorkers), an artifact of the recording
// pool's size, and the virtual sweep scales workers independently.
func record(chip *hw.Chip, poolWorkers int, subs []submission) ([]recordedJob, error) {
	pool := sched.New(poolWorkers, 0)
	defer pool.Close()

	// One plan, operand pair and serial reference per distinct shape,
	// all built before the first submission.
	type prepared struct {
		plan      *core.Plan
		a, b, ref []float32
		costs     []vtime.TaskCost
	}
	preps := make(map[string]*prepared)
	for _, sub := range subs {
		s := sub.shape
		if preps[s.Name] != nil {
			continue
		}
		opts := core.AutoOptions(chip)
		opts.Runtime = pool
		p, err := core.NewPlan(chip, s.M, s.N, s.K, opts)
		if err != nil {
			return nil, err
		}
		pr := &prepared{plan: p, a: make([]float32, s.M*s.K), b: make([]float32, s.K*s.N), ref: make([]float32, s.M*s.N)}
		if pr.costs, err = p.TaskCosts(); err != nil {
			return nil, err
		}
		refgemm.Fill(pr.a, s.M, s.K, s.K, 3)
		refgemm.Fill(pr.b, s.K, s.N, s.N, 5)
		if err := p.RunParallel(pr.ref, pr.a, pr.b, 1); err != nil {
			return nil, err
		}
		preps[s.Name] = pr
	}

	jobs := make([]recordedJob, len(subs))
	outs := make([][]float32, len(subs))
	for i, sub := range subs {
		pr := preps[sub.shape.Name]
		outs[i] = make([]float32, len(pr.ref))
		fut, err := pr.plan.Submit(context.Background(), outs[i], pr.a, pr.b, 0, sub.qos)
		if err != nil {
			return nil, err
		}
		jobs[i].plan, jobs[i].fut = pr.plan, fut
	}

	for i, sub := range subs {
		j, pr, name := &jobs[i], preps[sub.shape.Name], sub.shape.Name
		if err := j.fut.Wait(); err != nil {
			return nil, fmt.Errorf("%s %s: %w", chip.Name, name, err)
		}
		for e := range pr.ref {
			if math.Float32bits(outs[i][e]) != math.Float32bits(pr.ref[e]) {
				return nil, fmt.Errorf("%s %s: scheduled output differs from serial bits at %d", chip.Name, name, e)
			}
		}
		class := sub.qos.Class
		if class == "" {
			class = sched.DefaultClass
		}
		j.Job = vtime.Job{ID: j.fut.JobID(), Class: class, Weight: sub.qos.Weight, Costs: pr.costs}
	}
	return jobs, nil
}

// scalingPoint is one (chip, cores) point of a replayed curve.
type scalingPoint struct {
	Cores          int     `json:"cores"`
	SimCycles      float64 `json:"simCycles"`
	AnalyticCycles float64 `json:"analyticCycles"`
	DeltaPct       float64 `json:"deltaPct"` // (sim-analytic)/analytic, percent
	SimGFLOPS      float64 `json:"simGflops"`
	Efficiency     float64 `json:"efficiency"`         // vs the 1-worker replay
	AnalyticEff    float64 `json:"analyticEfficiency"` // vs the 1-core analytic estimate
	GroupsSpanned  int     `json:"groupsSpanned"`
	FloorBound     bool    `json:"floorBound,omitempty"`
}

// chipScaling is one chip's replayed curve plus the evidence that it
// came from a real schedule: the recorded run's task count,
// participants and stolen tasks (the last two vary run to run).
type chipScaling struct {
	Chip         string         `json:"chip"`
	Shape        string         `json:"shape"`
	M            int            `json:"m"`
	N            int            `json:"n"`
	K            int            `json:"k"`
	Tasks        int            `json:"tasks"`
	Participants int            `json:"participants"`
	TasksStolen  int64          `json:"tasksStolen"`
	Points       []scalingPoint `json:"points"`
}

// Fig11 replay configuration: ResNet-50 L1 recorded on a 4-worker pool.
const (
	scalingLayer       = "L1"
	scalingPoolWorkers = 4
)

// scalingCoreCounts builds the sweep for a chip: powers of two, every
// group-boundary multiple (the CMG-collapse abscissae), and the full
// socket, deduplicated and ascending.
func scalingCoreCounts(chip *hw.Chip) []int {
	top := hw.NewTopology(chip)
	seen := map[int]bool{}
	var counts []int
	add := func(c int) {
		if c >= 1 && c <= chip.Cores && !seen[c] {
			seen[c] = true
			counts = append(counts, c)
		}
	}
	for c := 1; c <= chip.Cores; c *= 2 {
		add(c)
	}
	for g := 1; g <= top.Groups(); g++ {
		add(g * top.CoresPerGroup())
	}
	add(chip.Cores)
	sort.Ints(counts)
	return counts
}

// scalingCurves records one scheduled L1 run per chip and replays it at
// every core count of the chip's sweep, cross-checking each point
// against the Eqn-13 analytic estimate.
func scalingCurves() ([]chipScaling, error) {
	s, err := workload.ResNet50Layer(scalingLayer)
	if err != nil {
		return nil, err
	}
	var curves []chipScaling
	for _, chip := range hw.All() {
		jobs, err := record(chip, scalingPoolWorkers, []submission{{shape: s}})
		if err != nil {
			return nil, err
		}
		j := jobs[0]
		c := chipScaling{Chip: chip.Name, Shape: s.Name, M: s.M, N: s.N, K: s.K,
			Tasks: j.fut.Tasks(), Participants: j.fut.Participants(), TasksStolen: j.fut.TasksStolen()}
		replay := func(cores int) vtime.BatchResult {
			return vtime.SimulateBatch(chip, cores, []vtime.Job{{Costs: j.Costs}}, vtime.PolicyFIFO)
		}
		simBase := replay(1).Makespan
		anaBase, err := j.plan.EstimateAt(1)
		if err != nil {
			return nil, err
		}
		freqHz := chip.FreqGHz * 1e9
		for _, cores := range scalingCoreCounts(chip) {
			sim := replay(cores)
			est, err := j.plan.EstimateAt(cores)
			if err != nil {
				return nil, err
			}
			c.Points = append(c.Points, scalingPoint{
				Cores:          cores,
				SimCycles:      sim.Makespan,
				AnalyticCycles: est.Cycles,
				DeltaPct:       round3((sim.Makespan - est.Cycles) / est.Cycles * 100),
				SimGFLOPS:      round3(s.FLOPs() / (sim.Makespan / freqHz) / 1e9),
				Efficiency:     round3(sim.Efficiency(simBase)),
				AnalyticEff:    round3(anaBase.Cycles / (est.Cycles * float64(cores))),
				GroupsSpanned:  sim.Spanned,
				FloorBound:     sim.FloorBound,
			})
		}
		curves = append(curves, c)
	}
	return curves, nil
}

// Fig11Replay is Fig 11 from a real schedule: ResNet-50 L1 recorded on
// a 4-worker pool per chip, replayed in virtual time at every core
// count, next to the analytic estimate. The A64FX curve shows the §V-E
// CMG collapse once the worker set spans ring-bus groups.
func Fig11Replay() (Table, error) {
	t := Table{ID: "fig11-replay", Title: "Strong scaling on ResNet-50 L1, replayed from a real schedule",
		Header: []string{"chip", "cores", "sim-cycles", "analytic-cycles", "delta%", "sim-GFLOPS", "eff", "analytic-eff", "groups"}}
	curves, err := scalingCurves()
	if err != nil {
		return t, err
	}
	for _, c := range curves {
		for _, pt := range c.Points {
			t.Add(c.Chip, pt.Cores, pt.SimCycles, pt.AnalyticCycles, pt.DeltaPct, pt.SimGFLOPS,
				fmt.Sprintf("%.3f", pt.Efficiency), fmt.Sprintf("%.3f", pt.AnalyticEff), pt.GroupsSpanned)
		}
		t.Note("%s: %d tasks recorded on %d participants, %d stolen", c.Chip, c.Tasks, c.Participants, c.TasksStolen)
	}
	t.Note("simulated cycles; eff is against the 1-worker replay")
	return t, nil
}

// classWaits is one class's replayed queue-wait distribution under one
// policy, in virtual cycles.
type classWaits struct {
	Class      string  `json:"class"`
	Jobs       int     `json:"jobs"`
	P50Wait    float64 `json:"p50WaitCycles"`
	P99Wait    float64 `json:"p99WaitCycles"`
	MaxWait    float64 `json:"maxWaitCycles"`
	MeanFinish float64 `json:"meanFinishCycles"`
}

// policyReplay is one policy's replay outcome.
type policyReplay struct {
	Policy   string       `json:"policy"`
	Makespan float64      `json:"makespanCycles"`
	Classes  []classWaits `json:"classes"`
}

// qosComparison is both policies replayed over the same recorded
// mixed-class schedule.
type qosComparison struct {
	Chip          string   `json:"chip"`
	VirtWorkers   int      `json:"virtWorkers"`
	PoolWorkers   int      `json:"poolWorkers"`
	Jobs          int      `json:"jobs"`
	BatchShapes   []string `json:"batchShapes"`
	LatencyShapes []string `json:"latencyShapes"`

	FIFO     policyReplay `json:"fifo"`
	Weighted policyReplay `json:"weighted"`

	// LatencyP99Speedup is FIFO's latency-class p99 queue wait divided
	// by weighted's; MakespanDeltaPct is the weighted makespan relative
	// to FIFO, percent (positive = slower).
	LatencyP99Speedup float64 `json:"latencyP99Speedup"`
	MakespanDeltaPct  float64 `json:"makespanDeltaPct"`
}

// QoS replay configuration. The mixed workload is the top batchShapes
// ResNet-50 shapes by FLOPs as a low-weight batch tenant (batchCopies
// jobs each, submitted first, so FIFO serves them first), then the
// bottom latencyShapes as a high-weight latency tenant.
const (
	qosChip        = "KP920"
	qosPoolWorkers = 4
	qosVirtWorkers = 8

	batchShapes   = 2
	batchCopies   = 2
	latencyShapes = 4
	latencyCopies = 3

	latencyClass  = "latency"
	batchClass    = "batch"
	latencyWeight = 16
	batchWeight   = 1
)

// qosReplay records the mixed workload on a real pool, then replays it
// under FIFO and under weighted claiming. FIFO shows the starvation
// pathology (small shapes wait behind every batch frontier); weighted
// claiming bounds it without giving up makespan.
func qosReplay() (qosComparison, error) {
	out := qosComparison{Chip: qosChip, VirtWorkers: qosVirtWorkers, PoolWorkers: qosPoolWorkers}
	chip, err := hw.ByName(qosChip)
	if err != nil {
		return out, err
	}
	shapes := workload.ResNet50()
	sort.SliceStable(shapes, func(i, j int) bool { return shapes[i].FLOPs() > shapes[j].FLOPs() })
	batch, latency := shapes[:batchShapes], shapes[len(shapes)-latencyShapes:]

	var subs []submission
	for range batchCopies {
		for _, s := range batch {
			subs = append(subs, submission{s, sched.QoS{Class: batchClass, Weight: batchWeight}})
		}
	}
	for range latencyCopies {
		for _, s := range latency {
			subs = append(subs, submission{s, sched.QoS{Class: latencyClass, Weight: latencyWeight}})
		}
	}
	for _, s := range batch {
		out.BatchShapes = append(out.BatchShapes, s.Name)
	}
	for _, s := range latency {
		out.LatencyShapes = append(out.LatencyShapes, s.Name)
	}

	recorded, err := record(chip, qosPoolWorkers, subs)
	if err != nil {
		return out, err
	}
	jobs := make([]vtime.Job, len(recorded))
	for i, j := range recorded {
		jobs[i] = j.Job
	}
	out.Jobs = len(jobs)
	fifo := vtime.SimulateBatch(chip, qosVirtWorkers, jobs, vtime.PolicyFIFO)
	weighted := vtime.SimulateBatch(chip, qosVirtWorkers, jobs, vtime.PolicyWeighted)
	out.FIFO, out.Weighted = summarizePolicy(fifo), summarizePolicy(weighted)
	if w := out.Weighted.p99(latencyClass); w > 0 {
		out.LatencyP99Speedup = round3(out.FIFO.p99(latencyClass) / w)
	}
	out.MakespanDeltaPct = round3((weighted.Makespan - fifo.Makespan) / fifo.Makespan * 100)
	return out, nil
}

// summarizePolicy folds a replay into per-class distributions.
func summarizePolicy(res vtime.BatchResult) policyReplay {
	out := policyReplay{Policy: res.Policy.String(), Makespan: res.Makespan}
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
		out.Classes = append(out.Classes, classWaits{
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

// p99 returns a class's p99 queue wait, or 0 when the class is absent.
func (p policyReplay) p99(class string) float64 {
	for _, c := range p.Classes {
		if c.Class == class {
			return c.P99Wait
		}
	}
	return 0
}

// QoSReplay compares FIFO and weighted claiming in simulated cycles on
// a mixed ResNet-50 workload recorded on KP920 (4-worker pool) and
// replayed on 8 virtual workers: per-class queue-wait quantiles and
// makespan under each policy.
func QoSReplay() (Table, error) {
	t := Table{ID: "qos-replay", Title: "FIFO vs weighted claiming, replayed from a real mixed-class schedule",
		Header: []string{"policy", "class", "jobs", "p50-wait", "p99-wait", "max-wait", "mean-finish", "makespan"}}
	q, err := qosReplay()
	if err != nil {
		return t, err
	}
	for _, p := range []policyReplay{q.FIFO, q.Weighted} {
		for _, c := range p.Classes {
			t.Add(p.Policy, c.Class, c.Jobs, c.P50Wait, c.P99Wait, c.MaxWait, c.MeanFinish, p.Makespan)
		}
	}
	t.Note("%s, %d jobs (batch %v first, then latency %v), %d virtual workers; cycles",
		q.Chip, q.Jobs, q.BatchShapes, q.LatencyShapes, q.VirtWorkers)
	t.Note("latency p99 wait speedup %.2fx, weighted makespan %+.2f%% vs FIFO", q.LatencyP99Speedup, q.MakespanDeltaPct)
	return t, nil
}

func round3(x float64) float64 { return float64(int64(x*1000+0.5)) / 1000 }
