package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"autogemm/internal/core"
	"autogemm/internal/hw"
	"autogemm/internal/sched"
	"autogemm/internal/vtime"
	"autogemm/internal/workload"
)

// The -sim-scaling mode produces the paper's strong-scaling figures
// from the real scheduler's schedule, in virtual time. For each chip it
// runs the actual runtime once — real pool, real claiming, Recorder
// installed as the pool's Timekeeper — verifies the numeric output is
// bit-identical to a serial run and the recorded per-task costs match
// the plan's precomputed ones, then replays those costs through the
// internal/vtime engine at every target core count and cross-checks
// each point against the Eqn-13 analytic estimate. One OS thread is
// enough: N workers exist only in virtual time, which is exactly how
// the repo makes Arm silicon measurable on foreign hosts.

// simScalingPoint is one (chip, cores) measurement of the curve.
type simScalingPoint struct {
	Cores          int     `json:"cores"`
	SimCycles      float64 `json:"simCycles"`
	AnalyticCycles float64 `json:"analyticCycles"`
	DeltaPct       float64 `json:"deltaPct"` // (sim-analytic)/analytic, percent
	SimGFLOPS      float64 `json:"simGflops"`
	Efficiency     float64 `json:"efficiency"`         // vs the 1-worker simulated baseline
	AnalyticEff    float64 `json:"analyticEfficiency"` // vs the 1-core analytic baseline
	GroupsSpanned  int     `json:"groupsSpanned"`
	FloorBound     bool    `json:"floorBound,omitempty"`
}

// simChipScaling is one chip's efficiency curve plus the evidence that
// it came from a real schedule: task count, participants and stolen
// tasks of the recorded run.
type simChipScaling struct {
	Chip         string            `json:"chip"`
	Shape        string            `json:"shape"`
	M            int               `json:"m"`
	N            int               `json:"n"`
	K            int               `json:"k"`
	Tasks        int               `json:"tasks"`
	Participants int               `json:"participants"`
	TasksStolen  int64             `json:"tasksStolen"`
	Points       []simScalingPoint `json:"points"`
}

// simCoreCounts builds the sweep for a chip: powers of two, every
// group-boundary multiple (the CMG-collapse abscissae), and the full
// socket, deduplicated and ascending.
func simCoreCounts(chip *hw.Chip) []int {
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

// runSimScaling drives one chip: real scheduled run under a Recorder,
// bit-identity and cost-determinism checks, then the virtual-time
// replay sweep.
func runSimScaling(chip *hw.Chip, s workload.Shape, poolWorkers int) (simChipScaling, error) {
	out := simChipScaling{Chip: chip.Name, Shape: s.Name, M: s.M, N: s.N, K: s.K}

	pool := sched.New(poolWorkers, 0)
	defer pool.Close()
	rec := sched.NewRecorder()
	pool.SetTimekeeper(rec)

	opts := core.AutoOptions(chip)
	opts.Runtime = pool
	p, err := core.NewPlan(chip, s.M, s.N, s.K, opts)
	if err != nil {
		return out, err
	}
	if err := p.EnableCostAccounting(); err != nil {
		return out, err
	}
	want, err := p.TaskCosts()
	if err != nil {
		return out, err
	}

	a := make([]float32, s.M*s.K+4*chip.Lanes)
	b := make([]float32, s.K*s.N+2*s.N+4*chip.Lanes)
	fill(a, 3)
	fill(b, 5)

	// Serial reference, then the recorded parallel run. Outputs must be
	// bit-identical with the Timekeeper active — the acceptance check
	// that virtual time never touches numerics.
	cRef := make([]float32, s.M*s.N)
	if err := p.RunParallel(cRef, a, b, 1); err != nil {
		return out, err
	}
	cPar := make([]float32, s.M*s.N)
	fut, err := p.Submit(context.Background(), cPar, a, b, 0, sched.QoS{})
	if err != nil {
		return out, err
	}
	if err := fut.Wait(); err != nil {
		return out, err
	}
	if !float32BitsEqual(cRef, cPar) {
		return out, fmt.Errorf("%s: parallel output with Timekeeper differs from serial bits", chip.Name)
	}

	// The recorded schedule's costs must be exactly the plan's
	// precomputed ones: cost content is independent of the racy
	// task-to-worker assignment, which is what makes the replay
	// deterministic across runs and GOMAXPROCS.
	got := rec.Costs(fut.JobID())
	if len(got) != len(want) {
		return out, fmt.Errorf("%s: recorded %d task costs, want %d", chip.Name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return out, fmt.Errorf("%s: task %d recorded cost %+v != precomputed %+v",
				chip.Name, i, got[i], want[i])
		}
	}
	out.Tasks = fut.Tasks()
	out.Participants = fut.Participants()
	out.TasksStolen = fut.TasksStolen()

	// Replay sweep, cross-checked against the analytic estimate.
	simBase := vtime.Simulate(chip, 1, got).Cycles
	anaBase, err := p.EstimateAt(1)
	if err != nil {
		return out, err
	}
	freqHz := chip.FreqGHz * 1e9
	flops := s.FLOPs()
	for _, cores := range simCoreCounts(chip) {
		sim := vtime.Simulate(chip, cores, got)
		est, err := p.EstimateAt(cores)
		if err != nil {
			return out, err
		}
		out.Points = append(out.Points, simScalingPoint{
			Cores:          cores,
			SimCycles:      sim.Cycles,
			AnalyticCycles: est.Cycles,
			DeltaPct:       round3((sim.Cycles - est.Cycles) / est.Cycles * 100),
			SimGFLOPS:      round3(flops / (sim.Cycles / freqHz) / 1e9),
			Efficiency:     round3(sim.Efficiency(simBase)),
			AnalyticEff:    round3(anaBase.Cycles / (est.Cycles * float64(cores))),
			GroupsSpanned:  sim.Spanned,
			FloorBound:     sim.FloorBound,
		})
	}
	return out, nil
}

func float32BitsEqual(x, y []float32) bool {
	var bx, by bytes.Buffer
	if err := binary.Write(&bx, binary.LittleEndian, x); err != nil {
		return false
	}
	if err := binary.Write(&by, binary.LittleEndian, y); err != nil {
		return false
	}
	return bytes.Equal(bx.Bytes(), by.Bytes())
}

// effAt returns the simulated efficiency at a core count, or -1.
func effAt(c simChipScaling, cores int) float64 {
	for _, pt := range c.Points {
		if pt.Cores == cores {
			return pt.Efficiency
		}
	}
	return -1
}

// assertCMGCollapse fails unless the A64FX curve shows the paper's
// §V-E shape: monotone non-increasing simulated cycles while scaling
// inside one CMG, then an efficiency collapse once the worker set
// spans all four groups.
func assertCMGCollapse(curves []simChipScaling) error {
	for _, c := range curves {
		if c.Chip != "A64FX" {
			continue
		}
		chip := hw.A64FX()
		perGroup := hw.NewTopology(chip).CoresPerGroup()
		var prev simScalingPoint
		for i, pt := range c.Points {
			if pt.Cores > perGroup {
				break
			}
			if i > 0 && pt.SimCycles > prev.SimCycles {
				return fmt.Errorf("A64FX in-group scaling not monotone: %d cores %.0f cycles > %d cores %.0f",
					pt.Cores, pt.SimCycles, prev.Cores, prev.SimCycles)
			}
			prev = pt
		}
		eIn, eAll := effAt(c, perGroup), effAt(c, chip.Cores)
		if eIn < 0 || eAll < 0 {
			return fmt.Errorf("A64FX curve missing the %d- or %d-core point", perGroup, chip.Cores)
		}
		if eAll >= eIn*0.7 {
			return fmt.Errorf("A64FX CMG collapse absent: eff@%d %.3f not below 0.7×eff@%d (%.3f)",
				chip.Cores, eAll, perGroup, eIn*0.7)
		}
		fmt.Fprintf(os.Stderr, "cmg-collapse assert ok: A64FX eff %.3f@%d vs %.3f@%d\n",
			eIn, perGroup, eAll, chip.Cores)
		return nil
	}
	return fmt.Errorf("-assert-cmg-collapse needs A64FX in the chip set")
}

// runSimScalingMode is the -sim-scaling entry point: sweep the chips,
// optionally assert the A64FX collapse, emit JSON or a table, and
// optionally fold the curves into BENCH_<tag>.json.
func runSimScalingMode(chipsFlag, layer string, poolWorkers int, emitJSON, assertCollapse bool, updateBench, tag string) error {
	shape, err := pickLayer(layer)
	if err != nil {
		return err
	}
	chips, err := pickChips(chipsFlag)
	if err != nil {
		return err
	}

	var curves []simChipScaling
	for _, chip := range chips {
		fmt.Fprintf(os.Stderr, "sim-scaling %s on %s (%dx%dx%d)...\n",
			shape.Name, chip.Name, shape.M, shape.N, shape.K)
		c, err := runSimScaling(chip, shape, poolWorkers)
		if err != nil {
			return err
		}
		curves = append(curves, c)
	}

	if assertCollapse {
		if err := assertCMGCollapse(curves); err != nil {
			return err
		}
	}

	if emitJSON {
		out, err := json.MarshalIndent(curves, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	} else {
		printSimScaling(curves)
	}

	if updateBench == "merge" {
		if err := mergeSimScaling(tag, curves); err != nil {
			return err
		}
	}
	return nil
}

func pickLayer(layer string) (workload.Shape, error) {
	for _, s := range workload.ResNet50() {
		if s.Name == layer {
			return s, nil
		}
	}
	return workload.Shape{}, fmt.Errorf("unknown ResNet-50 layer %q for -sim-layer", layer)
}

func pickChips(chipsFlag string) ([]*hw.Chip, error) {
	if chipsFlag == "" || chipsFlag == "all" {
		return hw.All(), nil
	}
	var chips []*hw.Chip
	for _, name := range strings.Split(chipsFlag, ",") {
		chip, err := hw.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		chips = append(chips, chip)
	}
	return chips, nil
}

func printSimScaling(curves []simChipScaling) {
	for _, c := range curves {
		fmt.Printf("%s  %s (%dx%dx%d)  %d tasks, %d participants, %d stolen\n",
			c.Chip, c.Shape, c.M, c.N, c.K, c.Tasks, c.Participants, c.TasksStolen)
		fmt.Printf("  %6s %14s %14s %8s %10s %8s %6s\n",
			"cores", "sim cycles", "analytic", "Δ%", "GFLOP/s", "eff", "span")
		for _, pt := range c.Points {
			fmt.Printf("  %6d %14.0f %14.0f %7.1f%% %10.1f %8.3f %6d\n",
				pt.Cores, pt.SimCycles, pt.AnalyticCycles, pt.DeltaPct,
				pt.SimGFLOPS, pt.Efficiency, pt.GroupsSpanned)
		}
		fmt.Println()
	}
}

// mergeSimScaling folds the curves into an existing BENCH_<tag>.json
// (or creates a minimal one) so the committed benchmark record carries
// the simScaling section alongside the wall-clock figures.
func mergeSimScaling(tag string, curves []simChipScaling) error {
	path := "BENCH_" + tag + ".json"
	var res benchResult
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &res); err != nil {
			return fmt.Errorf("merge into %s: %w", path, err)
		}
	} else {
		res.Tag = tag
	}
	res.SimScaling = curves
	out, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "merged simScaling into %s\n", path)
	return nil
}
