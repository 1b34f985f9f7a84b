package core

import (
	"math"
	"testing"

	"autogemm/internal/hw"
	"autogemm/internal/vtime"
)

// vtPlan attaches a plan with the chip's auto options.
func vtPlan(t *testing.T, chip *hw.Chip, m, n, k int) *Plan {
	t.Helper()
	p, err := NewPlan(chip, m, n, k, AutoOptions(chip))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTaskCostsPartitionEstimate: the per-task costs partition the
// analytic single-core estimate — their cycles sum to its kernel,
// launch and pack cycles and their bytes to its DRAM traffic. This
// anchors the replay: the costs internal/vtime schedules are the same
// work the Eqn-13 estimate prices, split by C-tile group.
func TestTaskCostsPartitionEstimate(t *testing.T) {
	shapes := [][3]int{
		{64, 1568, 147}, // ResNet-50 L1, half width
		{37, 53, 29},    // ragged on every axis
		{256, 3136, 64},
		{5, 7, 300}, // deep k, tiny m and n
	}
	for _, chip := range []*hw.Chip{hw.A64FX(), hw.KP920(), hw.Graviton3()} {
		for _, s := range shapes {
			p := vtPlan(t, chip, s[0], s[1], s[2])
			costs, err := p.TaskCosts()
			if err != nil {
				t.Fatal(err)
			}
			if len(costs) != len(p.groups) {
				t.Fatalf("%s %v: %d task costs for %d groups", chip.Name, s, len(costs), len(p.groups))
			}
			var cycles, bytes float64
			for _, c := range costs {
				cycles += c.Cycles
				bytes += c.Bytes
			}
			est, err := p.EstimateAt(1)
			if err != nil {
				t.Fatal(err)
			}
			want := est.KernelCycles + est.LaunchOver + est.PackCycles
			if rel := math.Abs(cycles-want) / want; rel > 1e-12 {
				t.Errorf("%s %v: task cycles sum %v, estimate %v (rel %.3g)", chip.Name, s, cycles, want, rel)
			}
			if rel := math.Abs(bytes-est.DRAMBytes) / est.DRAMBytes; rel > 1e-12 {
				t.Errorf("%s %v: task bytes sum %v, estimate %v (rel %.3g)", chip.Name, s, bytes, est.DRAMBytes, rel)
			}
		}
	}
}

// TestVirtualTimeDeterminism: two independently attached plans of one
// shape give bit-identical task costs — they are a pure function of
// the plan — and replaying them through vtime is bit-identical run to
// run. This is the GOMAXPROCS-independence contract the CI determinism
// step exercises.
func TestVirtualTimeDeterminism(t *testing.T) {
	chip := hw.A64FX()
	want, err := vtPlan(t, chip, 64, 1568, 147).TaskCosts()
	if err != nil {
		t.Fatal(err)
	}
	got, err := vtPlan(t, chip, 64, 1568, 147).TaskCosts()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("second plan has %d task costs, first %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i].Cycles) != math.Float64bits(want[i].Cycles) ||
			math.Float64bits(got[i].Bytes) != math.Float64bits(want[i].Bytes) {
			t.Fatalf("task %d: cost %+v != %+v", i, got[i], want[i])
		}
	}

	// Replay determinism: same costs, same chip, same worker count —
	// bit-identical simulated cycles every time.
	r1 := vtime.SimulateBatch(chip, 48, []vtime.Job{{Costs: want}}, vtime.PolicyFIFO)
	r2 := vtime.SimulateBatch(chip, 48, []vtime.Job{{Costs: got}}, vtime.PolicyFIFO)
	if math.Float64bits(r1.Makespan) != math.Float64bits(r2.Makespan) {
		t.Errorf("replay cycles differ: %v vs %v", r1.Makespan, r2.Makespan)
	}
}

// TestAnalyticVsScheduleCrossValidation: on ResNet-50 shapes, the
// analytic Eqn-13 estimate and the schedule-derived simulated cycles
// must agree within the granularity gap — the analytic imbalance term
// is one band, the replay's is one task, so the bound is the largest
// task cost (plus the band bound itself) over the analytic estimate.
func TestAnalyticVsScheduleCrossValidation(t *testing.T) {
	shapes := [][3]int{
		{64, 12544, 147}, // ResNet-50 L1
		{256, 3136, 64},
		{512, 784, 128},
	}
	for _, chip := range []*hw.Chip{hw.A64FX(), hw.Graviton2(), hw.KP920()} {
		top := hw.NewTopology(chip)
		for _, s := range shapes {
			p := vtPlan(t, chip, s[0], s[1], s[2])
			costs, err := p.TaskCosts()
			if err != nil {
				t.Fatal(err)
			}
			var maxTask float64
			for _, c := range costs {
				if c.Cycles > maxTask {
					maxTask = c.Cycles
				}
			}
			for _, cores := range []int{1, top.CoresPerGroup(), chip.Cores} {
				est, err := p.EstimateAt(cores)
				if err != nil {
					t.Fatal(err)
				}
				sim := vtime.SimulateBatch(chip, cores, []vtime.Job{{Costs: costs}}, vtime.PolicyFIFO)
				rel := math.Abs(est.Cycles-sim.Makespan) / est.Cycles
				pen := top.SpanPenalty(cores) * top.SyncPenalty(cores)
				tol := (maxTask+est.MaxBandCost)*pen/est.Cycles + 0.02
				if rel > tol {
					t.Errorf("%s %dx%dx%d @%d cores: analytic %.0f vs simulated %.0f (rel %.3f > tol %.3f)",
						chip.Name, s[0], s[1], s[2], cores, est.Cycles, sim.Makespan, rel, tol)
				}
			}
		}
	}
}

// TestParallelCyclesCoreOverflow: asking for more cores than the chip
// has clamps — the cycle estimate is the full-chip one.
func TestParallelCyclesCoreOverflow(t *testing.T) {
	chip := hw.A64FX()
	p := vtPlan(t, chip, 64, 1568, 147)
	full, err := p.EstimateAt(chip.Cores)
	if err != nil {
		t.Fatal(err)
	}
	over, err := p.EstimateAt(1000)
	if err != nil {
		t.Fatal(err)
	}
	if over.Cycles != full.Cycles {
		t.Errorf("EstimateAt(1000).Cycles=%v != EstimateAt(%d).Cycles=%v",
			over.Cycles, chip.Cores, full.Cycles)
	}
}

// TestParallelCyclesSingleGroup: on a one-group chip the estimate is
// exactly the greedy bound times the sync penalty (no span slowdown),
// floored by socket bandwidth.
func TestParallelCyclesSingleGroup(t *testing.T) {
	chip := hw.KP920()
	p := vtPlan(t, chip, 64, 1568, 147)
	cores := chip.Cores
	est, err := p.EstimateAt(cores)
	if err != nil {
		t.Fatal(err)
	}
	top := hw.NewTopology(chip)
	single := est.KernelCycles + est.LaunchOver + est.PackCycles + float64(p.Opts.CallOverhead)
	want := (single/float64(cores) + est.MaxBandCost) * top.SyncPenalty(cores)
	if bw := est.DRAMBytes / top.SocketBandwidth(); bw > want {
		want = bw
	}
	if math.Abs(est.Cycles-want)/want > 1e-12 {
		t.Errorf("Cycles=%v, want %v (greedy bound, sync only)", est.Cycles, want)
	}
}

// TestParallelCyclesBandwidthFloor: when traffic dominates, the socket
// bandwidth floor binds the analytic estimate.
func TestParallelCyclesBandwidthFloor(t *testing.T) {
	chip := hw.Graviton2()
	p := vtPlan(t, chip, 64, 784, 64)
	top := hw.NewTopology(chip)
	syn := Estimate{MaxBandCost: 10, DRAMBytes: 1e13}
	got := p.parallelCyclesAt(1e4, syn, chip.Cores)
	want := syn.DRAMBytes / top.SocketBandwidth()
	if got != want {
		t.Errorf("floor-bound cycles %v, want %v", got, want)
	}
	// And with negligible traffic the same call is compute-bound.
	syn.DRAMBytes = 1
	if got := p.parallelCyclesAt(1e4, syn, chip.Cores); got == want {
		t.Error("compute-bound case still returned the bandwidth floor")
	}
}
