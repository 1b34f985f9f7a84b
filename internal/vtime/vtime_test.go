package vtime

import (
	"math"
	"testing"

	"autogemm/internal/hw"
)

// single replays one job's costs: the strong-scaling form of
// SimulateBatch.
func single(chip *hw.Chip, workers int, costs []TaskCost) BatchResult {
	return SimulateBatch(chip, workers, []Job{{Costs: costs}}, PolicyFIFO)
}

func uniform(n int, cycles, bytes float64) []TaskCost {
	costs := make([]TaskCost, n)
	for i := range costs {
		costs[i] = TaskCost{Cycles: cycles, Bytes: bytes}
	}
	return costs
}

// TestSingleWorkerIsSerialSum: one worker reproduces the in-order sum
// of the compute costs exactly — the analytic single-core contract
// (no penalties, no bandwidth floor).
func TestSingleWorkerIsSerialSum(t *testing.T) {
	costs := []TaskCost{
		{Cycles: 100, Bytes: 1e12}, {Cycles: 31.5, Bytes: 0}, {Cycles: 7, Bytes: 5},
	}
	res := single(hw.KP920(), 1, costs)
	if want := 100 + 31.5 + 7.0; res.Makespan != want {
		t.Errorf("Makespan=%v, want exact serial sum %v", res.Makespan, want)
	}
	if res.FloorBound {
		t.Error("single worker must not apply the bandwidth floor")
	}
	if res.Tasks[0] != 3 {
		t.Errorf("Tasks[0]=%d, want 3", res.Tasks[0])
	}
}

// TestDeterministicReplay: repeated simulations of the same inputs are
// bit-identical, including per-worker accounting.
func TestDeterministicReplay(t *testing.T) {
	costs := make([]TaskCost, 97)
	for i := range costs {
		costs[i] = TaskCost{
			Cycles: 1000 + float64(i*i%37)*13.7,
			Bytes:  float64(i%5) * 4096,
		}
	}
	for _, chip := range hw.All() {
		a := single(chip, chip.Cores, costs)
		b := single(chip, chip.Cores, costs)
		if a.Makespan != b.Makespan {
			t.Errorf("%s: cycles differ across runs: %v vs %v", chip.Name, a.Makespan, b.Makespan)
		}
		for i := range a.Busy {
			if a.Busy[i] != b.Busy[i] || a.Tasks[i] != b.Tasks[i] {
				t.Errorf("%s: worker %d accounting differs across runs", chip.Name, i)
			}
		}
	}
}

// TestUniformTasksBalance: uniform compute-bound tasks on a
// single-group chip split evenly — the makespan is the per-worker
// share times the sync penalty, and every worker runs the same number
// of tasks.
func TestUniformTasksBalance(t *testing.T) {
	chip := hw.KP920() // 8 cores, 1 group
	const n, w = 64, 8
	costs := uniform(n, 1000, 0)
	res := single(chip, w, costs)
	top := hw.NewTopology(chip)
	want := float64(n/w) * 1000 * top.SyncPenalty(w)
	if math.Abs(res.Makespan-want) > 1e-6 {
		t.Errorf("Makespan=%v, want %v", res.Makespan, want)
	}
	for i, k := range res.Tasks {
		if k != n/w {
			t.Errorf("worker %d ran %d tasks, want %d", i, k, n/w)
		}
	}
}

// TestClaimOrderImbalance: one giant task first, then small ones — the
// replay's ascending-index claim discipline puts the giant task on
// worker 0 and the makespan tracks it, not the even split.
func TestClaimOrderImbalance(t *testing.T) {
	chip := hw.Graviton2()
	costs := append([]TaskCost{{Cycles: 1e6}}, uniform(10, 10, 0)...)
	res := single(chip, 4, costs)
	top := hw.NewTopology(chip)
	want := 1e6 * top.SyncPenalty(4)
	if math.Abs(res.Makespan-want) > 1e-6 {
		t.Errorf("Makespan=%v, want giant-task bound %v", res.Makespan, want)
	}
	if res.Tasks[0] != 1 {
		t.Errorf("worker 0 ran %d tasks, want only the giant one", res.Tasks[0])
	}
}

// TestBandwidthFloorBinds: tasks moving enormous traffic relative to
// their compute become bandwidth-bound: the result is the socket floor
// and FloorBound reports it.
func TestBandwidthFloorBinds(t *testing.T) {
	chip := hw.KP920()
	top := hw.NewTopology(chip)
	costs := uniform(16, 1, 1e9) // ~no compute, a GB of traffic each
	res := single(chip, 8, costs)
	floor := 16e9 / top.SocketBandwidth()
	if !res.FloorBound {
		t.Fatalf("floor did not bind: cycles %v, floor %v", res.Makespan, floor)
	}
	if math.Abs(res.Makespan-floor) > floor*1e-9 {
		t.Errorf("Makespan=%v, want floor %v", res.Makespan, floor)
	}
	// Compute-bound work must not report the floor.
	if r := single(chip, 8, uniform(16, 1e9, 8)); r.FloorBound {
		t.Error("compute-bound schedule reported FloorBound")
	}
}

// TestGroupContentionSlowsDraining: with per-group bandwidth shared by
// concurrent tasks, packing the same workers into one group drains
// slower in wall time than the floor suggests for few workers — and
// adding workers in the same group cannot beat the group's bandwidth.
func TestGroupContentionSlowsDraining(t *testing.T) {
	chip := hw.A64FX()
	top := hw.NewTopology(chip)
	// Memory-heavy tasks confined to one CMG (12 workers): the group's
	// bandwidth, a quarter of the socket, is the binding resource.
	costs := uniform(12, 1, 1e8)
	res := single(chip, 12, costs)
	groupTime := 12e8 / top.GroupBandwidth()
	if math.Abs(res.Makespan-groupTime) > groupTime*1e-9 {
		t.Errorf("Makespan=%v, want group-bandwidth bound %v", res.Makespan, groupTime)
	}
	if res.FloorBound {
		t.Error("socket floor reported, but the group bound is higher")
	}
}

// TestMoreWorkersThanTasks: extra workers idle; they run zero tasks and
// accumulate zero busy cycles.
func TestMoreWorkersThanTasks(t *testing.T) {
	chip := hw.Graviton2()
	res := single(chip, 16, uniform(3, 500, 0))
	var ran int
	for i := range res.Tasks {
		ran += res.Tasks[i]
		if res.Tasks[i] == 0 && res.Busy[i] != 0 {
			t.Errorf("idle worker %d has busy cycles %v", i, res.Busy[i])
		}
	}
	if ran != 3 {
		t.Errorf("tasks run %d, want 3", ran)
	}
}

// TestWorkerClamp: asking for more workers than the chip has cores
// clamps; zero or negative clamps to one.
func TestWorkerClamp(t *testing.T) {
	chip := hw.M2() // 4 cores
	if res := single(chip, 100, uniform(8, 10, 0)); res.Workers != 4 {
		t.Errorf("Workers=%d, want clamp to 4", res.Workers)
	}
	if res := single(chip, 0, uniform(8, 10, 0)); res.Workers != 1 {
		t.Errorf("Workers=%d, want clamp to 1", res.Workers)
	}
}

// TestCMGCollapseFromReplay: the A64FX efficiency curve collapses when
// the worker set spans CMGs — the paper's §V-E figure, out of the
// replay engine alone.
func TestCMGCollapseFromReplay(t *testing.T) {
	chip := hw.A64FX()
	costs := uniform(192, 10_000, 0)
	base := single(chip, 1, costs).Makespan
	eff := func(w int) float64 { return single(chip, w, costs).Efficiency(base) }
	e12, e24, e48 := eff(12), eff(24), eff(48)
	if e12 < 0.9 {
		t.Errorf("within-CMG efficiency %.3f, want near-linear", e12)
	}
	if e24 >= e12 || e48 >= e24 {
		t.Errorf("no collapse across CMGs: eff 12/24/48 = %.3f/%.3f/%.3f", e12, e24, e48)
	}
	if e48 > e12*0.7 {
		t.Errorf("48-core efficiency %.3f too close to within-CMG %.3f", e48, e12)
	}
	if sp := single(chip, 48, costs).Spanned; sp != 4 {
		t.Errorf("Spanned=%d, want 4", sp)
	}
}

// TestEmptyCosts: no tasks, no cycles — and no panic.
func TestEmptyCosts(t *testing.T) {
	res := single(hw.KP920(), 4, nil)
	if res.Makespan != 0 {
		t.Errorf("Makespan=%v, want 0", res.Makespan)
	}
}
