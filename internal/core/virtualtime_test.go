package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"testing"

	"autogemm/internal/hw"
	"autogemm/internal/sched"
	"autogemm/internal/vtime"
)

// vtPlan attaches a plan to its own small pool with cost accounting on.
func vtPlan(t *testing.T, chip *hw.Chip, m, n, k, workers int) (*Plan, *sched.Pool) {
	t.Helper()
	pool := sched.New(workers, 0)
	t.Cleanup(func() { pool.Close() })
	opts := AutoOptions(chip)
	opts.Runtime = pool
	p, err := NewPlan(chip, m, n, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableCostAccounting(); err != nil {
		t.Fatal(err)
	}
	return p, pool
}

func fillVT(s []float32, seed uint32) {
	x := seed | 1
	for i := range s {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		s[i] = float32(int32(x%2048)-1024) / 64
	}
}

// TestVirtualTimeDeterminism: the per-task costs a Recorder observes
// during a real parallel execution are exactly the plan's precomputed
// TaskCosts — independent of the racy physical task-to-worker
// assignment — and replaying them through vtime is bit-identical run
// to run. This is the GOMAXPROCS-independence contract the CI
// determinism step exercises.
func TestVirtualTimeDeterminism(t *testing.T) {
	chip := hw.A64FX()
	p, pool := vtPlan(t, chip, 64, 1568, 147, 4)
	rec := sched.NewRecorder()
	pool.SetTimekeeper(rec)

	want, err := p.TaskCosts()
	if err != nil {
		t.Fatal(err)
	}
	m, n, k := p.M, p.N, p.K
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	fillVT(a, 1)
	fillVT(b, 2)

	for run := 0; run < 2; run++ {
		fut, err := p.Submit(context.Background(), c, a, b, 0, sched.QoS{})
		if err != nil {
			t.Fatal(err)
		}
		if err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
		got := rec.Costs(fut.JobID())
		if len(got) != len(want) {
			t.Fatalf("run %d: recorded %d task costs, want %d", run, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("run %d task %d: recorded cost %+v != precomputed %+v",
					run, i, got[i], want[i])
			}
		}
	}

	// Replay determinism: same costs, same chip, same worker count —
	// bit-identical simulated cycles every time.
	r1 := vtime.Simulate(chip, 48, want)
	r2 := vtime.Simulate(chip, 48, want)
	if r1.Cycles != r2.Cycles {
		t.Errorf("replay cycles differ: %v vs %v", r1.Cycles, r2.Cycles)
	}
}

// TestVirtualTimeBitIdenticalOutputs: enabling the Timekeeper hook and
// cost charging changes nothing numeric — parallel outputs stay
// byte-identical to a serial run without accounting.
func TestVirtualTimeBitIdenticalOutputs(t *testing.T) {
	chip := hw.KP920()
	m, n, k := 64, 784, 147

	ref, err := NewPlan(chip, m, n, k, AutoOptions(chip))
	if err != nil {
		t.Fatal(err)
	}
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	fillVT(a, 3)
	fillVT(b, 4)
	cRef := make([]float32, m*n)
	if err := ref.Run(cRef, a, b); err != nil {
		t.Fatal(err)
	}

	p, pool := vtPlan(t, chip, m, n, k, 4)
	pool.SetTimekeeper(sched.NewRecorder())
	cPar := make([]float32, m*n)
	if err := p.RunParallel(cPar, a, b, 4); err != nil {
		t.Fatal(err)
	}

	var bufRef, bufPar bytes.Buffer
	if err := binary.Write(&bufRef, binary.LittleEndian, cRef); err != nil {
		t.Fatal(err)
	}
	if err := binary.Write(&bufPar, binary.LittleEndian, cPar); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufRef.Bytes(), bufPar.Bytes()) {
		t.Fatal("outputs with cost accounting differ from serial reference bits")
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
			p, _ := vtPlan(t, chip, s[0], s[1], s[2], 2)
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
				sim := vtime.Simulate(chip, cores, costs)
				rel := math.Abs(est.Cycles-sim.Cycles) / est.Cycles
				pen := top.SpanPenalty(cores) * top.SyncPenalty(cores)
				tol := (maxTask+est.MaxBandCost)*pen/est.Cycles + 0.02
				if rel > tol {
					t.Errorf("%s %dx%dx%d @%d cores: analytic %.0f vs simulated %.0f (rel %.3f > tol %.3f)",
						chip.Name, s[0], s[1], s[2], cores, est.Cycles, sim.Cycles, rel, tol)
				}
			}
		}
	}
}

// TestParallelCyclesCoreOverflow: asking for more cores than the chip
// has clamps — the cycle estimate is the full-chip one.
func TestParallelCyclesCoreOverflow(t *testing.T) {
	chip := hw.A64FX()
	p, _ := vtPlan(t, chip, 64, 1568, 147, 2)
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
	p, _ := vtPlan(t, chip, 64, 1568, 147, 2)
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
	p, _ := vtPlan(t, chip, 64, 784, 64, 2)
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
