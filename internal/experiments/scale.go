package experiments

import (
	"autogemm/internal/baselines"
	"autogemm/internal/core"
	"autogemm/internal/hw"
	"autogemm/internal/roofline"
	"autogemm/internal/workload"
)

// Fig10 regenerates the roofline analysis on KP920, Graviton2 and M2:
// the four small cubes (8, 16, 32, 64) and four Table-V layers (L4, L8,
// L10, L16), each placed on the single-core and all-core rooflines with
// autoGEMM's measured GFLOPS.
func Fig10() (Table, error) {
	t := Table{ID: "fig10", Title: "Roofline placement (autoGEMM)",
		Header: []string{"chip", "kernel", "cores", "AI", "GFLOPS", "attainable", "bound"}}
	var shapes []workload.Shape
	for _, s := range []int{8, 16, 32, 64} {
		shapes = append(shapes, workload.Shape{M: s, N: s, K: s})
	}
	for _, l := range []string{"L4", "L8", "L10", "L16"} {
		s, err := workload.ResNet50Layer(l)
		if err != nil {
			return t, err
		}
		shapes = append(shapes, s)
	}
	auto := baselines.AutoGEMM()
	for _, chip := range []*hw.Chip{hw.KP920(), hw.Graviton2(), hw.M2()} {
		for _, cores := range []int{1, chip.Cores} {
			model := roofline.New(chip, cores)
			for _, s := range shapes {
				plan, err := auto.Plan(chip, s.M, s.N, s.K)
				if err != nil {
					return t, err
				}
				est, err := plan.EstimateAt(cores)
				if err != nil {
					return t, err
				}
				ai := roofline.AIOfGEMM(s.M, s.N, s.K)
				pt := model.Place(s.String(), ai, est.GFLOPS)
				t.Add(chip.Name, s.String(), cores, pt.AI, pt.GFLOPS, pt.Attain, pt.BoundedBy)
			}
		}
	}
	t.Note("paper: small GEMM mostly compute-bound; single-core autoGEMM near the roofline peak")
	return t, nil
}

// Fig11 regenerates the strong-scaling evaluation: the L1 layer
// (64×12544×147) on every chip as the core count doubles toward the full
// socket, reporting speedup and parallel efficiency. A64FX's CMG ring
// bus collapses its scaling (paper: 30.3% at 48 cores).
func Fig11() (Table, error) {
	t := Table{ID: "fig11", Title: "Strong scaling on ResNet-50 L1 (64x12544x147)",
		Header: []string{"chip", "cores", "GFLOPS", "speedup", "parallel-eff%"}}
	s, err := workload.ResNet50Layer("L1")
	if err != nil {
		return t, err
	}
	for _, chip := range hw.All() {
		plan, err := core.NewPlan(chip, s.M, s.N, s.K, core.AutoOptions(chip))
		if err != nil {
			return t, err
		}
		var base float64
		for cores := 1; ; cores *= 2 {
			if cores > chip.Cores {
				cores = chip.Cores
			}
			est, err := plan.EstimateAt(cores)
			if err != nil {
				return t, err
			}
			if cores == 1 {
				base = est.GFLOPS
			}
			speedup := est.GFLOPS / base
			t.Add(chip.Name, cores, est.GFLOPS, speedup, 100*speedup/float64(cores))
			if cores == chip.Cores {
				break
			}
		}
	}
	t.Note("paper parallel efficiency at full socket: KP920 98%%, Graviton2 98.2%%, Altra 83.2%%, M2 93.5%%, A64FX 30.3%%")
	return t, nil
}
