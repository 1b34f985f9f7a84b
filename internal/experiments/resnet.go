package experiments

import (
	"autogemm/internal/baselines"
	"autogemm/internal/core"
	"autogemm/internal/hw"
	"autogemm/internal/workload"
)

// Fig9 regenerates the irregular-GEMM evaluation on the 20 ResNet-50
// layers of Table V: single-core GFLOPS (upper Fig 9) and all-core
// GFLOPS (lower Fig 9) for each library on KP920, Graviton2 and Altra,
// plus SSL2/autoGEMM on A64FX. The multi-core rows reproduce the paper's
// k_c = K limitation ("TVM does not support parallelism over K"), which
// degrades the large-K layers L7, L12, L17 and L20.
func Fig9() (Table, error) {
	t := Table{ID: "fig9", Title: "ResNet-50 layer GEMMs (GFLOPS)",
		Header: []string{"chip", "cores", "layer", "OpenBLAS", "Eigen", "LibShalom", "SSL2", "autoGEMM"}}
	providers := []baselines.Provider{
		baselines.OpenBLAS(), baselines.Eigen(), baselines.LibShalom(),
		baselines.SSL2(), baselines.AutoGEMM(),
	}
	for _, chip := range fig9Chips() {
		for _, cores := range []int{1, chip.Cores} {
			for _, s := range workload.ResNet50() {
				row := []interface{}{chip.Name, cores, s.Name}
				for _, p := range providers {
					if !p.Supports(chip, s.M, s.N, s.K) {
						row = append(row, "-")
						continue
					}
					plan, err := fig9Plan(p, chip, s, cores)
					if err != nil {
						return t, err
					}
					est, err := plan.EstimateAt(cores)
					if err != nil {
						return t, err
					}
					row = append(row, est.GFLOPS)
				}
				t.Add(row...)
			}
		}
	}
	t.Note("paper: single core 1.3x (up to 1.9x) over OpenBLAS, 1.5x (up to 2.0x) over Eigen; " +
		"multi-core large-K layers (L7, L12, L17, L20) degrade for autoGEMM")
	return t, nil
}

// fig9Chips are the chips Fig 9 reports, in row order.
func fig9Chips() []*hw.Chip {
	return []*hw.Chip{hw.KP920(), hw.Graviton2(), hw.Altra(), hw.A64FX()}
}

// fig9Plan builds provider p's plan for one Fig 9 cell. §V-C: the TVM
// integration cannot split K across cores, so autoGEMM's multi-core
// plans are made with k_c pinned to K.
func fig9Plan(p baselines.Provider, chip *hw.Chip, s workload.Shape, cores int) (*core.Plan, error) {
	if cores == 1 || p.Name != "autoGEMM" {
		return p.Plan(chip, s.M, s.N, s.K)
	}
	opts := p.Configure(chip, s.M, s.N, s.K)
	opts.ForceKCisK = true
	return core.NewPlan(chip, s.M, s.N, s.K, opts)
}
