package experiments

import (
	"fmt"

	"autogemm/internal/hw"
	"autogemm/internal/perfmodel"
	"autogemm/internal/workload"
)

// TableIII prints the performance-model parameter inventory (algorithm
// and hardware parameters) as instantiated for each chip.
func TableIII() Table {
	t := Table{ID: "table3", Title: "Performance model parameters (Table III) per chip",
		Header: []string{"chip", "σ_lane", "σ_AI", "IPC_fma", "IPC_load", "IPC_store",
			"L_fma", "L_load", "L_store", "T_launch"}}
	for _, chip := range hw.All() {
		p := perfmodel.FromChip(chip)
		t.Add(chip.Name, p.Lanes, p.SigmaAI, p.IPCFMA, p.IPCLoad, p.IPCStore,
			p.LFMA, p.LLoad, p.LStore, p.Launch)
	}
	t.Note("algorithm parameters (M,N,K; lda/ldb/ldc; m_c,n_c,k_c; m_r,n_r; σ_packing) are per-plan, σ_order is fixed at MNK — see cmd/autogemm-tune -explain")
	return t
}

// TableIV prints the hardware specification table of the evaluation.
func TableIV() Table {
	t := Table{ID: "table4", Title: "Hardware specifications (Table IV)",
		Header: []string{"chip", "cores", "GHz", "L1d/core", "L2", "L3", "SIMD", "type"}}
	kind := map[string]string{
		"KP920": "SoC", "Graviton2": "Datacenter", "Altra": "Datacenter",
		"M2": "Consumer", "A64FX": "Supercomputer",
	}
	for _, chip := range hw.All() {
		simd := fmt.Sprintf("NEON(%d)", chip.Lanes*32)
		if chip.SVE {
			simd = fmt.Sprintf("SVE(%d)", chip.Lanes*32)
		}
		l3 := "None"
		if chip.L3.Exists() {
			l3 = fmt.Sprintf("%dM-share", chip.L3.SizeBytes>>20)
		}
		t.Add(chip.Name, chip.Cores, chip.FreqGHz,
			fmt.Sprintf("%dK", chip.L1D.SizeBytes>>10),
			fmt.Sprintf("%dK", chip.L2.SizeBytes>>10), l3, simd, kind[chip.Name])
	}
	return t
}

// TableV prints the ResNet-50 GEMM shapes with their im2col provenance
// where the convolution parameters are recorded.
func TableV() Table {
	t := Table{ID: "table5", Title: "Irregular GEMM shapes from ResNet-50 (Table V)",
		Header: []string{"layer", "M", "N", "K", "class", "conv provenance"}}
	convs := map[string]workload.Conv2D{}
	for _, c := range workload.ResNet50Convs() {
		convs[c.Name] = c
	}
	classes := map[workload.Kind]string{
		workload.Small: "small", workload.TallSkinny: "tall-skinny",
		workload.LongRectangular: "long-rectangular", workload.Regular: "regular",
	}
	for _, s := range workload.ResNet50() {
		prov := "-"
		if c, ok := convs[s.Name]; ok {
			prov = fmt.Sprintf("%dx%d/%d, %d->%d ch on %dx%d",
				c.KH, c.KW, c.StrideH, c.InC, c.OutC, c.InH, c.InW)
		}
		t.Add(s.Name, s.M, s.N, s.K, classes[s.Classify()], prov)
	}
	return t
}
