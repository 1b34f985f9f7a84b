package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{
		"ablation-dmt", "ablation-prefetch", "ablation-residency", "ablation-window",
		"fig10", "fig11", "fig11-replay", "fig12", "fig2", "fig3", "fig4", "fig5",
		"fig6", "fig7", "fig8", "fig9", "large-square", "pack-kernels", "qos-replay", "sve-edge",
		"table1", "table2", "table3", "table4", "table5",
	}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(ids), len(want), ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("registry[%d] = %s, want %s", i, ids[i], id)
		}
	}
}

// TestAblationWindow: rotation pays only on machines without WAR
// renaming (the paper's trend 1 mechanism).
func TestAblationWindow(t *testing.T) {
	tbl, err := AblationWindow()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		gain := parseF(t, row[4])
		if row[0] == "false" && gain < 10 {
			t.Errorf("no-rename window %s: rotation gain %.1f%%, want substantial", row[1], gain)
		}
		if row[0] == "true" && gain > 5 {
			t.Errorf("renamed window %s: rotation gain %.1f%%, want ~0", row[1], gain)
		}
	}
}

// TestAblationPrefetch: prefetch helps on cold caches, everywhere.
func TestAblationPrefetch(t *testing.T) {
	tbl, err := AblationPrefetch()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if gain := parseF(t, row[3]); gain <= 0 {
			t.Errorf("%s: prefetch gain %.1f%%", row[0], gain)
		}
	}
}

// TestAblationResidency: efficiency degrades monotonically as the panel
// moves out through the hierarchy — the cliff mechanism.
func TestAblationResidency(t *testing.T) {
	tbl, err := AblationResidency()
	if err != nil {
		t.Fatal(err)
	}
	prev := 101.0
	for _, row := range tbl.Rows {
		eff := parseF(t, row[3])
		if eff >= prev {
			t.Errorf("residency %s: efficiency %.1f not below previous %.1f", row[0], eff, prev)
		}
		prev = eff
	}
	first := parseF(t, tbl.Rows[0][3])
	last := parseF(t, tbl.Rows[len(tbl.Rows)-1][3])
	if first < 80 || last > 15 {
		t.Errorf("residency extremes off: L1 %.1f%%, DRAM %.1f%%", first, last)
	}
}

// TestAblationDMTCandidates: the full tile space never loses to the
// restricted preferred set by more than noise.
func TestAblationDMTCandidates(t *testing.T) {
	tbl, err := AblationDMTCandidates()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if ratio := parseF(t, row[3]); ratio < 0.98 {
			t.Errorf("%s: full space %.2fx worse than preferred-only", row[0], ratio)
		}
	}
}

func TestTableIIStructure(t *testing.T) {
	tbl := TableII()
	if len(tbl.Rows) != 7 {
		t.Fatalf("Table II rows = %d, want 7 (mr 2..8)", len(tbl.Rows))
	}
	// Spot-check paper values: (5,16)=7.62, (8,8)=8.00, (2,4)=2.67.
	find := func(mr int, col int) string { return tbl.Rows[mr-2][col] }
	if got := find(5, 4); !strings.HasPrefix(got, "7.62") {
		t.Errorf("AI(5,16) = %s, want 7.62", got)
	}
	if got := find(8, 2); !strings.HasPrefix(got, "8.00") {
		t.Errorf("AI(8,8) = %s, want 8.00", got)
	}
	if got := find(2, 1); !strings.HasPrefix(got, "2.67") {
		t.Errorf("AI(2,4) = %s, want 2.67", got)
	}
	// Infeasible corners are dashes.
	if got := find(8, 3); got != "-" {
		t.Errorf("AI(8,12) = %s, want - (infeasible)", got)
	}
}

func TestFig2Monotone(t *testing.T) {
	tbl := Fig2()
	// AI grows with kc for each tile column and is bounded by AImax.
	for col := 1; col <= 4; col++ {
		prev := 0.0
		for _, row := range tbl.Rows {
			v := parseF(t, row[col])
			if v < prev {
				t.Errorf("Fig2 column %d not monotone", col)
			}
			prev = v
		}
	}
}

func TestFig3ModelMatchesSim(t *testing.T) {
	tbl, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		ratio := parseF(t, row[5])
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("Fig3 %v: model/sim ratio %.2f out of band", row, ratio)
		}
	}
}

func TestFig4FusionSaves(t *testing.T) {
	tbl := Fig4()
	if len(tbl.Rows) != 4 {
		t.Fatalf("Fig4 needs 4 fusion modes, got %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if saving := parseF(t, row[3]); saving <= 0 {
			t.Errorf("fusion mode %s saves nothing (%.1f%%)", row[0], saving)
		}
	}
}

func TestFig5Counts(t *testing.T) {
	tbl, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]float64{}
	lowAI := map[string]float64{}
	for _, row := range tbl.Rows {
		counts[row[0]] = parseF(t, row[1])
		lowAI[row[0]] = parseF(t, row[2])
	}
	if counts["openblas-pad"] != 18 || counts["libxsmm-edge"] != 18 {
		t.Errorf("static strategies should use 18 tiles: %v", counts)
	}
	if lowAI["libxsmm-edge"] != 8 {
		t.Errorf("LIBXSMM-style low-AI tiles = %v, want 8", lowAI["libxsmm-edge"])
	}
	if counts["dmt"] >= 18 {
		t.Errorf("DMT should use fewer than 18 tiles, got %v", counts["dmt"])
	}
	if lowAI["dmt"] > 2 {
		t.Errorf("DMT low-AI tiles = %v, want <= 2", lowAI["dmt"])
	}
}

func TestFig6StepwiseGains(t *testing.T) {
	tbl, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	var kp920CliffSmall, kp920CliffBig float64
	for _, row := range tbl.Rows {
		basic, rot, full := parseF(t, row[2]), parseF(t, row[3]), parseF(t, row[4])
		if full < basic-1 {
			t.Errorf("%s %s: optimizations regressed %.1f -> %.1f", row[0], row[1], basic, full)
		}
		if row[0] == "KP920" {
			if strings.Contains(row[1], "x64x4)") || row[1] == "64x64x4" {
				gain := parseF(t, row[5])
				if gain < 5 {
					t.Errorf("KP920 K=4 fusion gain %.1f%%, paper reports ~17%%", gain)
				}
			}
			if row[1] == "64x64x64" {
				kp920CliffSmall = full
			}
			if row[1] == "64x64x256" {
				kp920CliffBig = full
			}
		}
		_ = rot
	}
	if kp920CliffBig >= kp920CliffSmall {
		t.Errorf("KP920 L1 cliff missing: K=64 %.1f%% vs K=256 %.1f%%", kp920CliffSmall, kp920CliffBig)
	}
}

func TestFig11ParallelEfficiency(t *testing.T) {
	tbl, err := Fig11()
	if err != nil {
		t.Fatal(err)
	}
	// Last row per chip is the full socket; compare to the paper's bands.
	want := map[string][2]float64{
		"KP920":     {90, 101},
		"Graviton2": {90, 101},
		"Altra":     {70, 95},
		"M2":        {85, 101},
		"A64FX":     {18, 45},
	}
	last := map[string]float64{}
	for _, row := range tbl.Rows {
		last[row[0]] = parseF(t, row[4])
	}
	for chip, band := range want {
		eff, ok := last[chip]
		if !ok {
			t.Fatalf("no scaling rows for %s", chip)
		}
		if eff < band[0] || eff > band[1] {
			t.Errorf("%s full-socket parallel efficiency %.1f%% outside [%g, %g]", chip, eff, band[0], band[1])
		}
	}
}

func TestFig12Speedups(t *testing.T) {
	tbl, err := Fig12()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[2] != "autoGEMM" {
			continue
		}
		speedup := parseF(t, row[6])
		lo, hi := 1.02, 2.2
		if row[0] == "Graviton2" {
			lo, hi = 1.0, 1.8
		}
		if speedup < lo || speedup > hi {
			t.Errorf("%s/%s end-to-end speedup %.2fx outside [%g, %g]", row[0], row[1], speedup, lo, hi)
		}
	}
}

func TestTableIOrdering(t *testing.T) {
	tbl, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	small := map[string]float64{}
	for _, row := range tbl.Rows {
		if row[1] != "N/A" {
			small[row[0]] = parseF(t, row[1])
		}
	}
	if !(small["OpenBLAS"] < small["Eigen"] && small["Eigen"] < small["TVM"] &&
		small["TVM"] < small["autoGEMM"]) {
		t.Errorf("Table I small-GEMM ordering broken: %v", small)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := TableII()
	out := tbl.String()
	if !strings.Contains(out, "table2") || !strings.Contains(out, "7.62") {
		t.Errorf("table rendering broken:\n%s", out)
	}
}

// Heavier sweeps run only outside -short.

func TestFig7DMTWins(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	tbl, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		dmtSpeedup := parseF(t, row[5])
		if dmtSpeedup < 0.97 {
			t.Errorf("%s %s: DMT %.2fx slower than best static", row[0], row[1], dmtSpeedup)
		}
		if row[1] == "80x32x64" || row[1] == "25x64x64" {
			if dmtSpeedup > 1.12 {
				t.Errorf("%s %s: divisible block should show ~no DMT gain, got %.2fx", row[0], row[1], dmtSpeedup)
			}
		}
	}
}

func TestFig9AutoGEMMLeads(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	tbl, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	worse := 0
	total := 0
	for _, row := range tbl.Rows {
		if row[1] != "1" { // single-core rows only
			continue
		}
		auto := parseF(t, row[7])
		for _, col := range []int{3, 4} { // OpenBLAS, Eigen
			if row[col] == "-" {
				continue
			}
			total++
			if v := parseF(t, row[col]); v >= auto {
				worse++
			}
		}
	}
	if total == 0 {
		t.Fatal("no comparable rows")
	}
	if frac := float64(worse) / float64(total); frac > 0.05 {
		t.Errorf("autoGEMM loses to OpenBLAS/Eigen on %.0f%% of single-core layers", frac*100)
	}
}

func TestFig10Bounds(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	tbl, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		gf, attain := parseF(t, row[4]), parseF(t, row[5])
		if gf > attain*1.05 {
			t.Errorf("%s %s: measured %.1f exceeds roofline %.1f", row[0], row[1], gf, attain)
		}
	}
}

func TestFig8Sweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	tbl, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5*14 {
		t.Fatalf("Fig8 rows = %d, want %d", len(tbl.Rows), 5*14)
	}
	// autoGEMM (last column) never trails every baseline on any row.
	for _, row := range tbl.Rows {
		auto := parseF(t, row[len(row)-1])
		bestOther := 0.0
		for _, c := range row[2 : len(row)-1] {
			if c == "-" {
				continue
			}
			if v := parseF(t, c); v > bestOther {
				bestOther = v
			}
		}
		if auto < bestOther*0.95 {
			t.Errorf("%s size %s: autoGEMM %.1f GF/s more than 5%% behind best baseline %.1f",
				row[0], row[1], auto, bestOther)
		}
	}
}

// TestSVEEdge: predicated edge kernels stay within a few percent of the
// padded ones (whole-vector FMLA dominates both) while removing all
// padding requirements.
func TestSVEEdge(t *testing.T) {
	tbl, err := SVEEdge()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		ratio := parseF(t, row[3])
		if ratio < 0.80 || ratio > 1.15 {
			t.Errorf("%s: padded/predicated cycle ratio %.2f outside the comparable band", row[0], ratio)
		}
	}
}

// TestTableCSV: CSV export quotes and escapes correctly.
func TestTableCSV(t *testing.T) {
	tbl := Table{Header: []string{"a", "b"}, Rows: [][]string{{"1,2", `say "hi"`}}}
	got := tbl.CSV()
	want := "a,b\n\"1,2\",\"say \"\"hi\"\"\"\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

// TestLargeSquareConvergence: the autoGEMM/OpenBLAS ratio shrinks with
// size — the small-GEMM advantages amortize away.
func TestLargeSquareConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	tbl, err := LargeSquare()
	if err != nil {
		t.Fatal(err)
	}
	first := parseF(t, tbl.Rows[0][4])
	last := parseF(t, tbl.Rows[len(tbl.Rows)-1][4])
	if last >= first {
		t.Errorf("advantage did not shrink: %.2fx at %s -> %.2fx at %s",
			first, tbl.Rows[0][0], last, tbl.Rows[len(tbl.Rows)-1][0])
	}
	if last < 0.9 {
		t.Errorf("autoGEMM fell behind on large square GEMM: %.2fx", last)
	}
}

// TestDescriptiveTables: Tables III-V regenerate from the code and carry
// the published values.
func TestDescriptiveTables(t *testing.T) {
	t3 := TableIII()
	if len(t3.Rows) != 5 {
		t.Errorf("Table III rows = %d", len(t3.Rows))
	}
	t4 := TableIV()
	found := false
	for _, row := range t4.Rows {
		if row[0] == "A64FX" && row[6] == "SVE(512)" && row[7] == "Supercomputer" {
			found = true
		}
	}
	if !found {
		t.Errorf("Table IV missing the A64FX row: %v", t4.Rows)
	}
	t5 := TableV()
	if len(t5.Rows) != 20 {
		t.Fatalf("Table V rows = %d, want 20", len(t5.Rows))
	}
	for _, row := range t5.Rows {
		if row[0] == "L1" {
			if row[1] != "64" || row[2] != "12544" || row[3] != "147" {
				t.Errorf("L1 row wrong: %v", row)
			}
			if !strings.Contains(row[5], "7x7/2") {
				t.Errorf("L1 conv provenance missing: %v", row)
			}
		}
	}
}

// TestPackKernelsAgree: simulated packing cycles track the analytic
// copy-cost model within a band.
func TestPackKernelsAgree(t *testing.T) {
	tbl, err := PackKernels()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		ratio := parseF(t, row[4])
		if ratio < 0.6 || ratio > 2.5 {
			t.Errorf("%s %s: sim/analytic ratio %.2f out of band", row[0], row[1], ratio)
		}
	}
}
