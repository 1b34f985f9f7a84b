package experiments

import (
	"fmt"

	"autogemm/internal/cache"
	"autogemm/internal/core"
	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
	"autogemm/internal/sim"
)

// AblationWindow isolates the paper's §V-B trend 1 — "rotating register
// allocation improves KP920 ~3% but Graviton2 and M2 do not benefit due
// to a larger hardware out-of-order execution window" — by sweeping the
// out-of-order machinery of a fixed machine (scheduler depth and
// register renaming of WAR hazards) and measuring the rotation gain for
// the memory-bound 2×16 kernel, whose FMA→LOAD→FMA dependency is what
// rotation removes (Fig 3-b/d).
func AblationWindow() (Table, error) {
	t := Table{ID: "ablation-window",
		Title:  "Rotation gain vs out-of-order capability (2x16, kc=64)",
		Header: []string{"rename-WAR", "window", "basic-cycles", "rotated-cycles", "rotation-gain%"}}
	for _, rename := range []bool{false, true} {
		for _, window := range []int{24, 48, 96, 256} {
			chip := hw.Didactic()
			chip.Window = window
			chip.RenameWAR = rename
			basic, err := simulateKernel(chip, mkernel.Tile{MR: 2, NR: 16}, 64, false)
			if err != nil {
				return t, err
			}
			rot, err := simulateKernel(chip, mkernel.Tile{MR: 2, NR: 16}, 64, true)
			if err != nil {
				return t, err
			}
			t.Add(rename, window, basic, rot, 100*(float64(basic)/float64(rot)-1))
		}
	}
	t.Note("without renaming (KP920-like) rotation removes the WAR bubbles; " +
		"with renaming and a deep window (Graviton2/M2-like) hardware already hides them")
	return t, nil
}

// AblationPrefetch measures the in-kernel L2 prefetch hints (§V-C) on a
// cold cache hierarchy: the same kernel with and without PRFM emission,
// timed with the cache simulator active rather than a fixed latency.
func AblationPrefetch() (Table, error) {
	t := Table{ID: "ablation-prefetch",
		Title:  "In-kernel prefetch on cold caches (5x16, kc=64)",
		Header: []string{"chip", "no-prfm-cycles", "prfm-cycles", "gain%"}}
	for _, chip := range []*hw.Chip{hw.KP920(), hw.Graviton2()} {
		var cycles [2]int64
		for i, prefetch := range []bool{false, true} {
			tile := mkernel.Tile{MR: 5, NR: 16}
			kc := 64
			prog, err := mkernel.Generate(mkernel.Config{
				Tile: tile, KC: kc, Lanes: chip.Lanes,
				Rotate: true, LoadC: true, Prefetch: prefetch,
			})
			if err != nil {
				return t, err
			}
			model := sim.NewModel(chip) // cache hierarchy active, cold
			res, err := model.TimeKernel(prog, tile.MR, tile.NR, kc)
			if err != nil {
				return t, err
			}
			cycles[i] = res.Cycles
		}
		t.Add(chip.Name, cycles[0], cycles[1], 100*(float64(cycles[0])/float64(cycles[1])-1))
	}
	t.Note("prefetch hints warm lines before the demand loads; blocking (not prefetch) provides L1 residency, as §V-C states")
	return t, nil
}

// AblationDMTCandidates compares DMT restricted to the four preferred
// tiles against DMT over the full generatable tile space, quantifying
// what the corner-case shapes of Table II contribute.
func AblationDMTCandidates() (Table, error) {
	chip := hw.KP920()
	t := Table{ID: "ablation-dmt",
		Title:  "DMT tile-candidate ablation (KP920, GFLOPS)",
		Header: []string{"MxNxK", "preferred-only", "full-space", "full/preferred"}}
	shapes := []struct{ m, n, k int }{{26, 36, 20}, {26, 64, 64}, {23, 52, 64}, {61, 77, 33}}
	for _, s := range shapes {
		var gf [2]float64
		for i, restrict := range []bool{true, false} {
			opts := core.AutoOptions(chip)
			if restrict {
				opts.DMTCandidates = mkernel.PreferredTiles(chip.Lanes)
			}
			plan, err := core.NewPlan(chip, s.m, s.n, s.k, opts)
			if err != nil {
				return t, err
			}
			est, err := plan.Estimate()
			if err != nil {
				return t, err
			}
			gf[i] = est.GFLOPS
		}
		t.Add(fmt.Sprintf("%dx%dx%d", s.m, s.n, s.k), gf[0], gf[1], gf[1]/gf[0])
	}
	t.Note("the corner-case tiles exist to cover edges; the preferred shapes do the bulk of the work")
	return t, nil
}

// AblationResidency shows the load-latency mechanism behind the Fig 6
// KP920 cliff directly: one band kernel timed at each cache level's
// latency.
func AblationResidency() (Table, error) {
	chip := hw.KP920()
	hier := cache.NewHierarchy(chip)
	t := Table{ID: "ablation-residency",
		Title:  "Band kernel cycles vs panel residency level (KP920, 5x16 x4, kc=64)",
		Header: []string{"level", "load-latency", "cycles", "efficiency%"}}
	cfg := mkernel.BandConfig{
		Segments: []mkernel.Segment{{Tile: mkernel.Tile{MR: 5, NR: 16}, Count: 4}},
		KC:       64, Lanes: chip.Lanes, Rotate: true, Fuse: true, LoadC: true,
	}
	prog, err := mkernel.GenerateBand(cfg)
	if err != nil {
		return t, err
	}
	names := []string{"L1", "L2", "L3", "DRAM"}
	for lvl := 0; lvl <= 3; lvl++ {
		lat := hier.LatencyOfLevel(lvl)
		model := &sim.Model{Chip: chip, AssumeLoadLat: lat}
		res, err := model.TimeKernel(prog, 5, 64, 64)
		if err != nil {
			return t, err
		}
		flops := 2.0 * 5 * 64 * 64
		eff := flops / (float64(res.Cycles) * float64(chip.FMAPorts*chip.Lanes) * 2)
		t.Add(names[lvl], lat, res.Cycles, eff*100)
	}
	t.Note("the K=256/N=64 cliff of Fig 6 is this row moving from L1 to L2")
	return t, nil
}
