package compile_test

import (
	"cmp"
	"slices"
	"testing"

	"autogemm/internal/core"
	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
	"autogemm/internal/plan"
	"autogemm/internal/sim/compile"
	"autogemm/internal/tiling"
	"autogemm/internal/workload"
)

// TestLoweringCensus pins which lowering every generated kernel gets.
// Every 4-lane kernel must be a tile program, register tiles set up
// from C or zeros with no loose micro-op: each kernel of the sweep grid
// (gridSpecs), and each kernel of core.Produce's KP920 and Graviton2
// plans for the ResNet-50 and small-gemm shapes. Every kernel of the
// A64FX plans for those shapes, 16 lanes wide, must lower loose. So a
// generator change that silently fell back to loose micro-ops fails
// here. A plan's kernels are derived from its blocks as the executor
// calls them, and must be exactly the plan's KernelKeys.
func TestLoweringCensus(t *testing.T) {
	cache := mkernel.NewCache()
	tiles := 0
	for _, spec := range gridSpecs() {
		cp, err := cache.Compiled(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Key(), err)
		}
		if !compile.TileProgram(cp) {
			t.Fatalf("%s: lowered to loose micro-ops, not a tile program", cp.Name)
		}
		tiles++
	}
	t.Logf("grid: %d of %d kernels are tile programs", tiles, len(gridSpecs()))

	shapes := append(workload.ResNet50(), smallShapes()...)
	for _, chip := range []*hw.Chip{hw.KP920(), hw.Graviton2(), hw.A64FX()} {
		seen := map[mkernel.Key]bool{}
		for _, s := range shapes {
			rec, err := core.Produce(chip, s.M, s.N, s.K, core.AutoOptions(chip))
			if err != nil {
				t.Fatalf("%s %v: %v", chip.Name, s, err)
			}
			specs := planSpecs(rec, chip.Lanes)
			var keys []string
			for _, spec := range specs {
				keys = append(keys, string(spec.Key()))
			}
			if !slices.Equal(keys, rec.KernelKeys) {
				t.Fatalf("%s %v: derived kernels %v, plan names %v", chip.Name, s, keys, rec.KernelKeys)
			}
			for _, spec := range specs {
				if seen[spec.Key()] {
					continue
				}
				seen[spec.Key()] = true
				cp, err := cache.Compiled(spec)
				if err != nil {
					t.Fatalf("%s %v: %s: %v", chip.Name, s, spec.Key(), err)
				}
				if compile.TileProgram(cp) != (chip.Lanes == 4) {
					t.Fatalf("%s %v: %s: tile program %v on %d lanes", chip.Name, s, cp.Name, compile.TileProgram(cp), chip.Lanes)
				}
			}
		}
		t.Logf("%s: %d distinct kernels over %d shapes, tile programs %v", chip.Name, len(seen), len(shapes), chip.Lanes == 4)
	}
}

// planSpecs returns the distinct kernels rec's blocks call on a chip of
// lanes lanes, at every k-block depth, sorted by key.
func planSpecs(rec *plan.Plan, lanes int) []mkernel.Spec {
	depths := []int{min(rec.KC, rec.Request.K)}
	if r := rec.Request.K % rec.KC; rec.KC < rec.Request.K && r > 0 {
		depths = append(depths, r)
	}
	byKey := map[mkernel.Key]mkernel.Spec{}
	for _, blk := range rec.Blocks {
		for _, bd := range tiling.FromPlanBlock(blk).Bands(lanes) {
			for _, kb := range depths {
				for _, cl := range bd.Calls(kb, lanes, rec.Request.Rotate, rec.Request.Fuse) {
					byKey[cl.Spec.Key()] = cl.Spec
				}
			}
		}
	}
	specs := make([]mkernel.Spec, 0, len(byKey))
	for _, s := range byKey {
		specs = append(specs, s)
	}
	slices.SortFunc(specs, func(a, b mkernel.Spec) int { return cmp.Compare(a.Key(), b.Key()) })
	return specs
}

// smallShapes is the small-gemm workload's shape mix: the Fig 8 cubes
// from 8 to 80, the six Fig 7 sub-matrix blocks, and the paper's
// 26×36×20 running example.
func smallShapes() []workload.Shape {
	var out []workload.Shape
	for _, s := range workload.SmallSweep() {
		if s.M >= 8 && s.M <= 80 {
			out = append(out, s)
		}
	}
	out = append(out, workload.Fig7Blocks()...)
	return append(out, workload.Shape{M: 26, N: 36, K: 20})
}
