package autogemm

import (
	"slices"
	"testing"

	"autogemm/internal/workload"
)

// TestEngineKernelCacheMatchesPlans holds the engine's one kernel cache
// to the plans it serves: once every plan has run, the cache holds
// exactly the union of the plans' KernelKeys — the executor requested
// no kernel the planner did not name, and reached every kernel it did.
// Plans of one engine share their kernels: the 20 ResNet-50 plans on
// KP920 name 16 distinct kernels between them, and the cache holds each
// once.
func TestEngineKernelCacheMatchesPlans(t *testing.T) {
	var resnet [][3]int
	var maxA, maxB int
	for _, s := range workload.ResNet50() {
		resnet = append(resnet, [3]int{s.M, s.N, s.K})
		maxA, maxB = max(maxA, s.M*s.K), max(maxB, s.K*s.N)
	}
	irregular := [][3]int{{7, 33, 19}, {45, 100, 64}, {3, 250, 17}, {129, 61, 200}, {1, 1, 1}}
	// Fusion decides between band and single-tile kernels; packing
	// decides the residency latency each block is tiled at. The large
	// ResNet-50 shapes run fused and unfused, the small irregular ones
	// under every variant.
	noFuse := &Options{NoFuse: true}
	variants := []*Options{
		nil,
		noFuse,
		{Pack: "none"},
		{Pack: "online"},
		{NoFuse: true, Pack: "none"},
		{NoFuse: true, Pack: "online"},
	}
	// The operands are read-only, so every GEMM of a batch shares them.
	a := make([]float32, maxA)
	b := make([]float32, maxB)
	for _, chip := range []string{"KP920", "A64FX"} {
		t.Run(chip, func(t *testing.T) {
			eng, err := New(chip, WithPlanMode(PlanModeFull))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			named := map[string]bool{}
			// run plans every shape under opts, then runs them all once
			// as one batch.
			run := func(opts *Options, shapes [][3]int) {
				t.Helper()
				batch := make([]GEMM, len(shapes))
				for i, s := range shapes {
					m, n, k := s[0], s[1], s[2]
					p, err := eng.PlanFor(opts, m, n, k)
					if err != nil {
						t.Fatalf("%v: %v", s, err)
					}
					for _, key := range p.p.Recipe.KernelKeys {
						named[key] = true
					}
					batch[i] = GEMM{C: make([]float32, m*n), A: a[:m*k], B: b[:k*n],
						M: m, N: n, K: k, Opts: opts}
				}
				if err := eng.MultiplyBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			check := func(stage string) {
				t.Helper()
				var got, want []string
				for _, key := range eng.kernels.Keys() {
					got = append(got, string(key))
				}
				for key := range named {
					want = append(want, key)
				}
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: engine cache holds %d kernels, plans name %d:\ncache %v\nplans %v",
						stage, len(got), len(want), got, want)
				}
			}

			// The ResNet-50 shapes take minutes under the race detector;
			// the irregular ones still race the shared cache there.
			if !raceEnabled {
				run(nil, resnet)
				check("ResNet-50")
				if n := eng.kernels.Size(); chip == "KP920" && n != 16 {
					t.Errorf("ResNet-50 on KP920: engine cache holds %d kernels, want 16", n)
				}
				run(noFuse, resnet)
			}
			for _, opts := range variants {
				run(opts, irregular)
			}
			check("all variants")
			t.Logf("%d kernels across %d plans", eng.kernels.Size(), eng.CachedPlans())
		})
	}
}
