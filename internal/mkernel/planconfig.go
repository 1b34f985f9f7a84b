package mkernel

// This file defines the canonical kernel configurations an execution
// plan addresses. A plan records kernel cache keys (Config.Key /
// BandConfig.Key strings); the planner enumerates them, the executor
// requests them, and the plan auditor re-derives them from the plan's
// tilings to prove a loaded plan only names kernels this library can
// actually generate. All three construct configurations through these
// two functions, so plan keys and cache keys cannot drift apart.

// PlanKernelConfig builds the single-tile kernel configuration a plan
// executes for one tile at a given k-chunk depth.
func PlanKernelConfig(t Tile, kb, lanes int, rotate bool) Config {
	return Config{
		Tile: t, KC: kb, Lanes: lanes,
		Rotate: rotate, LoadC: true,
	}
}

// PlanBandConfig builds the fused band-kernel configuration a plan
// executes for a band at a given k-chunk depth.
func PlanBandConfig(segs []Segment, kb, lanes int, rotate bool) BandConfig {
	return BandConfig{
		Segments: segs, KC: kb, Lanes: lanes,
		Rotate: rotate, Fuse: true, LoadC: true,
	}
}
