// Package tuner searches the algorithm parameter space of Table III —
// cache block shape (m_c, n_c, k_c) and packing mode σ_packing — for a
// given problem and chip, standing in for the paper's patched-TVM
// auto-tuning flow (§IV-C). It is a thin search over core.Produce: each
// candidate is planned once and scored by its plan's Eqn-13 ModelCycles,
// and only the plans within pruneRatio of the best score are evaluated
// on the cycle simulator. The loop order σ_order is not a parameter:
// every plan runs its block grid MNK. The paper reports that this pruning "drops
// the tuning time dramatically"; the Result records both counters so the
// effect is measurable (examples/tuning).
package tuner

import (
	"fmt"
	"math"
	"sort"

	"autogemm/internal/core"
	"autogemm/internal/hw"
	"autogemm/internal/plan"
)

// pruneRatio keeps the candidates whose model cost is within this factor
// of the best model cost.
const pruneRatio = 1.20

// Config controls a tuning run.
type Config struct {
	Chip    *hw.Chip
	M, N, K int

	// MaxEvals caps the simulator evaluations (0 = 24).
	MaxEvals int
	// UseModel prunes by the Eqn-13 model: candidates within pruneRatio
	// of the best model cost are simulated, cheapest first. With UseModel
	// false the search is blind — the unpatched-TVM comparison mode: no
	// candidate is scored, and the first MaxEvals candidates in
	// enumeration order are simulated, as a grid search would.
	UseModel bool
}

// Candidate is one point of the search space.
type Candidate struct {
	MC, NC, KC int
	Pack       core.PackMode
}

// Options converts the candidate into core options with the library's
// optimizations enabled.
func (c Candidate) Options() core.Options {
	return core.Options{
		MC: c.MC, NC: c.NC, KC: c.KC, Pack: c.Pack,
		Rotate: true, Fuse: true,
	}
}

// Record is one evaluated candidate.
type Record struct {
	Candidate Candidate
	ModelCost float64 // its plan's ModelCycles; 0 in a blind search
	Cycles    float64
	GFLOPS    float64
}

// Result summarizes a tuning run.
type Result struct {
	Best      Candidate
	Estimate  core.Estimate
	Records   []Record // evaluated candidates, best first
	Generated int      // candidates enumerated
	Pruned    int      // rejected by the model before simulation; 0 in a blind search
	Evaluated int      // simulator evaluations
}

// Tune searches the space and returns the best configuration found.
func Tune(cfg Config) (Result, error) {
	res, _, err := search(cfg)
	return res, err
}

// TunePlan runs Tune and returns the winner's plan, the one it scored
// and simulated, relabeled Source = "tuner", ready for an engine's plan
// cache or an on-disk registry: the tuner is a plan producer, the engine
// a plan consumer, and this function is the seam between them.
func TunePlan(cfg Config) (*plan.Plan, Result, error) {
	res, rec, err := search(cfg)
	if err != nil {
		return nil, res, err
	}
	return rec.WithSource(plan.SourceTuner), res, nil
}

// produced pairs a candidate with the plan core.Produce made of it.
type produced struct {
	c   Candidate
	rec *plan.Plan
}

// search plans the candidates, simulates the ones the mode selects and
// returns the result with the winner's plan.
func search(cfg Config) (Result, *plan.Plan, error) {
	if cfg.Chip == nil || cfg.M <= 0 || cfg.N <= 0 || cfg.K <= 0 {
		return Result{}, nil, fmt.Errorf("tuner: invalid problem")
	}
	if cfg.MaxEvals <= 0 {
		cfg.MaxEvals = 24
	}

	cands := enumerate(cfg)
	res := Result{Generated: len(cands)}

	// A candidate Produce refuses is dropped; a blind search plans only
	// as many as it will simulate.
	var keep []produced
	for _, c := range cands {
		if !cfg.UseModel && len(keep) == cfg.MaxEvals {
			break
		}
		rec, err := core.Produce(cfg.Chip, cfg.M, cfg.N, cfg.K, c.Options())
		if err != nil {
			continue
		}
		keep = append(keep, produced{c, rec})
	}
	if cfg.UseModel && len(keep) > 0 {
		sort.SliceStable(keep, func(i, j int) bool { return keep[i].rec.ModelCycles < keep[j].rec.ModelCycles })
		limit := keep[0].rec.ModelCycles * pruneRatio
		n := sort.Search(len(keep), func(i int) bool { return keep[i].rec.ModelCycles > limit })
		n = min(n, cfg.MaxEvals)
		res.Pruned = len(keep) - n
		keep = keep[:n]
	}

	bestCycles := math.Inf(1)
	var best *plan.Plan
	for _, pc := range keep {
		p, err := core.Attach(cfg.Chip, pc.rec, core.Options{TrustedPlan: true})
		if err != nil {
			continue
		}
		est, err := p.Estimate()
		if err != nil {
			continue
		}
		res.Evaluated++
		rec := Record{Candidate: pc.c, Cycles: est.Cycles, GFLOPS: est.GFLOPS}
		if cfg.UseModel {
			rec.ModelCost = pc.rec.ModelCycles
		}
		res.Records = append(res.Records, rec)
		if est.Cycles < bestCycles {
			bestCycles = est.Cycles
			best = pc.rec
			res.Best = pc.c
			res.Estimate = est
		}
	}
	if best == nil {
		return res, nil, fmt.Errorf("tuner: no evaluable candidates for %dx%dx%d", cfg.M, cfg.N, cfg.K)
	}
	sort.SliceStable(res.Records, func(i, j int) bool { return res.Records[i].Cycles < res.Records[j].Cycles })
	return res, best, nil
}

// enumerate builds the candidate grid: block extents from the divisor
// sets of M, N, K (the paper searches m_c | M etc.) and the three packing
// modes. Each dimension's sizes are distinct, so no candidate repeats.
func enumerate(cfg Config) []Candidate {
	lanes := cfg.Chip.Lanes
	mcs := blockSizes(cfg.M, 1, 256)
	ncs := blockSizes(cfg.N, lanes, 512)
	kcs := blockSizes(cfg.K, 1, 256)
	var out []Candidate
	for _, mc := range mcs {
		for _, nc := range ncs {
			for _, kc := range kcs {
				for _, pack := range []core.PackMode{core.PackNone, core.PackOnline, core.PackOffline} {
					out = append(out, Candidate{MC: mc, NC: nc, KC: kc, Pack: pack})
				}
			}
		}
	}
	return out
}

// blockSizes returns candidate block extents for a dimension: divisors
// (the paper's constraint n % n_c == 0), capped, quantized to min, plus
// the full extent.
func blockSizes(n, quantum, cap int) []int {
	seen := map[int]bool{}
	var out []int
	add := func(v int) {
		if v < quantum {
			v = quantum
		}
		v = v / quantum * quantum
		if v <= 0 || v > cap && v != n || seen[v] {
			return
		}
		seen[v] = true
		out = append(out, v)
	}
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			add(d)
			add(n / d)
		}
	}
	add(n)
	sort.Ints(out)
	// Keep the grid tractable: at most 8 sizes, spread across the range.
	if len(out) > 8 {
		step := float64(len(out)-1) / 7
		sel := make([]int, 0, 8)
		for i := 0; i < 8; i++ {
			sel = append(sel, out[int(math.Round(float64(i)*step))])
		}
		out = sel
	}
	return out
}
