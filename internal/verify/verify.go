// Package verify implements the paper's §V correctness process as a
// harness: "the correctness of our implementation has been verified
// against all other libraries we compare with by ensuring the relative
// error is less than 1e-6." Every provider (autoGEMM and the simulated
// baselines) runs each randomized problem functionally; results are
// cross-checked pairwise and against the reference GEMM. The harness is
// used by cmd/autogemm-verify and the differential tests.
package verify

import (
	"fmt"
	"math/rand"

	"autogemm/internal/baselines"
	"autogemm/internal/core"
	"autogemm/internal/hw"
	"autogemm/internal/refgemm"
)

// Case is one randomized problem instance.
type Case struct {
	M, N, K int
	Seed    uint64
}

// Failure records a provider disagreeing with the reference.
type Failure struct {
	Case     Case
	Provider string
	Chip     string
	RelErr   float64
	Err      error
}

// String implements fmt.Stringer.
func (f Failure) String() string {
	if f.Err != nil {
		return fmt.Sprintf("%s on %s at %dx%dx%d: %v",
			f.Provider, f.Chip, f.Case.M, f.Case.N, f.Case.K, f.Err)
	}
	return fmt.Sprintf("%s on %s at %dx%dx%d: rel err %.3g",
		f.Provider, f.Chip, f.Case.M, f.Case.N, f.Case.K, f.RelErr)
}

// Report summarizes a verification sweep.
type Report struct {
	Cases     int
	Checks    int // provider executions compared
	Failures  []Failure
	MaxRelErr float64
}

// Config controls a sweep.
type Config struct {
	Chip     *hw.Chip
	Cases    int   // number of randomized problems (0 = 25)
	MaxDim   int   // dimensions drawn from [1, MaxDim] (0 = 48)
	Seed     int64 // deterministic case generation
	Variants bool  // also sweep autoGEMM option variants per case
}

// Run executes the sweep.
func Run(cfg Config) (Report, error) {
	if cfg.Chip == nil {
		return Report{}, fmt.Errorf("verify: nil chip")
	}
	if cfg.Cases <= 0 {
		cfg.Cases = 25
	}
	if cfg.MaxDim <= 0 {
		cfg.MaxDim = 48
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var rep Report
	for i := 0; i < cfg.Cases; i++ {
		c := Case{
			M:    rng.Intn(cfg.MaxDim) + 1,
			N:    rng.Intn(cfg.MaxDim) + 1,
			K:    rng.Intn(cfg.MaxDim) + 1,
			Seed: uint64(rng.Int63()),
		}
		rep.Cases++
		if err := runCase(cfg, c, &rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// runCase checks every supported provider (and optional autoGEMM option
// variants) on one problem.
func runCase(cfg Config, c Case, rep *Report) error {
	a := make([]float32, c.M*c.K)
	b := make([]float32, c.K*c.N)
	c0 := make([]float32, c.M*c.N)
	refgemm.Fill(a, c.M, c.K, c.K, c.Seed)
	refgemm.Fill(b, c.K, c.N, c.N, c.Seed+1)
	refgemm.Fill(c0, c.M, c.N, c.N, c.Seed+2)
	want := make([]float32, c.M*c.N)
	copy(want, c0)
	refgemm.GEMM(c.M, c.N, c.K, a, c.K, b, c.N, want, c.N)

	check := func(name string, plan *core.Plan) {
		got := make([]float32, c.M*c.N)
		copy(got, c0)
		rep.Checks++
		if err := plan.Run(got, a, b); err != nil {
			rep.Failures = append(rep.Failures, Failure{Case: c, Provider: name, Chip: cfg.Chip.Name, Err: err})
			return
		}
		e := refgemm.MaxRelErr(got, want, c.M, c.N, c.N, c.N)
		if e > rep.MaxRelErr {
			rep.MaxRelErr = e
		}
		if e > refgemm.Tolerance {
			rep.Failures = append(rep.Failures, Failure{Case: c, Provider: name, Chip: cfg.Chip.Name, RelErr: e})
		}
	}

	for _, p := range append(baselines.All(), baselines.SSL2()) {
		if !p.Supports(cfg.Chip, c.M, c.N, c.K) {
			continue
		}
		plan, err := p.Plan(cfg.Chip, c.M, c.N, c.K)
		if err != nil {
			return fmt.Errorf("verify: %s plan: %w", p.Name, err)
		}
		check(p.Name, plan)
	}
	if cfg.Variants {
		variants := []core.Options{
			{Pack: core.PackNone, Rotate: true, Fuse: true},
			{Pack: core.PackOnline},
			{Pack: core.PackOffline, Rotate: true},
			{MC: 8, NC: 8, KC: 8, Pack: core.PackOnline, Fuse: true},
		}
		for vi, opts := range variants {
			plan, err := core.NewPlan(cfg.Chip, c.M, c.N, c.K, opts)
			if err != nil {
				return fmt.Errorf("verify: variant %d: %w", vi, err)
			}
			check(fmt.Sprintf("autoGEMM-v%d", vi), plan)
		}
	}
	return nil
}
