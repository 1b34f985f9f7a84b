// Package dnn is the minimal inference-framework substitute for
// Tencent's TNN used in the paper's Fig 12 end-to-end evaluation: conv
// and FC operators are lowered to GEMM and dispatched to a pluggable
// provider, while non-GEMM operators (pooling, activation, eltwise) have
// a fixed cost that is identical across providers — exactly the
// T_GEMM / T_other decomposition Fig 12 reports.
package dnn

import (
	"fmt"

	"autogemm/internal/baselines"
	"autogemm/internal/hw"
	"autogemm/internal/workload"
)

// Profile is the end-to-end timing decomposition of one model inference.
type Profile struct {
	Model        string
	Provider     string
	GEMMSeconds  float64
	OtherSeconds float64
}

// Total returns the end-to-end inference time.
func (p Profile) Total() float64 { return p.GEMMSeconds + p.OtherSeconds }

// Engine executes DNN models on a simulated chip through a GEMM provider.
type Engine struct {
	Chip  *hw.Chip
	Cores int

	refCache map[string]float64 // OpenBLAS reference time per model
}

// New builds an engine; cores <= 0 uses a single core (TNN's mobile
// default) and otherwise the given count.
func New(chip *hw.Chip, cores int) *Engine {
	if cores <= 0 {
		cores = 1
	}
	return &Engine{Chip: chip, Cores: cores, refCache: make(map[string]float64)}
}

// GEMMSeconds sums the provider's projected time over the model's
// conv/FC layers.
func (e *Engine) GEMMSeconds(model workload.DNNModel, p baselines.Provider) (float64, error) {
	total := 0.0
	for _, lg := range model.GEMMs {
		s := lg.Shape
		if !p.Supports(e.Chip, s.M, s.N, s.K) {
			return 0, fmt.Errorf("dnn: %s cannot run layer %s on %s", p.Name, s, e.Chip.Name)
		}
		plan, err := p.Plan(e.Chip, s.M, s.N, s.K)
		if err != nil {
			return 0, err
		}
		est, err := plan.EstimateAt(e.Cores)
		if err != nil {
			return 0, err
		}
		total += est.Seconds * float64(lg.Count)
	}
	return total, nil
}

// Run profiles one model with the given provider. The non-GEMM operator
// time is anchored to the OpenBLAS backend (Fig 12 normalizes to it and
// notes T_other is identical across backends): it is the model's
// OtherFrac share of the OpenBLAS-backend end-to-end time.
func (e *Engine) Run(model workload.DNNModel, p baselines.Provider) (Profile, error) {
	ref, ok := e.refCache[model.Name]
	if !ok {
		var err error
		ref, err = e.GEMMSeconds(model, baselines.OpenBLAS())
		if err != nil {
			return Profile{}, err
		}
		e.refCache[model.Name] = ref
	}
	other := ref * model.OtherFrac / (1 - model.OtherFrac)
	gemm, err := e.GEMMSeconds(model, p)
	if err != nil {
		return Profile{}, err
	}
	return Profile{Model: model.Name, Provider: p.Name, GEMMSeconds: gemm, OtherSeconds: other}, nil
}

// Speedup returns the end-to-end speedup of provider p over OpenBLAS on
// the model — the quantity Fig 12's bars encode.
func (e *Engine) Speedup(model workload.DNNModel, p baselines.Provider) (float64, error) {
	base, err := e.Run(model, baselines.OpenBLAS())
	if err != nil {
		return 0, err
	}
	with, err := e.Run(model, p)
	if err != nil {
		return 0, err
	}
	return base.Total() / with.Total(), nil
}
