package mkernel

import (
	"autogemm/internal/asm"
	"autogemm/internal/asm/analysis"
)

// This file is the bridge between the generators and the dataflow
// analyzer in internal/asm/analysis. Each generator runs the analyzer as
// a gate right after structural validation: a kernel with findings is a
// generator bug, not a warning, and is never returned. The gate's
// report is also the proof the compiled form is lowered from (kcache.go
// keeps it in the cache entry), so a cached kernel is analyzed exactly
// once. The AnalysisOptions methods expose the same contracts, so tests
// can re-analyze an emitted kernel (or a deliberately corrupted copy of
// it).

// AnalysisOptions returns the analyzer contract for this kernel variant:
// the rotation scheme newGen will choose for it and the panel bounds of
// the standard over-read contract (one vector past an A row, two rows
// past the B panel, exact C).
func (c Config) AnalysisOptions() (analysis.Options, error) {
	g, err := newGen(c)
	if err != nil {
		return analysis.Options{}, err
	}
	opts := analysis.Options{
		Bounds: &analysis.Bounds{
			MR: c.Tile.MR, NR: c.Tile.NR, KC: c.KC, Lanes: c.Lanes,
			AOverVectors: 1, BOverRows: 2,
		},
	}
	if c.Rotate {
		opts.Rotation = &analysis.RotationHint{ARows: g.rotA, BDouble: g.rotB}
	}
	return opts, nil
}

// AnalysisOptions returns the analyzer contract for a band kernel. The
// bounds cover the full band width; the rotation hint is only available
// when every tile shares one shape (mixed-shape bands switch register
// layouts between tiles, so there is no single scheme to verify).
func (c BandConfig) AnalysisOptions() (analysis.Options, error) {
	mr, err := c.MR()
	if err != nil {
		return analysis.Options{}, err
	}
	opts := analysis.Options{
		Bounds: &analysis.Bounds{
			MR: mr, NR: c.Width(), KC: c.KC, Lanes: c.Lanes,
			AOverVectors: 1, BOverRows: 2,
		},
	}
	uniform := true
	for _, s := range c.Segments {
		if s.Tile != c.Segments[0].Tile {
			uniform = false
		}
	}
	if c.Rotate && uniform {
		g, err := newGen(Config{
			Tile: c.Segments[0].Tile, KC: c.KC, Lanes: c.Lanes,
			Rotate: true, LoadC: c.LoadC,
		})
		if err != nil {
			return analysis.Options{}, err
		}
		opts.Rotation = &analysis.RotationHint{ARows: g.rotA, BDouble: g.rotB}
	}
	return opts, nil
}

// AnalysisOptions returns the analyzer contract for a predicated SVE
// kernel: exact bounds, zero over-read slack on every panel.
func (c PredConfig) AnalysisOptions() analysis.Options {
	return analysis.Options{
		Bounds: &analysis.Bounds{
			MR: c.Tile.MR, NR: c.Tile.NR, KC: c.KC, Lanes: c.Lanes,
		},
	}
}

// AnalysisOptions returns the analyzer contract for a packing kernel.
// Pack kernels use the copy ABI (x0=src, x1=dst), which the GEMM panel
// model does not describe, so only the generic dataflow checks apply.
func (c PackConfig) AnalysisOptions() analysis.Options {
	return analysis.Options{}
}

// analyzeHook, when set (tests only), observes every analyzer run the
// gate makes, by kernel name.
var analyzeHook func(name string)

// analyzeGate runs the analyzer and converts findings into a hard error.
// On success it returns the clean report.
func analyzeGate(p *asm.Program, opts analysis.Options) (*analysis.Report, error) {
	if analyzeHook != nil {
		analyzeHook(p.Name)
	}
	rep, err := analysis.Analyze(p, opts)
	if err != nil {
		return nil, err
	}
	if err := rep.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}
