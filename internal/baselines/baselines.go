// Package baselines models the comparison libraries of the paper's
// evaluation (§V, Table I): OpenBLAS, Eigen, LibShalom, FastConv,
// LIBXSMM, a generic TVM schedule, and Fujitsu SSL2. Each provider is a
// configuration of the same execution engine (package core) expressing
// that library's documented strategy — tiling style, packing policy,
// pipeline quality and dispatch overhead — so the comparisons measure
// strategy differences on identical simulated hardware, the quantity the
// paper's figures are about.
package baselines

import (
	"fmt"

	"autogemm/internal/core"
	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
	"autogemm/internal/tiling"
)

// Provider is a GEMM implementation that can be planned on a chip.
type Provider struct {
	Name string
	// Supports reports whether the library can run the problem on the
	// chip (LibShalom needs N and K divisible by 8 and no SVE; SSL2 is
	// A64FX-only).
	Supports func(chip *hw.Chip, m, n, k int) bool
	// Configure returns the library's options for a problem.
	Configure func(chip *hw.Chip, m, n, k int) core.Options
}

// Plan builds the provider's execution plan for a problem.
func (p Provider) Plan(chip *hw.Chip, m, n, k int) (*core.Plan, error) {
	if p.Supports != nil && !p.Supports(chip, m, n, k) {
		return nil, fmt.Errorf("baselines: %s does not support %dx%dx%d on %s", p.Name, m, n, k, chip.Name)
	}
	return core.NewPlan(chip, m, n, k, p.Configure(chip, m, n, k))
}

// Estimate is a convenience: plan and project in one step.
func (p Provider) Estimate(chip *hw.Chip, m, n, k int) (core.Estimate, error) {
	plan, err := p.Plan(chip, m, n, k)
	if err != nil {
		return core.Estimate{}, err
	}
	return plan.Estimate()
}

func anyProblem(*hw.Chip, int, int, int) bool { return true }

// AutoGEMM is this library with its default configuration (rotation,
// fusion, DMT tiling, automatic packing and blocking).
func AutoGEMM() Provider {
	return Provider{
		Name:     "autoGEMM",
		Supports: anyProblem,
		Configure: func(chip *hw.Chip, m, n, k int) core.Options {
			opts := core.AutoOptions(chip)
			if n >= 2048 {
				// §V-C: autoGEMM can enable offline packing of B for
				// near-peak performance on wide irregular shapes.
				opts.Pack = core.PackOffline
			}
			return opts
		},
	}
}

// OpenBLAS models the classic hand-tuned library: one fixed kernel shape
// with padded edges, unconditional packing, blocking tuned for large
// matrices, and a heavyweight dispatch path — the reasons the paper
// measures it at ~35% on 64³ yet competitive on large square GEMM.
func OpenBLAS() Provider {
	return Provider{
		Name:     "OpenBLAS",
		Supports: anyProblem,
		Configure: func(chip *hw.Chip, m, n, k int) core.Options {
			return core.Options{
				Strategy: core.PaddedStrategy(chip),
				Pack:     core.PackOnline,
				Rotate:   true,  // hand-written kernels pipeline well...
				Fuse:     false, // ...but tiles launch independently
				// Blocking tuned for large square GEMM: the fixed panel
				// sizes keep B in L2 (hand-written prefetch covers that),
				// but never down in L1 the way the retuned kernels manage.
				MC:           128,
				KC:           min(k, 128),
				NC:           min(n, 512),
				CallOverhead: 48000,
			}
		},
	}
}

// Eigen models the expression-template library: compiler-scheduled
// kernels (no hand pipelining), a smaller register tile, packing always.
func Eigen() Provider {
	return Provider{
		Name:     "Eigen",
		Supports: anyProblem,
		Configure: func(chip *hw.Chip, m, n, k int) core.Options {
			return core.Options{
				Strategy: tiling.LIBXSMMStyle{
					T: mkernel.Tile{MR: 4, NR: 2 * chip.Lanes}, Lanes: chip.Lanes},
				Pack:         core.PackOnline,
				Rotate:       false,
				Fuse:         false,
				CallOverhead: 6000,
			}
		},
	}
}

// LibShalom models the state-of-the-art hand-optimized irregular-GEMM
// library: rotation and fusion, offline packing of B for large inputs,
// but a single static main tile — and the documented restriction that it
// computes correctly only when N and K are divisible by 8, with no SVE
// port (§V-C: not evaluated on M2/A64FX).
func LibShalom() Provider {
	return Provider{
		Name: "LibShalom",
		Supports: func(chip *hw.Chip, m, n, k int) bool {
			return !chip.SVE && chip.Name != "M2" && n%8 == 0 && k%8 == 0
		},
		Configure: func(chip *hw.Chip, m, n, k int) core.Options {
			pack := core.PackAuto
			if n >= 512 {
				pack = core.PackOffline
			}
			return core.Options{
				Strategy:     core.EdgeStrategy(chip),
				Pack:         pack,
				Rotate:       true,
				Fuse:         true,
				CallOverhead: 700,
			}
		},
	}
}

// LIBXSMM models the JIT small-GEMM specialist: a kernel generated for
// the exact shape (no dispatch overhead, no packing, fused execution)
// but with static edge tiles of possibly very low AI (Fig 5-b) and a
// straightforward JIT pipeline without rotation.
func LIBXSMM() Provider {
	return Provider{
		Name: "LIBXSMM",
		// LIBXSMM targets small and skinny GEMM; the paper reports N/A
		// for the large irregular case in Table I.
		Supports: func(chip *hw.Chip, m, n, k int) bool {
			return m*n*k <= 1<<24
		},
		Configure: func(chip *hw.Chip, m, n, k int) core.Options {
			return core.Options{
				// The JIT emits a serviceable but conservative tile.
				Strategy: tiling.LIBXSMMStyle{
					T: mkernel.Tile{MR: 4, NR: 3 * chip.Lanes}, Lanes: chip.Lanes},
				Pack:         core.PackNone,
				Rotate:       false,
				Fuse:         true,
				CallOverhead: 300,
			}
		},
	}
}

// FastConv models the convolution-oriented code generator: generated
// kernels with decent shapes but no irregular-edge balancing and a
// moderate runtime.
func FastConv() Provider {
	return Provider{
		Name:     "FastConv",
		Supports: anyProblem,
		Configure: func(chip *hw.Chip, m, n, k int) core.Options {
			return core.Options{
				Strategy: tiling.LIBXSMMStyle{
					T: mkernel.Tile{MR: 6, NR: 2 * chip.Lanes}, Lanes: chip.Lanes},
				Pack:         core.PackOnline,
				Rotate:       true,
				Fuse:         false,
				CallOverhead: 12000,
			}
		},
	}
}

// TVMGeneric models an auto-scheduled TVM kernel without autoGEMM's
// patches: good loop structure and fusion, power-of-two tiles only, no
// assembly-level pipeline control.
func TVMGeneric() Provider {
	return Provider{
		Name:     "TVM",
		Supports: anyProblem,
		Configure: func(chip *hw.Chip, m, n, k int) core.Options {
			return core.Options{
				Strategy: tiling.LIBXSMMStyle{
					T: mkernel.Tile{MR: 4, NR: 4 * chip.Lanes}, Lanes: chip.Lanes},
				Pack:   core.PackAuto,
				Rotate: false,
				// TVM fuses loop nests but does not software-pipeline
				// across adjacent micro-kernel bodies the way §III-C2's
				// epilogue-prologue fusion does.
				Fuse: false,
				// Power-of-two schedule templates.
				NC:           minPow2Cap(n, 128),
				CallOverhead: 2500,
			}
		},
	}
}

// SSL2 models Fujitsu's vendor library on A64FX: excellent large-GEMM
// SVE kernels behind a heavyweight entry path.
func SSL2() Provider {
	return Provider{
		Name: "SSL2",
		Supports: func(chip *hw.Chip, m, n, k int) bool {
			return chip.Name == "A64FX"
		},
		Configure: func(chip *hw.Chip, m, n, k int) core.Options {
			return core.Options{
				Strategy:     core.EdgeStrategy(chip),
				Pack:         core.PackOnline,
				Rotate:       true,
				Fuse:         true,
				CallOverhead: 15000,
			}
		},
	}
}

// All returns every provider including autoGEMM, in Table I column order.
func All() []Provider {
	return []Provider{OpenBLAS(), Eigen(), LibShalom(), FastConv(), LIBXSMM(), TVMGeneric(), AutoGEMM()}
}

// ByName finds a provider.
func ByName(name string) (Provider, error) {
	for _, p := range append(All(), SSL2()) {
		if p.Name == name {
			return p, nil
		}
	}
	return Provider{}, fmt.Errorf("baselines: unknown provider %q", name)
}

// minPow2Cap rounds n down to a power of two, capped.
func minPow2Cap(n, cap int) int {
	p := 1
	for p*2 <= n && p*2 <= cap {
		p *= 2
	}
	return p
}
