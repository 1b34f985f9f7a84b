// Package core assembles the paper's contribution into a working GEMM,
// split along the plan boundary:
//
//   - the *planner* (planner.go, Produce) resolves cache blocking
//     (m_c, n_c, k_c), data packing (σ_packing), loop ordering
//     (σ_order) and the micro-tiling of each distinct block (package
//     tiling), and captures everything in an immutable, serializable
//     plan.Plan;
//   - the *executor* (this file, exec.go, estimate.go; Attach) replays
//     a plan — functionally (numerical results via the compiled
//     backend or the simulator's machine) and as a cycle estimate
//     (per-band timing simulation composed over the block grid) —
//     without re-deriving any planning decision.
//
// NewPlan composes the two for callers that want the classic one-shot
// flow; the Engine-level plan cache and registry warm-start path call
// Produce and Attach separately.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
	"autogemm/internal/perfmodel"
	"autogemm/internal/plan"
	"autogemm/internal/sched"
	"autogemm/internal/tiling"
	"autogemm/internal/vtime"
)

// PackMode is σ_packing: none, online (packing inside the timed region)
// or offline (B packed ahead of time, amortized — the LibShalom
// comparison mode of §V-C).
type PackMode int

// Packing modes. PackAuto resolves to PackNone when the whole B matrix
// fits L1 (the paper skips packing when N is small because the locality
// benefit cannot repay the packing time, §IV-C2) and to PackOnline
// otherwise.
const (
	PackNone PackMode = iota
	PackOnline
	PackOffline
	PackAuto
)

// String implements fmt.Stringer.
func (p PackMode) String() string {
	switch p {
	case PackNone:
		return "none"
	case PackOnline:
		return "online"
	case PackOffline:
		return "offline"
	case PackAuto:
		return "auto"
	default:
		return fmt.Sprintf("pack(%d)", int(p))
	}
}

// LoopOrder is σ_order for the three cache-block loops. The generator
// fixes the two register-loop orders (n inner within a row band), so of
// the paper's 5! = 120 permutations the 3! = 6 block orders remain
// distinguishable; the others collapse onto these (see DESIGN.md).
type LoopOrder uint8

// Block loop orders, named outermost to innermost.
const (
	OrderMNK LoopOrder = iota
	OrderMKN
	OrderNMK
	OrderNKM
	OrderKMN
	OrderKNM
)

// String implements fmt.Stringer.
func (o LoopOrder) String() string {
	names := [...]string{"MNK", "MKN", "NMK", "NKM", "KMN", "KNM"}
	if int(o) < len(names) {
		return names[o]
	}
	return "?"
}

// AllLoopOrders lists the block loop orders.
func AllLoopOrders() []LoopOrder {
	return []LoopOrder{OrderMNK, OrderMKN, OrderNMK, OrderNKM, OrderKMN, OrderKNM}
}

// Options selects the algorithm parameters of Table III plus the
// optimization toggles of §III-C.
type Options struct {
	MC, NC, KC int // cache block shape; 0 means "choose automatically"
	Order      LoopOrder
	Pack       PackMode
	Rotate     bool
	Fuse       bool

	// Strategy tiles each block; nil selects DMT with the chip's params.
	Strategy tiling.Strategy

	// DMTCandidates narrows the register-tile candidate set when the
	// strategy is DMT (used by the ablation experiments); nil means the
	// full generatable tile space.
	DMTCandidates []mkernel.Tile

	// CallOverhead adds fixed cycles per GEMM call (library dispatch);
	// used by the baseline library models.
	CallOverhead int

	// Cores used by cycle estimation; 0 or 1 is single-core.
	Cores int

	// ForceKCisK pins k_c = K, reproducing the paper's multi-core
	// limitation ("TVM does not support parallelism over the K
	// dimension", §V-C).
	ForceKCisK bool

	// ForceInterp runs every kernel on the checked interpreter
	// (sim.Machine) instead of its compiled form, over the same packed
	// buffers and block path: the reference the compiled backend is
	// held bit-identical to. See docs/INTERNALS.md, "Compiled execution".
	ForceInterp bool

	// Runtime is the scheduler the attached plan executes on — a
	// runtime-only field (like ForceInterp and Strategy) that never
	// enters the plan fingerprint. nil selects the shared process-wide
	// pool; engines pass their own pool so WithWorkers/WithQueueDepth
	// and Close govern every execution they serve.
	Runtime *sched.Pool

	// Kernels is the kernel cache the attached plan generates, analyzes
	// and compiles its kernels through — runtime-only, never in the plan
	// fingerprint. An engine passes one cache to every plan it attaches,
	// so a kernel shared by many plans is built once and lives as long
	// as the engine; nil gives the plan a private cache.
	Kernels *mkernel.Cache

	// TrustedPlan marks the recipe handed to Attach as produced inside
	// this process (by Produce or the tuner), skipping the static plan
	// audit. Plans that crossed a process boundary — registry files,
	// decoded JSON — must leave this false so Attach re-proves
	// coverage, bounds and kernel-key consistency before any kernel
	// can execute. Runtime-only; never enters the plan fingerprint.
	TrustedPlan bool
}

// AutoOptions returns the paper's default configuration for a chip:
// rotation and fusion on, DMT tiling, automatic blocking, packing chosen
// by problem size.
func AutoOptions(chip *hw.Chip) Options {
	return Options{Rotate: true, Fuse: true, Pack: PackAuto}
}

// Plan is an executor bound to one immutable recipe: a fully-resolved
// execution plan for one (M, N, K) problem on one chip. All planning
// state (blocking, loop order, packing, per-block tilings) lives in
// Recipe; the rest of the struct is runtime machinery — the kernel
// cache, the block programs and execution counters. Once attached, a
// plan is read-only apart from its lazily built memos (block programs,
// costs) and its atomic counters, so it needs no lock; execution
// scratch belongs to the scheduler participant (state.go).
type Plan struct {
	Chip    *hw.Chip
	M, N, K int
	Opts    Options // resolved: MC/NC/KC, Order and Pack are concrete

	// Recipe is the serializable plan this executor replays. Treat it
	// as read-only.
	Recipe *plan.Plan

	params  perfmodel.Params
	kernels *mkernel.Cache // Options.Kernels, or a private cache

	// Both tables are filled at Attach and never change: every block
	// shape of the grid has its entry, whose program compiles on first
	// use under the entry's own sync.Once.
	tilings map[[2]int]tiling.Tiling // block (m, n) -> tiling, from Recipe
	progs   map[[3]int]*blockProg    // block (m, n, k) -> resolved kernels

	prebuilt   atomic.Bool     // Prebuild found every kernel compiled (exec.go)
	interpOnly bool            // Options.ForceInterp
	scratch    mkernel.Scratch // the scratch envelope a task's views are cut to
	aSlots     int             // A slots of a participant's row panel (aSlots in exec.go)

	// abFits, by block position in the loop order, marks the blocks
	// whose calls all fit A and B in place (exec.go, fitInPlace). It
	// is nil unless the plan reads in place: PackNone, compiled, 4
	// lanes. A shape's entries are written once, when its program
	// resolves, before any of its blocks runs.
	abFits []bool

	// Execution runtime, fixed at Attach: the scheduler every Run /
	// RunParallel / Submit turns into a job on, and the C-tile-group
	// partition of the block grid, precomputed once.
	runtime *sched.Pool
	groups  [][]blockIter

	// Memoized per-shape simulated costs (estimate.go, shapeCosts):
	// computed once, shared by the analytic estimator and the
	// virtual-time cost attribution. costKeys preserves first-visit
	// order so float composition is bit-deterministic.
	costOnce sync.Once
	costs    map[[3]int]blockCost
	costKeys [][3]int
	costErr  error

	// Per-task simulated costs (virtualtime.go, TaskCosts): one
	// vtime.TaskCost per C-tile group, built once.
	taskOnce  sync.Once
	taskCosts []vtime.TaskCost
	taskErr   error

	// Block-execution counters by path, updated atomically.
	nPacked, nABInPlace, nInterp int64

	// Scheduler counters: jobs this plan submitted / completed and the
	// tasks of its jobs run by a worker other than the first claimant.
	nJobs, nJobsDone, nStolen int64
}

// ExecStats counts block executions since the plan was created (across
// all Run/RunParallel calls), by path (Plan.Run): compiled kernels
// reading A and B in place, compiled kernels over the packed panels, or
// the checked interpreter on a ForceInterp plan. Every block stages its
// C tile, so none runs wholly in place. Tests and benchmarks assert on
// it rather than guessing from timings.
type ExecStats struct {
	// InPlaceBlocks is always 0: C is staged in every block. It stays
	// for callers that report it.
	InPlaceBlocks   int64
	ABInPlaceBlocks int64 // compiled kernels reading A and B in place (PackNone)
	PackedBlocks    int64 // compiled kernels over the packed panels
	InterpBlocks    int64 // checked interpreter (ForceInterp) over the packed panels

	// Scheduler counters for this plan's jobs (one job per Run /
	// RunParallel / RunQoS / Submit): completions and stolen-task
	// counts are tallied when a blocking run returns or the job's
	// future is waited on.
	JobsSubmitted int64
	JobsCompleted int64
	TasksStolen   int64 // tasks run by a worker other than the job's first claimant
}

// Stats returns a snapshot of the plan's execution counters.
func (p *Plan) Stats() ExecStats {
	return ExecStats{
		ABInPlaceBlocks: atomic.LoadInt64(&p.nABInPlace),
		PackedBlocks:    atomic.LoadInt64(&p.nPacked),
		InterpBlocks:    atomic.LoadInt64(&p.nInterp),
		JobsSubmitted:   atomic.LoadInt64(&p.nJobs),
		JobsCompleted:   atomic.LoadInt64(&p.nJobsDone),
		TasksStolen:     atomic.LoadInt64(&p.nStolen),
	}
}

// NewPlan validates the problem, produces a fresh plan and attaches an
// executor to it — the classic one-shot flow. Callers that cache or
// persist plans use Produce and Attach separately.
func NewPlan(chip *hw.Chip, m, n, k int, opts Options) (*Plan, error) {
	rec, err := Produce(chip, m, n, k, opts)
	if err != nil {
		return nil, err
	}
	opts.TrustedPlan = true // just produced in-process, no audit needed
	return Attach(chip, rec, opts)
}

func (p *Plan) opt() perfmodel.Opt {
	return perfmodel.Opt{Rotate: p.Opts.Rotate, Fuse: p.Opts.Fuse}
}

// blockTiling returns the tiling the recipe assigns to a block shape.
// The planner enumerated every distinct shape of the grid, so a miss is
// a structural bug (or a foreign recipe), not a cue to re-plan.
func (p *Plan) blockTiling(m, n int) (tiling.Tiling, error) {
	tl, ok := p.tilings[[2]int{m, n}]
	if !ok {
		return tiling.Tiling{}, fmt.Errorf("core: plan has no tiling for block %dx%d", m, n)
	}
	return tl, nil
}

// blocks enumerates the cache-block grid in the plan's loop order.
type blockIter struct {
	MOff, NOff, KOff int
	MB, NB, KB       int
	idx              int // position in the loop order; indexes Plan.abFits
}

func (p *Plan) blocks() []blockIter {
	var ms, ns, ks [][2]int
	for off := 0; off < p.M; off += p.Opts.MC {
		ms = append(ms, [2]int{off, min(p.Opts.MC, p.M-off)})
	}
	for off := 0; off < p.N; off += p.Opts.NC {
		ns = append(ns, [2]int{off, min(p.Opts.NC, p.N-off)})
	}
	for off := 0; off < p.K; off += p.Opts.KC {
		ks = append(ks, [2]int{off, min(p.Opts.KC, p.K-off)})
	}
	var out []blockIter
	add := func(mi, ni, ki [2]int) {
		out = append(out, blockIter{
			MOff: mi[0], MB: mi[1], NOff: ni[0], NB: ni[1], KOff: ki[0], KB: ki[1], idx: len(out),
		})
	}
	switch p.Opts.Order {
	case OrderMNK:
		for _, mi := range ms {
			for _, ni := range ns {
				for _, ki := range ks {
					add(mi, ni, ki)
				}
			}
		}
	case OrderMKN:
		for _, mi := range ms {
			for _, ki := range ks {
				for _, ni := range ns {
					add(mi, ni, ki)
				}
			}
		}
	case OrderNMK:
		for _, ni := range ns {
			for _, mi := range ms {
				for _, ki := range ks {
					add(mi, ni, ki)
				}
			}
		}
	case OrderNKM:
		for _, ni := range ns {
			for _, ki := range ks {
				for _, mi := range ms {
					add(mi, ni, ki)
				}
			}
		}
	case OrderKMN:
		for _, ki := range ks {
			for _, mi := range ms {
				for _, ni := range ns {
					add(mi, ni, ki)
				}
			}
		}
	default: // OrderKNM
		for _, ki := range ks {
			for _, ni := range ns {
				for _, mi := range ms {
					add(mi, ni, ki)
				}
			}
		}
	}
	return out
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func quantUp(n, lanes int) int { return (n + lanes - 1) / lanes * lanes }
