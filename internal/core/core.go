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

	// ForceInterp disables the compiled backend: every kernel runs on
	// the checked interpreter (sim.Machine).
	// See docs/INTERNALS.md, "Compiled execution".
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
// cache, per-worker scratch and execution counters.
type Plan struct {
	Chip    *hw.Chip
	M, N, K int
	Opts    Options // resolved: MC/NC/KC, Order and Pack are concrete

	// Recipe is the serializable plan this executor replays. Treat it
	// as read-only; RestrictDMTCandidates swaps in a freshly produced
	// one rather than mutating it.
	Recipe *plan.Plan

	params  perfmodel.Params
	kernels *mkernel.Cache // Options.Kernels, or a private cache

	mu      sync.Mutex
	tilings map[[2]int]tiling.Tiling // block (m, n) -> tiling, from Recipe
	progs   map[[3]int]*blockProg    // block (m, n, k) -> resolved kernels

	interpOnly bool // Options.ForceInterp

	// Execution runtime, fixed at Attach: the scheduler every Run /
	// RunParallel / Submit turns into a job on, the C-tile-group
	// partition of the block grid (precomputed once — the per-call
	// map+sort the old RunParallel paid is gone), and one scratch-state
	// slot per pool worker. Slot i is only ever touched by worker i, so
	// the states need no lock and no sync.Pool round trips.
	runtime *sched.Pool
	groups  [][]blockIter
	states  []*execState

	// Memoized per-shape simulated costs (estimate.go, shapeCosts):
	// computed once, shared by the analytic estimator and the
	// virtual-time cost attribution. costKeys preserves first-visit
	// order so float composition is bit-deterministic.
	costOnce sync.Once
	costs    map[[3]int]blockCost
	costKeys [][3]int
	costErr  error

	// Virtual-time cost attribution (virtualtime.go): one precomputed
	// sched.TaskCost per C-tile group, charged to the running worker
	// when vtCosting is set. Written before the flag is raised, read
	// only after observing it.
	taskCosts []sched.TaskCost
	vtCosting atomic.Bool

	// Block-execution counters by path, updated atomically.
	nInPlace, nABInPlace, nPacked, nInterp int64

	// Scheduler counters: jobs this plan submitted / completed and the
	// tasks of its jobs run by a worker other than the first claimant.
	nJobs, nJobsDone, nStolen int64
}

// ExecStats counts block executions by path since the plan was created
// (across all Run/RunParallel calls). It exposes which tier the engine
// actually took — tests and benchmarks assert on it rather than
// guessing from timings.
type ExecStats struct {
	InPlaceBlocks   int64 // compiled; A, B and C addressed in the user slices
	ABInPlaceBlocks int64 // compiled; A/B in place, C staged through the block buffer
	PackedBlocks    int64 // compiled over packed scratch panels
	InterpBlocks    int64 // checked-interpreter fallback

	// Scheduler counters for this plan's jobs (one job per Run /
	// RunParallel / Submit): completions and stolen-task counts are
	// tallied when the job's future is waited on.
	JobsSubmitted int64
	JobsCompleted int64
	TasksStolen   int64 // tasks run by a worker other than the job's first claimant
}

// Stats returns a snapshot of the plan's execution counters.
func (p *Plan) Stats() ExecStats {
	return ExecStats{
		InPlaceBlocks:   atomic.LoadInt64(&p.nInPlace),
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

// RestrictDMTCandidates narrows the DMT register-tile candidate set
// (used by the ablation experiments) by re-producing the recipe with
// the restriction applied; it has no effect when a non-DMT strategy
// was supplied. Resolved tilings and kernel programs are replaced.
func (p *Plan) RestrictDMTCandidates(tiles []mkernel.Tile) {
	if p.Opts.Strategy != nil {
		if _, ok := p.Opts.Strategy.(*tiling.DMT); !ok {
			return
		}
	}
	opts := p.Opts
	opts.DMTCandidates = tiles
	rec, err := Produce(p.Chip, p.M, p.N, p.K, opts)
	if err != nil {
		return
	}
	tilings := make(map[[2]int]tiling.Tiling, len(rec.Blocks))
	for _, blk := range rec.Blocks {
		tilings[[2]int{blk.M, blk.N}] = tiling.FromPlanBlock(blk)
	}
	p.mu.Lock()
	p.Opts.DMTCandidates = tiles
	p.Recipe = rec
	p.tilings = tilings
	p.progs = make(map[[3]int]*blockProg)
	p.mu.Unlock()
}

// blockTiling returns the tiling the recipe assigns to a block shape.
// The planner enumerated every distinct shape of the grid, so a miss is
// a structural bug (or a foreign recipe), not a cue to re-plan.
func (p *Plan) blockTiling(m, n int) (tiling.Tiling, error) {
	p.mu.Lock()
	tl, ok := p.tilings[[2]int{m, n}]
	p.mu.Unlock()
	if !ok {
		return tiling.Tiling{}, fmt.Errorf("core: plan has no tiling for block %dx%d", m, n)
	}
	return tl, nil
}

// blocks enumerates the cache-block grid in the plan's loop order.
type blockIter struct {
	MOff, NOff, KOff int
	MB, NB, KB       int
	First            bool // first k chunk for this (m, n) block: β = 0
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
			MOff: mi[0], MB: mi[1], NOff: ni[0], NB: ni[1], KOff: ki[0], KB: ki[1],
			First: ki[0] == 0,
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
