// Package autogemm is a Go reproduction of "autoGEMM: Pushing the Limits
// of Irregular Matrix Multiplication on Arm Architectures" (SC 2024): a
// code-generation framework for single-precision GEMM on irregular
// (small, tall-skinny, long-rectangular) shapes.
//
// The library auto-generates AArch64-style micro-kernels for register
// tiles selected by arithmetic intensity, optimizes their pipelines with
// rotating register allocation and epilogue–prologue fusion, partitions
// cache blocks with the Dynamic Micro-Tiling algorithm, and tunes cache
// blocking, loop order and packing with a model-pruned search. Because
// this build targets commodity hosts rather than Arm silicon, kernels
// execute on a cycle-level simulator of the paper's five evaluation
// chips (KP920, Graviton2, Altra, M2, A64FX): Multiply computes real
// float32 results by running the generated kernels, compiled from the
// analyzer's proof of their memory accesses, and Estimate projects
// their performance on the selected chip.
//
// Quick start:
//
//	eng, _ := autogemm.New("Graviton2")
//	c := make([]float32, m*n)
//	err := eng.Multiply(c, a, b, m, n, k) // C += A·B
//	perf, _ := eng.Estimate(m, n, k, nil)
//	fmt.Printf("%.1f GF/s (%.0f%% of peak)\n", perf.GFLOPS, perf.Efficiency*100)
package autogemm

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"autogemm/internal/asm"
	"autogemm/internal/baselines"
	"autogemm/internal/core"
	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
	"autogemm/internal/plan"
	"autogemm/internal/sched"
	"autogemm/internal/tuner"
)

// Chips lists the supported chip model names, sorted and de-duplicated.
func Chips() []string {
	seen := make(map[string]bool)
	var names []string
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for _, c := range hw.All() {
		add(c.Name)
	}
	add("Graviton3")
	add("Didactic")
	sort.Strings(names)
	return names
}

// Providers lists the GEMM implementations available for comparison:
// this library plus the simulated baseline libraries of the paper's
// evaluation.
func Providers() []string {
	var names []string
	for _, p := range baselines.All() {
		names = append(names, p.Name)
	}
	names = append(names, "SSL2")
	sort.Strings(names)
	return names
}

// Options exposes the tunable algorithm parameters of the paper's
// Table III. The zero value of each field means "choose automatically".
type Options struct {
	MC, NC, KC int    // cache block shape
	Order      string // block loop order: "MNK", "MKN", "NMK", "NKM", "KMN", "KNM"
	Pack       string // "none", "online", "offline", or "" for automatic
	NoRotate   bool   // disable rotating register allocation (§III-C1)
	NoFuse     bool   // disable epilogue-prologue fusion (§III-C2)
	Cores      int    // cores for performance estimation (0 = 1)
}

// Perf is a projected execution profile on the engine's chip.
type Perf struct {
	Cycles     float64
	Seconds    float64
	GFLOPS     float64
	Efficiency float64 // fraction of the peak of the cores used
	Cores      int
}

// Engine plans and executes GEMMs for one chip model. It is safe for
// concurrent use: resolved plans are cached per request (shape +
// option set) in a sharded, singleflight-deduplicated cache, so
// concurrent first calls on the same shape plan exactly once. With a
// plan directory configured (WithPlanDir or AUTOGEMM_PLAN_DIR), cache
// misses first try to warm-start from the on-disk registry before
// planning from scratch.
//
// Every execution — Multiply, MultiplyPlanned, SGEMM, MultiplyBatch,
// Submit — goes through one request path (batch.go) and becomes one
// job on the engine's persistent scheduler runtime (internal/sched): a
// worker pool sized by WithWorkers with a bounded job queue sized by
// WithQueueDepth. Close stops it; see
// docs/INTERNALS.md, "Runtime & scheduling".
type Engine struct {
	chip     *hw.Chip
	plans    *plan.Cache[plan.Key, *core.Plan]
	registry *plan.Registry
	sched    *sched.Pool
	kernels  *mkernel.Cache // shared by every plan the engine attaches

	workers, depth int // construction-time pool configuration

	// QoS configuration (see qos.go): the class unlabelled work runs
	// under and the WithClass setups applied when the pool is built.
	defaultClass string
	classCfg     []classSetup

	// Tiered planning state (see tiered.go). upgrading tracks the
	// requests with a background upgrade in flight; each maps to a
	// channel closed when that upgrade settles.
	mode      PlanMode
	upMu      sync.Mutex
	upgrading map[plan.Key]chan struct{}

	heuristicServed   atomic.Int64
	upgradesCompleted atomic.Int64
	upgradesFailed    atomic.Int64
	neighborSeeded    atomic.Int64
}

// EngineOption configures an Engine at construction.
type EngineOption func(*Engine)

// WithPlanDir points the engine at an on-disk plan registry (see
// cmd/autogemm-tune -plan-dir for pre-baking one). It overrides the
// AUTOGEMM_PLAN_DIR environment variable; an empty dir disables the
// registry.
func WithPlanDir(dir string) EngineOption {
	return func(e *Engine) {
		if dir == "" {
			e.registry = nil
			return
		}
		e.registry = plan.NewRegistry(dir)
	}
}

// WithWorkers sets the engine's scheduler worker count (default
// GOMAXPROCS). It bounds the parallelism of a single large GEMM and
// the inter-job parallelism of batches.
func WithWorkers(n int) EngineOption {
	return func(e *Engine) { e.workers = n }
}

// WithQueueDepth bounds the number of jobs in flight — submitted but
// not yet completed — on the engine's scheduler (default
// max(64, 4·workers)). At the bound, Multiply/MultiplyBatch/Submit
// block until a job completes: backpressure propagates to producers
// instead of growing an unbounded queue.
func WithQueueDepth(n int) EngineOption {
	return func(e *Engine) { e.depth = n }
}

// New returns an engine for the named chip (see Chips).
func New(chipName string, opts ...EngineOption) (*Engine, error) {
	chip, err := hw.ByName(chipName)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		chip:      chip,
		plans:     plan.NewCache[plan.Key, *core.Plan](plan.HashKey),
		kernels:   mkernel.NewCache(),
		upgrading: make(map[plan.Key]chan struct{}),
	}
	if dir := os.Getenv("AUTOGEMM_PLAN_DIR"); dir != "" {
		e.registry = plan.NewRegistry(dir)
	}
	for _, o := range opts {
		o(e)
	}
	e.sched = sched.New(e.workers, e.depth)
	for _, cs := range e.classCfg {
		e.sched.ConfigureClass(cs.name, sched.ClassConfig{Weight: cs.weight, Depth: cs.depth})
	}
	return e, nil
}

// Close shuts down the engine's scheduler runtime: jobs already
// accepted drain to completion (their futures fire), further
// submissions — including synchronous Multiply calls — fail with an
// error matching ErrClosed, and the worker goroutines exit. Close is
// idempotent; CloseWithTimeout bounds the drain. Planning APIs
// (PlanFor, Estimate, Tune) keep working on a closed engine; only
// execution is refused.
func (e *Engine) Close() error { return e.sched.Close() }

// ChipName returns the engine's chip model.
func (e *Engine) ChipName() string { return e.chip.Name }

// PeakGFLOPS returns the chip's single-core peak.
func (e *Engine) PeakGFLOPS() float64 { return e.chip.PeakGFLOPS() }

// Lanes returns σ_lane: float32 elements per SIMD register.
func (e *Engine) Lanes() int { return e.chip.Lanes }

// withRuntime sets the runtime-only core options every plan the engine
// attaches carries — its scheduler and its kernel cache. They never
// enter the plan fingerprint.
func (e *Engine) withRuntime(co core.Options) core.Options {
	co.Runtime = e.sched
	co.Kernels = e.kernels
	return co
}

// resolve converts public options into core options.
func (e *Engine) resolve(opts *Options) (core.Options, error) {
	co := e.withRuntime(core.AutoOptions(e.chip))
	if opts == nil {
		return co, nil
	}
	co.MC, co.NC, co.KC = opts.MC, opts.NC, opts.KC
	co.Rotate = !opts.NoRotate
	co.Fuse = !opts.NoFuse
	co.Cores = opts.Cores
	if opts.Order != "" {
		o, err := core.OrderFromString(opts.Order)
		if err != nil {
			return co, fmt.Errorf("autogemm: unknown loop order %q", opts.Order)
		}
		co.Order = o
	}
	if opts.Pack != "" {
		p, err := core.PackFromString(opts.Pack)
		if err != nil {
			return co, fmt.Errorf("autogemm: unknown packing mode %q", opts.Pack)
		}
		co.Pack = p
	}
	return co, nil
}

// Multiply computes C += A·B for row-major float32 matrices A (m×k),
// B (k×n) and C (m×n) by executing the generated micro-kernels, and is
// bit-validated against a reference GEMM in the test suite (relative
// error below 1e-6, the paper's §V criterion). It is MultiplyContext
// without a context, options or QoS.
func (e *Engine) Multiply(c, a, b []float32, m, n, k int) error {
	return e.MultiplyContext(context.Background(), GEMM{C: c, A: a, B: b, M: m, N: n, K: k})
}

// MultiplyContext computes one GEMM synchronously as a single-worker
// job — the serial reference every batch and async execution is held
// bit-identical to. Plans are served from the engine's plan cache:
// repeated calls on the same shape and options reuse the resolved plan
// and its generated kernels.
//
// If ctx (or a g.QoS deadline) fires before the job completes, the
// scheduler skips the job's remaining work and the call returns the
// context error; a context firing also unblocks a submission stalled on
// scheduler backpressure. The call returns only once the job has
// actually completed — prompt on cancellation, since only the task
// already running finishes — so the operand slices are always
// quiescent when it returns.
func (e *Engine) MultiplyContext(ctx context.Context, g GEMM) error {
	return wait(e.submit(ctx, g, 1))
}

// Estimate projects the performance of the plan on the engine's chip.
func (e *Engine) Estimate(m, n, k int, opts *Options) (Perf, error) {
	p, err := e.plan(opts, m, n, k)
	if err != nil {
		return Perf{}, err
	}
	est, err := p.Estimate()
	if err != nil {
		return Perf{}, err
	}
	return perfOf(est), nil
}

// EstimateProvider projects the performance of one of the simulated
// baseline libraries (see Providers) on the same problem.
func (e *Engine) EstimateProvider(provider string, m, n, k int) (Perf, error) {
	p, err := baselines.ByName(provider)
	if err != nil {
		return Perf{}, err
	}
	if !p.Supports(e.chip, m, n, k) {
		return Perf{}, fmt.Errorf("autogemm: %s does not support %dx%dx%d on %s",
			provider, m, n, k, e.chip.Name)
	}
	est, err := p.Estimate(e.chip, m, n, k)
	if err != nil {
		return Perf{}, err
	}
	return perfOf(est), nil
}

// Tune searches the Table III parameter space for the problem and
// returns the best options found along with their projected performance.
// budget caps the number of simulator evaluations (0 = default).
//
// The winning plan is inserted into the engine's plan cache — a
// subsequent request with the returned options (GEMM.Opts, PlanFor)
// resolves to the same request key and executes the tuned plan without
// re-planning — and, when a plan directory is configured, persisted to
// the registry so later processes warm-start from it.
func (e *Engine) Tune(m, n, k, budget int) (Options, Perf, error) {
	rec, res, err := tuner.TunePlan(tuner.Config{
		Chip: e.chip, M: m, N: n, K: k, UseModel: true, MaxEvals: budget,
	})
	if err != nil {
		return Options{}, Perf{}, err
	}
	if _, err := e.plans.Get(rec.Request.Key(), func() (*core.Plan, error) {
		o := e.withRuntime(res.Best.Options())
		o.TrustedPlan = true // tuned in-process, no audit needed
		return core.Attach(e.chip, rec, o)
	}); err != nil {
		return Options{}, Perf{}, err
	}
	if e.registry != nil {
		if err := e.registry.Store(rec); err != nil {
			return Options{}, Perf{}, err
		}
	}
	best := Options{
		MC: res.Best.MC, NC: res.Best.NC, KC: res.Best.KC,
		Order: res.Best.Order.String(), Pack: res.Best.Pack.String(),
	}
	return best, perfOf(res.Estimate), nil
}

// GenerateKernel emits the assembly text of one auto-generated
// micro-kernel (the paper's Listing 1 output) for inspection.
func (e *Engine) GenerateKernel(mr, nr, kc int, rotate bool) (string, error) {
	prog, err := e.kernelProgram(mr, nr, kc, rotate)
	if err != nil {
		return "", err
	}
	return prog.String(), nil
}

// PreferredTiles returns the high-AI register tiles the generator
// prefers on this chip (Table II's blue shapes), as "MRxNR" strings.
func (e *Engine) PreferredTiles() []string {
	var out []string
	for _, t := range mkernel.PreferredTiles(e.chip.Lanes) {
		out = append(out, t.String())
	}
	return out
}

func perfOf(est core.Estimate) Perf {
	return Perf{
		Cycles: est.Cycles, Seconds: est.Seconds, GFLOPS: est.GFLOPS,
		Efficiency: est.Efficiency, Cores: est.Cores,
	}
}

// GenerateKernelS emits one micro-kernel as a complete GNU assembler .S
// file with an AAPCS64 function wrapper, assemblable on Armv8 hardware.
func (e *Engine) GenerateKernelS(mr, nr, kc int, rotate bool) (string, error) {
	prog, err := e.kernelProgram(mr, nr, kc, rotate)
	if err != nil {
		return "", err
	}
	return prog.SFile(), nil
}

// GenerateKernelWords emits one micro-kernel as encoded AArch64 machine
// words (.word directives). Only the NEON (4-lane) chips are encodable;
// the SVE configuration's 16-lane element indices have no .4s encoding.
func (e *Engine) GenerateKernelWords(mr, nr, kc int, rotate bool) (string, error) {
	prog, err := e.kernelProgram(mr, nr, kc, rotate)
	if err != nil {
		return "", err
	}
	return prog.HexWords()
}

func (e *Engine) kernelProgram(mr, nr, kc int, rotate bool) (*asm.Program, error) {
	return mkernel.Generate(mkernel.Config{
		Tile: mkernel.Tile{MR: mr, NR: nr}, KC: kc, Lanes: e.chip.Lanes,
		Rotate: rotate, LoadC: true, Prefetch: true,
	})
}

// KernelInfo reports a micro-kernel's instruction mix, register usage,
// rotation scheme and arithmetic-intensity figures.
func (e *Engine) KernelInfo(mr, nr, kc int, rotate bool) (string, error) {
	info, err := mkernel.Describe(mkernel.Config{
		Tile: mkernel.Tile{MR: mr, NR: nr}, KC: kc, Lanes: e.chip.Lanes,
		Rotate: rotate, LoadC: true,
	})
	if err != nil {
		return "", err
	}
	return info.String(), nil
}

// DescribePlan renders the fully-resolved execution plan for a problem:
// blocking, packing, loop order, and the micro-tiling of each block.
func (e *Engine) DescribePlan(opts *Options, m, n, k int) (string, error) {
	plan, err := e.plan(opts, m, n, k)
	if err != nil {
		return "", err
	}
	return plan.Describe()
}
