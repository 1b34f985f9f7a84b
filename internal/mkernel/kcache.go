package mkernel

// This file is the kernel cache: one entry per kernel Key, holding the
// generated program, the analyzer report its generation gate produced
// and, lazily, the compiled form lowered from that same report — so a
// cached kernel is generated once and analyzed once, however many plans
// and workers request it. An engine owns one cache and hands it to every
// plan it attaches; a plan built outside an engine gets a private one.

import (
	"sort"
	"sync"
	"sync/atomic"

	"autogemm/internal/asm"
	"autogemm/internal/asm/analysis"
	"autogemm/internal/sim/compile"
)

// Key identifies one kernel variant in the cache — the same string a
// serialized execution plan records in its KernelKeys list, so a
// registry-loaded plan and a freshly produced one address identical
// cache entries. Config.Key and BandConfig.Key are the only producers.
type Key string

// Key returns the unified cache key for a micro-kernel configuration.
func (c Config) Key() Key { return Key(c.Name()) }

// Key returns the unified cache key for a band-kernel configuration.
func (c BandConfig) Key() Key { return Key(c.Name()) }

// Spec is a kernel an execution plan can run: a single-tile Config or a
// fused BandConfig. The set is closed (emit is unexported); which one a
// band of a tiling runs is decided by tiling.Band.Calls alone.
type Spec interface {
	// Key is the cache key, the string a plan's KernelKeys records.
	Key() Key
	// AnalysisOptions is the analyzer contract the generation gate
	// checks: the panel bounds and the rotation claim.
	AnalysisOptions() (analysis.Options, error)
	// emit generates and validates the program; build runs the gate.
	emit() (*asm.Program, error)
}

// kernel is a generated program that passed the analyzer gate, with the
// contract it was analyzed under and the gate's report.
type kernel struct {
	prog *asm.Program
	opts analysis.Options
	rep  *analysis.Report
}

// build emits a spec's program and runs the analyzer gate on it.
func build(s Spec) (kernel, error) {
	p, err := s.emit()
	if err != nil {
		return kernel{}, err
	}
	opts, err := s.AnalysisOptions()
	if err != nil {
		return kernel{}, err
	}
	rep, err := analyzeGate(p, opts)
	if err != nil {
		return kernel{}, err
	}
	return kernel{prog: p, opts: opts, rep: rep}, nil
}

// Cache memoizes kernels by their unified Key. The paper's library
// likewise JIT-caches its kernels.
//
// Each entry is built under its own sync.Once, not the cache-wide lock:
// distinct kernels generate and compile concurrently, and concurrent
// first requests for one key wait for a single build. Failures are
// memoized too: a kernel the generator rejects, or whose bounds the
// analyzer cannot prove complete, fails deterministically, so repeated
// executions return the same error without rebuilding it.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*cacheEntry
}

type cacheEntry struct {
	once sync.Once // guards k and err
	k    kernel
	err  error

	compileOnce sync.Once // guards the compiled form
	cprog       *compile.Program
	compileErr  error
	lowered     atomic.Bool // compileOnce has run
}

// NewCache returns an empty kernel cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[Key]*cacheEntry)}
}

// entry returns the slot for a spec, generating and analyzing its
// kernel on first use.
func (c *Cache) entry(s Spec) *cacheEntry {
	key := s.Key()
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.k, e.err = build(s) })
	return e
}

// Program returns the (possibly cached) asm form of a kernel — what the
// checked interpreter (a ForceInterp plan, the differential tests) and
// the timing simulator run.
func (c *Cache) Program(s Spec) (*asm.Program, error) {
	e := c.entry(s)
	return e.k.prog, e.err
}

// Compiled returns the compiled form of a kernel, lowered from
// the generation gate's report, or the memoized failure. An error
// matching compile.ErrUnproven means the analyzer could not prove the
// bounds complete; a plan that needs the kernel fails with it.
func (c *Cache) Compiled(s Spec) (*compile.Program, error) {
	e := c.entry(s)
	e.compileOnce.Do(func() {
		if e.err != nil {
			e.compileErr = e.err
			e.lowered.Store(true)
			return
		}
		e.cprog, e.compileErr = compile.Lower(e.k.prog, *e.k.opts.Bounds, e.k.rep)
		e.lowered.Store(true)
	})
	return e.cprog, e.compileErr
}

// Lowered reports whether Compiled would return the kernel keyed key
// without building: its compiled form, or its memoized failure, is in
// the cache.
func (c *Cache) Lowered(key Key) bool {
	c.mu.Lock()
	e := c.entries[key]
	c.mu.Unlock()
	return e != nil && e.lowered.Load()
}

// Size reports how many kernel variants are cached.
func (c *Cache) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Keys returns the cached kernel keys, sorted — the executor-side
// counterpart of a plan's KernelKeys list.
func (c *Cache) Keys() []Key {
	c.mu.Lock()
	keys := make([]Key, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	c.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
