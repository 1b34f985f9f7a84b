package mkernel

import (
	"sort"
	"sync"

	"autogemm/internal/asm"
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

// Cache memoizes generated kernels by their unified Key. Kernel
// generation is cheap but plans request the same corner-case shapes
// many times; the paper's library likewise JIT-caches its kernels.
//
// One entry holds both forms of a kernel: the asm program and its
// compiled closure-threaded form (internal/sim/compile), each built
// lazily and at most once. Compile failures are memoized too: a kernel
// the analyzer cannot prove bound-safe fails deterministically, so
// repeated executions never re-run the analyzer just to fall back to
// the interpreter again.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*cacheEntry
}

type cacheEntry struct {
	prog *asm.Program
	err  error

	compileOnce sync.Once // guards the compiled form, per entry
	cprog       *compile.Program
	compileErr  error
}

// NewCache returns an empty kernel cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[Key]*cacheEntry)}
}

// entry returns (creating if needed) the slot for a key with the asm
// form resolved through generate.
func (c *Cache) entry(key Key, generate func() (*asm.Program, error)) *cacheEntry {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if ok {
		return e
	}
	p, err := generate()
	c.mu.Lock()
	if prev, ok := c.entries[key]; ok {
		c.mu.Unlock()
		return prev
	}
	e = &cacheEntry{prog: p, err: err}
	c.entries[key] = e
	c.mu.Unlock()
	return e
}

// Kernel returns the (possibly cached) kernel for cfg.
func (c *Cache) Kernel(cfg Config) (*asm.Program, error) {
	e := c.entry(cfg.Key(), func() (*asm.Program, error) { return Generate(cfg) })
	return e.prog, e.err
}

// Band returns the (possibly cached) band kernel for cfg.
func (c *Cache) Band(cfg BandConfig) (*asm.Program, error) {
	e := c.entry(cfg.Key(), func() (*asm.Program, error) { return GenerateBand(cfg) })
	return e.prog, e.err
}

// compiledForm resolves the compiled form of an entry, building it at
// most once. Compilation runs the full analyzer, so it happens under the
// entry's own sync.Once rather than the cache-wide lock: distinct kernels
// compile concurrently, and callers of one key wait only for that key.
func (c *Cache) compiledForm(key Key, generate func() (*asm.Program, error),
	opts func() (compile.Options, error)) (*compile.Program, error) {

	e := c.entry(key, generate)
	e.compileOnce.Do(func() {
		if e.err != nil {
			e.compileErr = e.err
			return
		}
		o, err := opts()
		if err != nil {
			e.compileErr = err
			return
		}
		e.cprog, e.compileErr = compile.Compile(e.prog, o)
	})
	return e.cprog, e.compileErr
}

// CompiledKernel returns the closure-threaded form of the kernel for
// cfg, or the memoized compile failure (callers then use the checked
// interpreter on the asm form from Kernel).
func (c *Cache) CompiledKernel(cfg Config) (*compile.Program, error) {
	return c.compiledForm(cfg.Key(),
		func() (*asm.Program, error) { return Generate(cfg) },
		func() (compile.Options, error) {
			aopts, err := cfg.AnalysisOptions()
			if err != nil {
				return compile.Options{}, err
			}
			return compile.Options{Lanes: cfg.Lanes, Bounds: *aopts.Bounds, Rotation: aopts.Rotation}, nil
		})
}

// CompiledBand returns the closure-threaded form of the band kernel for
// cfg, with the same negative-caching behavior as CompiledKernel.
func (c *Cache) CompiledBand(cfg BandConfig) (*compile.Program, error) {
	return c.compiledForm(cfg.Key(),
		func() (*asm.Program, error) { return GenerateBand(cfg) },
		func() (compile.Options, error) {
			aopts, err := cfg.AnalysisOptions()
			if err != nil {
				return compile.Options{}, err
			}
			return compile.Options{Lanes: cfg.Lanes, Bounds: *aopts.Bounds, Rotation: aopts.Rotation}, nil
		})
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
