package mkernel_test

import (
	"sync"
	"testing"

	"autogemm/internal/mkernel"
	"autogemm/internal/sim/compile"
)

// TestCacheCompiledConcurrent races lazy compilation: many goroutines ask
// for the compiled form of the same and of distinct kernels at once. Each
// key must yield exactly one program, shared by every caller, and
// distinct keys distinct programs. Run under -race it also checks that
// per-entry compilation publishes its result safely.
func TestCacheCompiledConcurrent(t *testing.T) {
	cache := mkernel.NewCache()
	var kernels []mkernel.Config
	for _, nr := range []int{4, 8, 12} {
		kernels = append(kernels, mkernel.Config{Tile: mkernel.Tile{MR: 4, NR: nr}, KC: 9, Lanes: 4,
			Rotate: true, LoadC: true})
	}
	bands := []mkernel.BandConfig{
		{Segments: []mkernel.Segment{{Tile: mkernel.Tile{MR: 4, NR: 8}, Count: 2}},
			KC: 9, Lanes: 4, Fuse: true, LoadC: true},
		{Segments: []mkernel.Segment{{Tile: mkernel.Tile{MR: 4, NR: 8}, Count: 1}, {Tile: mkernel.Tile{MR: 4, NR: 4}, Count: 1}},
			KC: 9, Lanes: 4, Fuse: true, LoadC: true},
	}
	keys := len(kernels) + len(bands)

	const workers = 8
	got := make([][]*compile.Program, workers)
	errs := make([]error, workers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start.Wait()
			got[w] = make([]*compile.Program, keys)
			// Each worker walks the keys from a different starting point,
			// so same-key and distinct-key requests overlap.
			for i := 0; i < keys; i++ {
				k := (i + w) % keys
				var cp *compile.Program
				var err error
				if k < len(kernels) {
					cp, err = cache.CompiledKernel(kernels[k])
				} else {
					cp, err = cache.CompiledBand(bands[k-len(kernels)])
				}
				if err != nil {
					errs[w] = err
					return
				}
				got[w][k] = cp
			}
		}(w)
	}
	start.Done()
	wg.Wait()

	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	seen := make(map[*compile.Program]int)
	for k := 0; k < keys; k++ {
		cp := got[0][k]
		if cp == nil {
			t.Fatalf("key %d: nil program", k)
		}
		for w := 1; w < workers; w++ {
			if got[w][k] != cp {
				t.Fatalf("key %d: worker %d got a different program than worker 0", k, w)
			}
		}
		if prev, dup := seen[cp]; dup {
			t.Fatalf("keys %d and %d share one program", prev, k)
		}
		seen[cp] = k
	}
	if n := cache.Size(); n != keys {
		t.Fatalf("cache holds %d entries, want %d", n, keys)
	}
}

// TestCacheCompileFailureMemoized checks that a failed compile is
// remembered: the second call returns the same error without a program.
func TestCacheCompileFailureMemoized(t *testing.T) {
	cache := mkernel.NewCache()
	bad := mkernel.Config{Tile: mkernel.Tile{MR: 4, NR: 5}, KC: 9, Lanes: 4} // NR not a multiple of σ
	_, err1 := cache.CompiledKernel(bad)
	if err1 == nil {
		t.Fatal("expected a generation failure")
	}
	cp, err2 := cache.CompiledKernel(bad)
	if cp != nil || err2 != err1 {
		t.Fatalf("failure not memoized: got (%v, %v), first error %v", cp, err2, err1)
	}
}
