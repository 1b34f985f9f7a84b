package mkernel_test

import (
	"sync"
	"testing"

	"autogemm/internal/mkernel"
	"autogemm/internal/sim/compile"
)

// TestCacheCompiledConcurrent races lazy generation and compilation:
// many goroutines ask for the asm and compiled forms of the same and of
// distinct kernels at once. Each key must yield exactly one program,
// shared by every caller, distinct keys distinct programs, and each key
// must be generated and analyzed exactly once — the compiled form is
// lowered from the generation gate's report. Run under -race it also
// checks that per-entry builds publish their results safely.
func TestCacheCompiledConcurrent(t *testing.T) {
	cache := mkernel.NewCache()
	var specs []mkernel.Spec
	for _, nr := range []int{4, 8, 12} {
		specs = append(specs, mkernel.Config{Tile: mkernel.Tile{MR: 4, NR: nr}, KC: 9, Lanes: 4,
			Rotate: true, LoadC: true})
	}
	specs = append(specs,
		mkernel.BandConfig{Segments: []mkernel.Segment{{Tile: mkernel.Tile{MR: 4, NR: 8}, Count: 2}},
			KC: 9, Lanes: 4, Fuse: true, LoadC: true},
		mkernel.BandConfig{Segments: []mkernel.Segment{{Tile: mkernel.Tile{MR: 4, NR: 8}, Count: 1}, {Tile: mkernel.Tile{MR: 4, NR: 4}, Count: 1}},
			KC: 9, Lanes: 4, Fuse: true, LoadC: true},
	)
	keys := len(specs)

	stop := mkernel.CountAnalyses()
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
			// so same-key and distinct-key requests overlap; even workers
			// ask for the asm form first, odd ones go straight to the
			// compiled form.
			for i := 0; i < keys; i++ {
				k := (i + w) % keys
				if w%2 == 0 {
					if _, err := cache.Program(specs[k]); err != nil {
						errs[w] = err
						return
					}
				}
				cp, err := cache.Compiled(specs[k])
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
	analyses := stop()

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
		if n := analyses[string(specs[k].Key())]; n != 1 {
			t.Errorf("%s analyzed %d times, want once", specs[k].Key(), n)
		}
	}
	if len(analyses) != keys {
		t.Errorf("analyzer ran for %d kernels, want %d: %v", len(analyses), keys, analyses)
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
	_, err1 := cache.Compiled(bad)
	if err1 == nil {
		t.Fatal("expected a generation failure")
	}
	cp, err2 := cache.Compiled(bad)
	if cp != nil || err2 != err1 {
		t.Fatalf("failure not memoized: got (%v, %v), first error %v", cp, err2, err1)
	}
}
