package mkernel

import "sync"

// CountAnalyses tallies, by kernel name, every analyzer run the
// generation gate makes until the returned stop function is called;
// stop returns the tally.
func CountAnalyses() (stop func() map[string]int) {
	var mu sync.Mutex
	counts := map[string]int{}
	analyzeHook = func(name string) {
		mu.Lock()
		counts[name]++
		mu.Unlock()
	}
	return func() map[string]int {
		analyzeHook = nil
		mu.Lock()
		defer mu.Unlock()
		return counts
	}
}
