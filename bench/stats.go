package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is not modified; an empty sample gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of positive values; an empty sample
// gives 0.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// resolvedPercentile is the highest percentile a sample of n supports:
// the one with at least ten samples beyond it.
func resolvedPercentile(n int) float64 {
	if n < 20 {
		return 0
	}
	return 100 * (1 - 10/float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// The host this benchmark runs on is shared: other tenants slow its
// CPUs by up to 2×, in bursts of a fraction of a second to minutes.
// After every sub-window the benchmark times calibrate, a fixed integer
// loop that touches no code of the program, and scales the
// sub-window's time and latencies by how much slower than calRef it
// ran. The end-to-end metrics are thus taken at one reference host
// speed; the uncorrected values are printed beside them. The loop runs
// while the workload is idle, so the program's own work cannot slow it.

// calRef is the calibration loop's time on an undisturbed 2-CPU host.
const calRef = 2500 * time.Microsecond

var calTable [512]uint64

// calSink keeps the loop's result alive.
var calSink uint64

// calibrate times a xorshift walk over a 4 KiB table: integer work,
// L1 loads and stores and data-dependent branches, the mix the
// engine's compiled kernels run on the host.
func calibrate() time.Duration {
	start := time.Now()
	h := uint64(88172645463325252)
	for i := 0; i < 400_000; i++ {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		calTable[h&511] += h
		if calTable[(h>>20)&511]&1 == 0 {
			h++
		}
	}
	calSink = h
	return time.Since(start)
}
