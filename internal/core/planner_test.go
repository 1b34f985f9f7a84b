package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"autogemm/internal/hw"
	"autogemm/internal/workload"
)

// coldHaltonShapes returns the first n distinct shapes of a Halton
// sequence with M, N and K log-uniform in [8, 320] — the shape set of
// the cold-shapes benchmark workload, in generation order.
func coldHaltonShapes(n int) []workload.Shape {
	lo, hi := math.Log(8), math.Log(320)
	dim := func(u float64) int { return int(math.Round(math.Exp(lo + u*(hi-lo)))) }
	seen := make(map[[3]int]bool, n)
	out := make([]workload.Shape, 0, n)
	for i := 1; len(out) < n; i++ {
		s := [3]int{dim(halton(i, 2)), dim(halton(i, 3)), dim(halton(i, 5))}
		if !seen[s] {
			seen[s] = true
			out = append(out, workload.Shape{M: s[0], N: s[1], K: s[2]})
		}
	}
	return out
}

// producedPlansDigest is the SHA-256 of the encoded Produce plans
// (blocking, tilings, Cost floats, kernel keys) for every modeled chip
// × 60 cold Halton shapes × three option sets.
const producedPlansDigest = "673e9aed132320195cd64b34c64c4c8e6472530365b5960e4f76f16ca7d1c51a"

// TestProducePlansUnchanged pins the planner's output bit for bit, so
// a planner speed-up cannot change a tiling, a kernel key or a cost.
// The digest holds on amd64 only: on arm64 gc may contract x*y + z
// into a fused multiply-add, which rounds the cost floats differently.
func TestProducePlansUnchanged(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("cost floats are pinned for amd64; other architectures may fuse multiply-adds")
	}
	h := sha256.New()
	for _, chip := range hw.All() {
		optSets := []Options{
			AutoOptions(chip),
			{Pack: PackOnline},
			{Pack: PackOnline, Fuse: true},
		}
		for _, s := range coldHaltonShapes(60) {
			for _, opts := range optSets {
				rec, err := Produce(chip, s.M, s.N, s.K, opts)
				if err != nil {
					t.Fatalf("%s %dx%dx%d: %v", chip.Name, s.M, s.N, s.K, err)
				}
				enc, err := rec.Encode()
				if err != nil {
					t.Fatal(err)
				}
				h.Write(enc)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != producedPlansDigest {
		t.Errorf("produced plans digest %s, want %s", got, producedPlansDigest)
	}
}

// BenchmarkProduceCold plans the first 100 cold-shapes workload shapes
// on KP920 with nothing cached: the DMT planner's cold cost per call.
func BenchmarkProduceCold(b *testing.B) {
	chip := hw.KP920()
	shapes := coldHaltonShapes(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := shapes[i%len(shapes)]
		if _, err := Produce(chip, s.M, s.N, s.K, AutoOptions(chip)); err != nil {
			b.Fatal(err)
		}
	}
}
