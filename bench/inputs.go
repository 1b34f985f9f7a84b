package main

import (
	"math"

	"autogemm/internal/workload"
)

// Every input a workload sees is drawn from the run's seed: operand
// values, call sequences and the order of the cold shapes. Each use
// draws from its own stream, so adding a draw to one never shifts
// another.
const (
	streamOperands = iota + 1
	streamCalls
	streamShapes
	streamBatch
)

// rng is splitmix64: tiny, fast and stable across Go releases, so a seed
// names the same inputs on every toolchain.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fill writes uniform values in [-1, 1), the range refgemm.Fill uses, so
// float32 accumulation stays well inside the 1e-6 tolerance.
func (r *rng) fill(s []float32) {
	for i := range s {
		s[i] = float32(r.float()*2 - 1)
	}
}

// problem is one GEMM with its operands and, once computed, the serial
// reference C = A·B.
type problem struct {
	workload.Shape
	a, b []float32
	ref  []float32
}

// problems draws operands for each shape from the seed.
func problems(shapes []workload.Shape, seed uint64) []*problem {
	r := newRNG(seed, streamOperands)
	out := make([]*problem, len(shapes))
	for i, s := range shapes {
		p := &problem{Shape: s, a: make([]float32, s.M*s.K), b: make([]float32, s.K*s.N)}
		r.fill(p.a)
		r.fill(p.b)
		out[i] = p
	}
	return out
}

// sequence draws n indices uniformly from [0, k): the order a closed or
// open loop visits its shapes in.
func sequence(seed, stream uint64, n, k int) []int {
	r := newRNG(seed, stream)
	out := make([]int, n)
	for i := range out {
		out[i] = r.intn(k)
	}
	return out
}

// tableV is the 20 ResNet-50 layers of the paper's Table V.
func tableV() []workload.Shape { return workload.ResNet50() }

// smallShapes is the small-gemm mix: the Fig 8 cubes from 8 to 80, the
// six Fig 7 sub-matrix blocks, and the paper's 26×36×20 running example.
func smallShapes() []workload.Shape {
	var out []workload.Shape
	for _, s := range workload.SmallSweep() {
		if s.M >= 8 && s.M <= 80 {
			out = append(out, s)
		}
	}
	out = append(out, workload.Fig7Blocks()...)
	return append(out, workload.Shape{M: 26, N: 36, K: 20})
}

// Cold shapes have M, N and K log-uniform in [coldMin, coldMax].
const (
	coldMin = 8
	coldMax = 320
)

// coldShapes returns n distinct shapes with M, N and K log-uniform in
// [coldMin, coldMax], in an order drawn from the seed. The set is the
// first points of a Halton sequence in log space: evenly spread, and
// the same for every seed, so runs with different seeds time the same
// shapes and their percentiles differ by the host's noise alone.
func coldShapes(seed uint64, n int) []workload.Shape {
	lo, hi := math.Log(coldMin), math.Log(coldMax)
	dim := func(u float64) int { return int(math.Round(math.Exp(lo + u*(hi-lo)))) }
	seen := make(map[[3]int]bool, n)
	out := make([]workload.Shape, 0, n)
	for i := 1; len(out) < n; i++ {
		s := [3]int{dim(halton(i, 2)), dim(halton(i, 3)), dim(halton(i, 5))}
		if seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, workload.Shape{M: s[0], N: s[1], K: s[2]})
	}
	r := newRNG(seed, streamShapes)
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// halton returns the i-th point of the van der Corput sequence in the
// given base.
func halton(i, base int) float64 {
	f, x := 1.0, 0.0
	for ; i > 0; i /= base {
		f /= float64(base)
		x += f * float64(i%base)
	}
	return x
}
