package compile

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// The executor must run every uChain4 micro-op through the SSE loop;
// the pure-Go loop is reachable only from tests on amd64.
func TestRunChainsIsSSE(t *testing.T) {
	if reflect.ValueOf(runChains).Pointer() != reflect.ValueOf(execChainsSSE).Pointer() {
		t.Fatal("runChains is not execChainsSSE on amd64")
	}
}

// chainOperands are the values the tables' operands are drawn from:
// signed zeros, subnormals, the largest finite magnitudes (whose
// products overflow to ±Inf), infinities (Inf·0 is NaN), a quiet NaN
// with a payload, and ordinary values.
var chainOperands = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	1e-40, -3e-39, 1.1754942e-38, // subnormals; the last is just below the smallest normal
	1.1754944e-38, // smallest normal
	3.4e38, -3.4e38, math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00123),
	1, -1, 0.5, 3, -7.25, 1e-20, 1e20,
}

// randChainTables builds chains the way schedule emits them: each
// accumulator (architectural registers 0..15) belongs to one chain and
// is never a source, while multiplicands and by-element scalars come
// from registers 16..31 and from the temp slots. Chains are single or
// paired, including zero-length and one-step chains.
func randChainTables(rng *rand.Rand) ([]chain, []step) {
	src := func() int32 { // a source register's byte offset
		if rng.Intn(2) == 0 {
			return int32(16+rng.Intn(16)) * 16
		}
		return int32(tempBase*4 + rng.Intn(maxTemps)*16)
	}
	accs := rng.Perm(16)
	var chains []chain
	var steps []step
	for len(accs) > 0 {
		ch := chain{d1: int32(accs[0]) * 16, d2: -1, lo: int32(len(steps))}
		accs = accs[1:]
		if len(accs) > 0 && rng.Intn(2) == 0 {
			ch.d2 = int32(accs[0]) * 16
			accs = accs[1:]
		}
		var n int
		switch rng.Intn(4) {
		case 0:
			n = 0
		case 1:
			n = 1
		default:
			n = 2 + rng.Intn(40)
		}
		for j := 0; j < n; j++ {
			s := step{a: src(), b1: src() + int32(rng.Intn(4))*4}
			if ch.d2 >= 0 {
				s.b2 = src() + int32(rng.Intn(4))*4
			}
			steps = append(steps, s)
		}
		ch.hi = int32(len(steps))
		chains = append(chains, ch)
	}
	return chains, steps
}

// TestChainsSSEMatchesGo runs the SSE loop and the pure-Go reference on
// copies of one vector file and requires the files to match bit for
// bit, except where both hold a NaN. NaN payloads cannot be pinned: when
// both operands of a multiply or add are NaN, x86 returns the first
// source's payload, and the gc compiler picks which operand is the
// MULSS/ADDSS destination per lane by register allocation (in one
// build of the Go pair loop, one lane's multiply compiled to
// MULSS X13, X10 and the next lane's to MULSS X11, X13), so the Go loop
// itself has no fixed payload to match.
func TestChainsSSEMatchesGo(t *testing.T) {
	const n = tempBase + maxTemps*4
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		chains, steps := randChainTables(rng)
		// Special operands in none, a few or a third of the file, so
		// some accumulators stay finite and some meet Inf and NaN.
		special := []int{0, 64, 3}[iter%3]
		want := make([]float32, n)
		for i := range want {
			if special > 0 && rng.Intn(special) == 0 {
				want[i] = chainOperands[rng.Intn(len(chainOperands))]
			} else {
				want[i] = rng.Float32()*4 - 2
			}
		}
		got := append([]float32(nil), want...)
		execChains(unsafe.Pointer(&want[0]), chains, steps)
		execChainsSSE(unsafe.Pointer(&got[0]), chains, steps)
		for i := range got {
			g, w := got[i], want[i]
			if g != g && w != w {
				continue
			}
			if math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("iter %d: v[%d]: sse %#08x (%g), go %#08x (%g)",
					iter, i, math.Float32bits(g), g, math.Float32bits(w), w)
			}
		}
	}
}
