package compile

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// The executor must run every strided loop through the SSE loop; the
// pure-Go loop is reachable only from tests on amd64.
func TestRunAffineIsSSE(t *testing.T) {
	if reflect.ValueOf(runAffine).Pointer() != reflect.ValueOf(execAffineSSE).Pointer() {
		t.Fatal("runAffine is not execAffineSSE on amd64")
	}
}

// affineOperands are the values the operand panels are drawn from:
// signed zeros, subnormals, the largest finite magnitudes (whose
// products overflow to ±Inf), infinities (Inf·0 is NaN), a quiet NaN
// with a payload, and ordinary values.
var affineOperands = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	1e-40, -3e-39, 1.1754942e-38, // subnormals; the last is just below the smallest normal
	1.1754944e-38, // smallest normal
	3.4e38, -3.4e38, math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00123),
	1, -1, 0.5, 3, -7.25, 1e-20, 1e20,
}

// The memory a random group works on: a panel the multiplicands and
// scalars are read from, then 16 accumulator slots of 4 floats. Every
// group's reads stay inside the panel.
const (
	affPanel = 1024
	affAccs  = 16
)

// randGroup builds a group the way execRegion resolves one against mem:
// k (1, 2 or 4) distinct accumulators, each set up from its own slot, a
// panel vector or the zero vector; n from 0 to 40 steps; and strides
// drawn from zero, small, negative and large.
func randGroup(rng *rand.Rand, mem []float32) affineGroup {
	base := unsafe.Pointer(&mem[0])
	g := affineGroup{k: []int64{1, 2, 4}[rng.Intn(3)]}
	switch rng.Intn(4) {
	case 0:
		g.n = 0
	case 1:
		g.n = 1
	default:
		g.n = 2 + rng.Int63n(39)
	}
	// stride returns a byte stride and a start element such that start
	// + j·stride/4 stays in [0, affPanel-width] for j < n.
	stride := func(width int64) (int64, int64) {
		var s int64
		switch rng.Intn(4) {
		case 0:
		case 1:
			s = 1 + rng.Int63n(8)
		case 2:
			s = -1 - rng.Int63n(8)
		default:
			s = 16 + rng.Int63n(8)
		}
		span := s * max(g.n-1, 0)
		lo, hi := min(int64(0), span), max(int64(0), span)
		start := -lo + rng.Int63n(affPanel-width-(hi-lo)+1)
		return s * 4, start
	}
	sa, a := stride(4)
	g.a, g.sa = unsafe.Add(base, a*4), sa
	slots := rng.Perm(affAccs)
	for i := int64(0); i < g.k; i++ {
		d := unsafe.Add(base, (affPanel+int64(slots[i])*4)*4)
		g.d[i] = d
		switch rng.Intn(3) {
		case 0:
			g.s[i] = d
		case 1:
			g.s[i] = unsafe.Add(base, rng.Int63n(affPanel-4)*4)
		default:
			g.s[i] = unsafe.Pointer(&zeroVec)
		}
		sb, b := stride(1)
		g.b[i], g.sb[i] = unsafe.Add(base, b*4), sb
	}
	return g
}

// rebase moves a group's pointers from one copy of the memory to
// another.
func rebase(g affineGroup, from, to []float32) affineGroup {
	lo, hi := uintptr(unsafe.Pointer(&from[0])), uintptr(unsafe.Pointer(&from[len(from)-1]))
	move := func(p unsafe.Pointer) unsafe.Pointer {
		if u := uintptr(p); u >= lo && u <= hi {
			return unsafe.Pointer(&to[(u-lo)/4])
		}
		return p
	}
	g.a = move(g.a)
	for i := range g.d {
		if g.d[i] != nil {
			g.d[i], g.b[i], g.s[i] = move(g.d[i]), move(g.b[i]), move(g.s[i])
		}
	}
	return g
}

// TestAffineSSEMatchesGo runs the SSE loop and the pure-Go reference on
// copies of one memory image and requires the images to match bit for
// bit, except where both hold a NaN. NaN payloads cannot be pinned: when
// both operands of a multiply or add are NaN, x86 returns the first
// source's payload, and the gc compiler picks which operand is the
// MULSS/ADDSS destination per lane by register allocation, so the Go
// loop itself has no fixed payload to match.
func TestAffineSSEMatchesGo(t *testing.T) {
	const n = affPanel + affAccs*4
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 600; iter++ {
		// Special operands in none, a few or a third of the image, so
		// some accumulators stay finite and some meet Inf and NaN.
		special := []int{0, 64, 3}[iter%3]
		want := make([]float32, n)
		for i := range want {
			if special > 0 && rng.Intn(special) == 0 {
				want[i] = affineOperands[rng.Intn(len(affineOperands))]
			} else {
				want[i] = rng.Float32()*4 - 2
			}
		}
		got := append([]float32(nil), want...)
		g := randGroup(rng, want)
		execAffine(&g)
		sse := rebase(g, want, got)
		execAffineSSE(&sse)
		for i := range got {
			gv, wv := got[i], want[i]
			if gv != gv && wv != wv {
				continue
			}
			if math.Float32bits(gv) != math.Float32bits(wv) {
				t.Fatalf("iter %d (k %d, n %d, sa %d, sb %v): mem[%d]: sse %#08x (%g), go %#08x (%g)",
					iter, g.k, g.n, g.sa, g.sb[:g.k], i, math.Float32bits(gv), gv, math.Float32bits(wv), wv)
			}
		}
	}
}
