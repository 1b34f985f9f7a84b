package main

import (
	"fmt"
	"math"
	"sort"

	"autogemm"
	"autogemm/internal/refgemm"
)

// chip is the chip model every workload plans and estimates for.
const chip = "KP920"

// The correctness gate holds every result to the repository's
// bit-identity contract: the same plan executed by a single-worker
// serial engine gives the same bits as the workload's engine, whatever
// its batching, concurrency or transport. A sample is also held to the
// paper's 1e-6 relative-error criterion against refgemm.

// newReference returns the single-worker serial engine results are
// compared with.
func newReference() (*autogemm.Engine, error) {
	return autogemm.New(chip, autogemm.WithWorkers(1))
}

// setReference computes p.ref = A·B on ref, executing the plan eng
// resolved for p's shape. The plan crosses the codec (Encode, LoadPlan),
// so ref audits it before running it.
func setReference(eng, ref *autogemm.Engine, p *problem) error {
	pl, err := eng.PlanFor(nil, p.M, p.N, p.K)
	if err != nil {
		return fmt.Errorf("reference plan %v: %w", p.Shape, err)
	}
	data, err := pl.Encode()
	if err != nil {
		return fmt.Errorf("reference encode %v: %w", p.Shape, err)
	}
	rp, err := ref.LoadPlan(data)
	if err != nil {
		return fmt.Errorf("reference load %v: %w", p.Shape, err)
	}
	p.ref = make([]float32, p.M*p.N)
	if err := ref.MultiplyPlanned(rp, p.ref, p.a, p.b); err != nil {
		return fmt.Errorf("reference run %v: %w", p.Shape, err)
	}
	return nil
}

// sameBits reports whether two results are bit-identical.
func sameBits(got, want []float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return false
		}
	}
	return true
}

// withinTolerance checks a result for p against a plain refgemm product.
func withinTolerance(p *problem, got []float32) bool {
	want := make([]float32, p.M*p.N)
	refgemm.GEMM(p.M, p.N, p.K, p.a, p.K, p.b, p.N, want, p.N)
	return refgemm.MaxRelErr(got, want, p.M, p.N, p.N, p.N) <= refgemm.Tolerance
}

// references fills p.ref for every problem and checks the tolerance on
// the sample whose indices are listed; it returns how many sampled
// results were out of tolerance.
func references(eng, ref *autogemm.Engine, ps []*problem, sample []int) (int, error) {
	for _, p := range ps {
		if err := setReference(eng, ref, p); err != nil {
			return 0, err
		}
	}
	wrong := 0
	for _, i := range sample {
		if !withinTolerance(ps[i], ps[i].ref) {
			wrong++
		}
	}
	return wrong, nil
}

// smallest returns the indices of the n problems with the fewest flops:
// the refgemm sample, kept cheap.
func smallest(ps []*problem, n int) []int {
	idx := make([]int, len(ps))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return ps[idx[i]].FLOPs() < ps[idx[j]].FLOPs() })
	return idx[:min(n, len(idx))]
}
