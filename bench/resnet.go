package main

import (
	"sort"
	"time"

	"autogemm"
)

// resnet50-batch: a closed loop with one caller. Each operation is one
// Engine.MultiplyBatch over the 20 Table V layers on a two-worker
// engine, so kernel execution and the scheduler's multi-job claiming do
// nearly all the work; planning happens in set-up only, and HTTP not at
// all.

type batchRunner struct {
	eng, ref  *autogemm.Engine
	ps        []*problem
	batch     []autogemm.GEMM
	passFlops float64
}

func setupResNet(cfg config) (runner, error) {
	shapes := tableV()
	if cfg.small {
		sort.Slice(shapes, func(i, j int) bool { return shapes[i].FLOPs() < shapes[j].FLOPs() })
		shapes = shapes[:2]
	}
	eng, err := autogemm.New(chip, autogemm.WithWorkers(2))
	if err != nil {
		return nil, err
	}
	r := &batchRunner{eng: eng, ps: problems(shapes, cfg.seed)}
	for _, p := range r.ps {
		if _, err := eng.PlanFor(nil, p.M, p.N, p.K); err != nil {
			r.close()
			return nil, err
		}
		r.batch = append(r.batch, autogemm.GEMM{C: make([]float32, p.M*p.N), A: p.a, B: p.b, M: p.M, N: p.N, K: p.K})
		r.passFlops += p.FLOPs()
	}
	// The first pass builds each plan's kernels; set-up ends when the
	// engine runs at its steady speed.
	if err := eng.MultiplyBatch(r.batch); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *batchRunner) check() (int, error) {
	wrong := 0
	if r.ref == nil {
		ref, err := newReference()
		if err != nil {
			return 0, err
		}
		r.ref = ref
		if wrong, err = references(r.eng, r.ref, r.ps, smallest(r.ps, 2)); err != nil {
			return 0, err
		}
	}
	for _, g := range r.batch {
		clear(g.C)
	}
	if err := r.eng.MultiplyBatch(r.batch); err != nil {
		return 0, err
	}
	for i, g := range r.batch {
		if !sameBits(g.C, r.ps[i].ref) {
			wrong++
		}
	}
	return wrong, nil
}

// measure makes each pass a chunk of its own.
func (r *batchRunner) measure(d time.Duration, tr *tracer) (window, error) {
	var w window
	before := r.eng.PlanCacheStats()
	cal := calibrate()
	for start := time.Now(); time.Since(start) < d; {
		t0 := time.Now()
		err := r.eng.MultiplyBatch(r.batch)
		t1 := time.Now()
		tr.add("api.batch_pass", tr.newID(), 0, 0, laneCaller, t0, t1)
		next := calibrate()
		w.attempted++
		if err == nil {
			w.chunks = append(w.chunks, chunk{d: t1.Sub(t0), ops: 1, flops: r.passFlops, lat: []float64{ms(t1.Sub(t0))}, cal: (cal + next) / 2})
		} else {
			w.failed++
		}
		cal = next
	}
	if tr != nil {
		w.layer = engineLayers(before, r.eng.PlanCacheStats())
	}
	return w, nil
}

func (r *batchRunner) probeSet() []*problem { return r.ps }

func (r *batchRunner) close() {
	r.eng.Close()
	if r.ref != nil {
		r.ref.Close()
	}
}
