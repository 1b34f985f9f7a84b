package main

import (
	"time"

	"autogemm"
)

// small-gemm: a closed loop with one caller making Engine.Multiply calls
// over a seeded uniform mix of small irregular shapes on a two-worker
// engine. Each call is microseconds of kernel work, so the cost outside
// the kernel (plan-cache hit, job submit, claim and completion, the
// pack path) is a large share of it.

type callRunner struct {
	eng, ref *autogemm.Engine
	ps       []*problem
	cs       [][]float32 // one C per shape; calls accumulate into it
	seq      []int       // the seeded visiting order, cycled
	pos      int
}

// callSeqLen is the length of the seeded call order before it repeats.
const callSeqLen = 1 << 16

func setupSmall(cfg config) (runner, error) {
	shapes := smallShapes()
	if cfg.small {
		shapes = shapes[len(shapes)-4:]
	}
	eng, err := autogemm.New(chip, autogemm.WithWorkers(2))
	if err != nil {
		return nil, err
	}
	r := &callRunner{eng: eng, ps: problems(shapes, cfg.seed), seq: sequence(cfg.seed, streamCalls, callSeqLen, len(shapes))}
	for _, p := range r.ps {
		c := make([]float32, p.M*p.N)
		if err := eng.Multiply(c, p.a, p.b, p.M, p.N, p.K); err != nil {
			r.close()
			return nil, err
		}
		r.cs = append(r.cs, c)
	}
	return r, nil
}

func (r *callRunner) check() (int, error) {
	wrong := 0
	if r.ref == nil {
		ref, err := newReference()
		if err != nil {
			return 0, err
		}
		r.ref = ref
		if wrong, err = references(r.eng, r.ref, r.ps, smallest(r.ps, len(r.ps))); err != nil {
			return 0, err
		}
	}
	for i, p := range r.ps {
		c := r.cs[i]
		clear(c)
		if err := r.eng.Multiply(c, p.a, p.b, p.M, p.N, p.K); err != nil {
			return 0, err
		}
		if !sameBits(c, p.ref) {
			wrong++
		}
	}
	return wrong, nil
}

// smallChunk is the sub-window length: about 1,800 calls.
const smallChunk = 200 * time.Millisecond

func (r *callRunner) measure(d time.Duration, tr *tracer) (window, error) {
	var w window
	before := r.eng.PlanCacheStats()
	cal := calibrate()
	for start := time.Now(); time.Since(start) < d; {
		var c chunk
		t0 := time.Now()
		for time.Since(t0) < smallChunk {
			i := r.seq[r.pos%len(r.seq)]
			r.pos++
			p, out := r.ps[i], r.cs[i]
			c0 := time.Now()
			var err error
			if tr == nil {
				err = r.eng.Multiply(out, p.a, p.b, p.M, p.N, p.K)
			} else {
				err = tracedMultiply(tr, r.eng, p, out, "api.plan_resolve")
			}
			c1 := time.Now()
			w.attempted++
			if err != nil {
				w.failed++
				continue
			}
			c.ops++
			c.flops += p.FLOPs()
			c.lat = append(c.lat, ms(c1.Sub(c0)))
		}
		c.d = time.Since(t0)
		next := calibrate()
		c.cal, cal = (cal+next)/2, next
		w.chunks = append(w.chunks, c)
	}
	if tr != nil {
		w.layer = engineLayers(before, r.eng.PlanCacheStats())
	}
	return w, nil
}

// tracedMultiply is Engine.Multiply split into the same two steps it
// takes, PlanFor and MultiplyPlanned, each a child span of one api.call
// span. resolve names the plan step's span.
func tracedMultiply(tr *tracer, eng *autogemm.Engine, p *problem, c []float32, resolve string) error {
	id := tr.newID()
	start := time.Now()
	var pl *autogemm.Plan
	err := tr.timed(resolve, id, id, laneCaller, func() (err error) {
		pl, err = eng.PlanFor(nil, p.M, p.N, p.K)
		return err
	})
	if err == nil {
		err = tr.timed("api.run", id, id, laneCaller, func() error {
			return eng.MultiplyPlanned(pl, c, p.a, p.b)
		})
	}
	tr.add("api.call", id, 0, 0, laneCaller, start, time.Now())
	return err
}

func (r *callRunner) probeSet() []*problem { return r.ps }

func (r *callRunner) close() {
	r.eng.Close()
	if r.ref != nil {
		r.ref.Close()
	}
}
