package main

import (
	"math"
	"time"

	"autogemm"
	"autogemm/internal/workload"
)

// cold-shapes: distinct shapes with M, N and K log-uniform in [8, 320],
// each met once. A shape's first Engine.Multiply misses the plan cache,
// so the DMT planner (core.Produce) runs and the first execution
// generates the kernels; warmCalls warm calls follow on the same
// default-mode engine, so plan-cache writes sit beside reads. The
// operation is the shape, and its latency is the first call's.
//
// The cold call is made on coldStarts fresh engines and the faster is
// kept: a first call happens once per engine, so this is how the
// benchmark takes the less disturbed of two measurements of it, as the
// other workloads do with their sub-windows. The list is not
// time-boxed: a window of d takes d×coldRate shapes, whatever they cost.

const (
	coldRate   = 20 // shapes per second of window, about real time on 2 CPUs
	coldStarts = 2
	warmCalls  = 3

	// A cached plan holds about half a megabyte, so fresh engines take
	// over every enginePlans shapes to bound the process's memory.
	enginePlans = 50

	toleranceEvery = 16 // refgemm checks every 16th shape
	coldProbes     = 48 // shapes the traced run's probes time
)

// coldWarmups are planned and run in set-up, so process-wide lazy state
// is built before the window. M = 7 keeps them off the list.
var coldWarmups = []workload.Shape{{M: 7, N: 36, K: 20}, {M: 7, N: 96, K: 96}, {M: 7, N: 200, K: 150}, {M: 7, N: 320, K: 320}}

type coldRunner struct {
	seed   uint64
	shapes []workload.Shape
	next   int       // first shape no window has taken
	pool   []float32 // operand values; A and B are seeded windows of it
	c      []float32 // scratch C

	engs [coldStarts]*autogemm.Engine
	ref  *autogemm.Engine
	live []*problem  // shapes planned on the engines
	outs [][]float32 // their first-call results, until referenced
}

func setupCold(cfg config) (runner, error) {
	n := max(len(coldWarmups), int(math.Round(cfg.window.Seconds()*coldRate)))
	r := &coldRunner{
		seed:   cfg.seed,
		shapes: coldShapes(cfg.seed, n),
		pool:   make([]float32, 2*coldMax*coldMax),
		c:      make([]float32, coldMax*coldMax),
	}
	newRNG(cfg.seed, streamOperands).fill(r.pool)
	if err := r.fresh(); err != nil {
		return nil, err
	}
	for i, s := range coldWarmups {
		p := r.problem(s, -1-i)
		if _, _, _, err := r.calls(nil, p, &window{}); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// problem gives list entry i its operands: windows of the pool at
// offsets drawn from the seed and i.
func (r *coldRunner) problem(s workload.Shape, i int) *problem {
	o := newRNG(r.seed, streamOperands+uint64(i+len(coldWarmups)+1)<<8)
	offA := o.intn(len(r.pool) - s.M*s.K + 1)
	offB := o.intn(len(r.pool) - s.K*s.N + 1)
	return &problem{Shape: s, a: r.pool[offA : offA+s.M*s.K], b: r.pool[offB : offB+s.K*s.N]}
}

// fresh replaces the engines and the reference engine.
func (r *coldRunner) fresh() error {
	r.close()
	r.engs, r.ref = [coldStarts]*autogemm.Engine{}, nil
	for i := range r.engs {
		eng, err := autogemm.New(chip)
		if err != nil {
			r.close()
			return err
		}
		r.engs[i] = eng
	}
	ref, err := newReference()
	if err != nil {
		r.close()
		return err
	}
	r.ref = ref
	r.live, r.outs = r.live[:0], r.outs[:0]
	return nil
}

// settle computes the reference of every live shape that has none yet
// and holds its first-call result to it. It runs outside the calls
// being timed and after the engines' counters are read.
func (r *coldRunner) settle() (int, error) {
	wrong := 0
	for i, p := range r.live {
		if p.ref != nil {
			continue
		}
		if err := setReference(r.engs[0], r.ref, p); err != nil {
			return 0, err
		}
		if !sameBits(r.outs[i], p.ref) {
			wrong++
		}
		r.outs[i] = nil
	}
	return wrong, nil
}

func (r *coldRunner) check() (int, error) {
	wrong, err := r.settle()
	if err != nil {
		return 0, err
	}
	for _, p := range r.live {
		c := r.c[:p.M*p.N]
		clear(c)
		if err := r.engs[0].Multiply(c, p.a, p.b, p.M, p.N, p.K); err != nil {
			return 0, err
		}
		if !sameBits(c, p.ref) {
			wrong++
		}
	}
	return wrong, nil
}

func (r *coldRunner) stats() (s [coldStarts]autogemm.PlanCacheStats) {
	for i, e := range r.engs {
		s[i] = e.PlanCacheStats()
	}
	return s
}

// measure takes the next d×coldRate shapes, each a sub-window of its own.
func (r *coldRunner) measure(d time.Duration, tr *tracer) (window, error) {
	var w window
	var counters engineCounters
	before := r.stats()
	// settle folds in the engines' counters, then references the shapes.
	settle := func() error {
		for i, e := range r.engs {
			counters.add(before[i], e.PlanCacheStats())
		}
		wrong, err := r.settle()
		w.wrong += int64(wrong)
		return err
	}
	for n := max(1, int(math.Round(d.Seconds()*coldRate))); n > 0 && r.next < len(r.shapes); n-- {
		if len(r.live) >= enginePlans {
			if err := settle(); err != nil {
				return w, err
			}
			if err := r.fresh(); err != nil {
				return w, err
			}
			before = r.stats()
		}
		i := r.next
		r.next++
		p := r.problem(r.shapes[i], i)
		w.attempted++
		first, busy, cal, err := r.calls(tr, p, &w)
		if err != nil {
			w.failed++
			continue
		}
		if i%toleranceEvery == 0 && !withinTolerance(p, r.outs[len(r.outs)-1]) {
			w.wrong++
		}
		w.chunks = append(w.chunks, chunk{d: busy, ops: 1, flops: float64(1+warmCalls) * p.FLOPs(), lat: []float64{ms(first)}, cal: cal})
	}
	if err := settle(); err != nil {
		return w, err
	}
	if tr != nil {
		w.layer = map[string]float64{}
		counters.layers(w.layer)
	}
	return w, nil
}

// calls makes p's cold calls, one per engine, then its warm calls on the
// first engine, each from a zeroed C, and holds every result to the
// first. first is the faster cold call; busy adds the warm calls to it;
// cal is the mean calibration time just before and after the cold calls.
func (r *coldRunner) calls(tr *tracer, p *problem, w *window) (first, busy, cal time.Duration, err error) {
	c := r.c[:p.M*p.N]
	out := make([]float32, len(c))
	first = math.MaxInt64
	cal = calibrate()
	for j := 0; j < coldStarts+warmCalls; j++ {
		eng, resolve := r.engs[0], "api.plan_resolve"
		if j < coldStarts {
			eng, resolve = r.engs[j], "plan.cold_planfor"
		}
		clear(c)
		t0 := time.Now()
		if tr == nil {
			err = eng.Multiply(c, p.a, p.b, p.M, p.N, p.K)
		} else {
			err = tracedMultiply(tr, eng, p, c, resolve)
		}
		d := time.Since(t0)
		if err != nil {
			return 0, 0, 0, err
		}
		switch {
		case j == 0:
			copy(out, c)
			r.live, r.outs = append(r.live, p), append(r.outs, out)
		case !sameBits(c, out):
			w.wrong++
		}
		if j < coldStarts {
			first = min(first, d)
		} else {
			busy += d
		}
		if j == coldStarts-1 {
			cal = (cal + calibrate()) / 2
		}
	}
	return first, first + busy, cal, nil
}

func (r *coldRunner) probeSet() []*problem {
	ps := make([]*problem, 0, coldProbes)
	for i := 0; i < len(r.shapes) && i < coldProbes; i++ {
		ps = append(ps, r.problem(r.shapes[i], i))
	}
	return ps
}

func (r *coldRunner) close() {
	for _, e := range r.engs {
		if e != nil {
			e.Close()
		}
	}
	if r.ref != nil {
		r.ref.Close()
	}
}
