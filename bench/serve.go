package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"time"

	"autogemm"
	"autogemm/internal/sched"
	"autogemm/internal/serve"
	"autogemm/internal/workload"
)

// serve-mixed: a real serve.Server behind httptest, driven over exactly
// two connections by two client loops that are the two tasks of one
// sched job (no bare goroutines).
//
//   - The interactive tenant is an open loop at interactiveRate, evenly
//     spaced: /v1/multiply on three small shapes, class weight 16, a
//     100 ms deadline. Each request is timed from when it was due, so a
//     stall also charges the requests queued behind it.
//   - The analytics tenant is a closed loop of 8-element /v1/batch
//     requests on three larger shapes, class weight 1, admission depth
//     16: at least the burst size, so nothing is shed by design.
//
// HTTP/JSON and QoS claiming dominate the interactive path, and the
// analytics load makes the latency class contend for the engine's two
// workers. The rate sits below the single-connection knee, which lies
// between 200 and 400 req/s on a 2-CPU host.

const (
	tenantInteractive = "interactive"
	tenantAnalytics   = "analytics"
	classLatency      = "latency"
	classBatch        = "batch"

	interactiveRate     = 150 // requests per second
	interactiveDeadline = 100 * time.Millisecond
	sloLimit            = 10 * time.Millisecond // serve.slo_met_frac: answered 200 this soon after due
	analyticsBatch      = 8
	analyticsDepth      = 16
)

func interactiveShapes() []workload.Shape {
	return []workload.Shape{{M: 26, N: 36, K: 20}, {M: 48, N: 40, K: 32}, {M: 64, N: 48, K: 24}}
}

func analyticsShapes() []workload.Shape {
	return []workload.Shape{{M: 96, N: 96, K: 96}, {M: 128, N: 96, K: 64}, {M: 160, N: 64, K: 80}}
}

type serveRunner struct {
	eng, ref  *autogemm.Engine
	hs        *httptest.Server
	spans     *serverSpans
	transport *http.Transport
	plain     *http.Client // untraced windows
	traced    *http.Client // tells the server each request's client span
	fleet     *sched.Pool  // runs the two client loops

	inter, anal       []*problem
	interSeq, analSeq []int
	interPos, analPos int
}

func setupServe(cfg config) (runner, error) {
	ps := problems(append(interactiveShapes(), analyticsShapes()...), cfg.seed)
	eng, err := autogemm.New(chip, autogemm.WithWorkers(2))
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		Engine: eng,
		Tenants: map[string]serve.TenantConfig{
			tenantInteractive: {Class: classLatency, Weight: 16, DeadlineMs: int(interactiveDeadline / time.Millisecond)},
			tenantAnalytics:   {Class: classBatch, Weight: 1, Depth: analyticsDepth},
		},
	})
	if err != nil {
		eng.Close()
		return nil, err
	}
	r := &serveRunner{
		eng:       eng,
		spans:     &serverSpans{next: srv.Handler()},
		transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		fleet:     sched.New(2, 0),
		inter:     ps[:3],
		anal:      ps[3:],
		interSeq:  sequence(cfg.seed, streamCalls, callSeqLen, 3),
		analSeq:   sequence(cfg.seed, streamBatch, callSeqLen, 3),
	}
	r.hs = httptest.NewServer(r.spans)
	r.plain = &http.Client{Transport: r.transport}
	r.traced = &http.Client{Transport: spanTransport{r.transport}}
	// Plan and build every shape through the server.
	for _, p := range ps {
		if _, err := r.client(nil, r.tenantOf(p)).Multiply(context.Background(), p.M, p.N, p.K, p.a, p.b, 0); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *serveRunner) tenantOf(p *problem) string {
	for _, q := range r.anal {
		if q == p {
			return tenantAnalytics
		}
	}
	return tenantInteractive
}

func (r *serveRunner) client(tr *tracer, tenant string) *serve.Client {
	hc := r.plain
	if tr != nil {
		hc = r.traced
	}
	return &serve.Client{Base: r.hs.URL, Tenant: tenant, HTTP: hc}
}

func (r *serveRunner) check() (int, error) {
	ps := append(append([]*problem(nil), r.inter...), r.anal...)
	wrong := 0
	if r.ref == nil {
		ref, err := newReference()
		if err != nil {
			return 0, err
		}
		r.ref = ref
		if wrong, err = references(r.eng, r.ref, ps, smallest(ps, len(ps))); err != nil {
			return 0, err
		}
	}
	for _, p := range ps {
		c, err := r.client(nil, r.tenantOf(p)).Multiply(context.Background(), p.M, p.N, p.K, p.a, p.b, 0)
		if err != nil {
			return 0, err
		}
		if !sameBits(c, p.ref) {
			wrong++
		}
	}
	return wrong, nil
}

// serveChunk is the sub-window length: 150 interactive requests. Each
// sub-window restarts the open loop's schedule.
const serveChunk = time.Second

// loopStats is one client loop's tally. Each loop writes only its own.
type loopStats struct {
	attempted, failed, wrong int64
	done                     []completion
	late                     []float64 // ms the send started after due
	sloMet                   int64
	non200                   int64 // error lines of batch responses
}

// completion is one response: an interactive request, with its latency
// in ms from when it was due, or an analytics batch with the elements it
// completed. A chunk's operations are the analytics elements: the
// interactive request rate is fixed by the open loop.
type completion struct {
	lat   float64
	ops   int64
	flops float64
}

// measure runs the two loops one sub-window at a time, as one fleet job
// per sub-window, so the calibration loop runs while both are idle.
func (r *serveRunner) measure(d time.Duration, tr *tracer) (window, error) {
	r.spans.start(tr)
	defer r.spans.stop()
	before := r.eng.PlanCacheStats()
	var w window
	var inter, anal loopStats
	cal := calibrate()
	for start := time.Now(); time.Since(start) < d; {
		t0 := time.Now()
		end := t0.Add(min(serveChunk, d-t0.Sub(start)))
		i0, a0 := len(inter.done), len(anal.done)
		fut, err := r.fleet.Submit(2, 0, func(_ *sched.Worker, task int) error {
			if task == 0 {
				r.interactive(tr, t0, end, &inter)
			} else {
				r.analytics(tr, end, &anal)
			}
			return nil
		})
		if err != nil {
			return window{}, err
		}
		if err := fut.Wait(); err != nil {
			return window{}, err
		}
		c := chunk{d: time.Since(t0)}
		for _, x := range inter.done[i0:] {
			c.flops += x.flops
			c.lat = append(c.lat, x.lat)
		}
		for _, x := range anal.done[a0:] {
			c.ops += x.ops
			c.flops += x.flops
		}
		next := calibrate()
		c.cal, cal = (cal+next)/2, next
		w.chunks = append(w.chunks, c)
	}
	w.attempted = inter.attempted + anal.attempted
	w.failed = inter.failed + anal.failed
	w.wrong = inter.wrong + anal.wrong
	if tr != nil {
		w.layer = engineLayers(before, r.eng.PlanCacheStats())
		w.layer["gen.late_p50_ms"] = median(inter.late)
		w.layer["gen.late_p99_ms"] = quantile(inter.late, 0.99)
		if inter.attempted > 0 {
			w.layer["serve.slo_met_frac"] = float64(inter.sloMet) / float64(inter.attempted)
		}
		r.spans.layers(w.layer)
		w.layer["serve.status_non200"] += float64(anal.non200)
	}
	return w, nil
}

// interactive is the open loop: request i is due at start + i/rate.
func (r *serveRunner) interactive(tr *tracer, start, end time.Time, st *loopStats) {
	cl := r.client(tr, tenantInteractive)
	interval := time.Second / interactiveRate
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		p := r.inter[r.interSeq[r.interPos%len(r.interSeq)]]
		r.interPos++
		id := tr.newID()
		sent := time.Now()
		c, err := cl.Multiply(spanContext(id), p.M, p.N, p.K, p.a, p.b, 0)
		done := time.Now()
		tr.add("serve.client", id, 0, 0, laneInteractive, sent, done)
		st.attempted++
		st.late = append(st.late, ms(sent.Sub(due)))
		if err != nil {
			st.failed++
			continue
		}
		after := done.Sub(due)
		if after > interactiveDeadline {
			st.failed++ // answered, but too late to count
		}
		if after <= sloLimit {
			st.sloMet++
		}
		if !sameBits(c, p.ref) {
			st.wrong++
		}
		st.done = append(st.done, completion{lat: ms(after), flops: p.FLOPs()})
	}
}

// analytics is the closed loop of batch requests.
func (r *serveRunner) analytics(tr *tracer, end time.Time, st *loopStats) {
	cl := r.client(tr, tenantAnalytics)
	elems := make([]serve.GEMMRequest, analyticsBatch)
	ps := make([]*problem, analyticsBatch)
	for time.Now().Before(end) {
		for j := range elems {
			p := r.anal[r.analSeq[r.analPos%len(r.analSeq)]]
			r.analPos++
			ps[j] = p
			elems[j] = serve.GEMMRequest{M: p.M, N: p.N, K: p.K, A: p.a, B: p.b}
		}
		id := tr.newID()
		t0 := time.Now()
		lines, err := cl.Batch(spanContext(id), elems)
		t1 := time.Now()
		tr.add("serve.batch", id, 0, 0, laneAnalytics, t0, t1)
		st.attempted += int64(len(elems))
		if err != nil {
			st.failed += int64(len(elems))
			continue
		}
		var batch completion
		for j, line := range lines {
			if line.Err() != nil {
				st.failed++
				st.non200++
				continue
			}
			if !sameBits(line.C, ps[j].ref) {
				st.wrong++
			}
			batch.ops++
			batch.flops += ps[j].FLOPs()
		}
		st.done = append(st.done, batch)
	}
}

func (r *serveRunner) probeSet() []*problem {
	return append(append([]*problem(nil), r.inter...), r.anal...)
}

func (r *serveRunner) close() {
	r.hs.Close()
	r.transport.CloseIdleConnections()
	r.fleet.Close()
	r.eng.Close()
	if r.ref != nil {
		r.ref.Close()
	}
}

// Client spans reach the server as a request header, set by the traced
// client's transport from the request's context.
const spanHeader = "X-Bench-Span"

type spanKey struct{}

func spanContext(id int64) context.Context {
	if id == 0 {
		return context.Background()
	}
	return context.WithValue(context.Background(), spanKey{}, id)
}

type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(spanKey{}).(int64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(req)
}

// serverSpans wraps the server's handler. While a traced window runs it
// records a handler span per request, split at the first write into the
// part before the response (decode, validate, plan resolve, submit,
// queue and execution) and the write itself (encode and send), and
// counts request and response bytes and non-200 statuses.
type serverSpans struct {
	next http.Handler
	tr   atomic.Pointer[tracer]

	requests, reqBytes, respBytes, non200 atomic.Int64
}

func (s *serverSpans) start(tr *tracer) {
	s.requests.Store(0)
	s.reqBytes.Store(0)
	s.respBytes.Store(0)
	s.non200.Store(0)
	s.tr.Store(tr)
}

func (s *serverSpans) stop() { s.tr.Store(nil) }

func (s *serverSpans) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	tr := s.tr.Load()
	if tr == nil {
		s.next.ServeHTTP(w, req)
		return
	}
	start := time.Now()
	parent, _ := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
	body := &countingReader{r: req.Body}
	req.Body = body
	rw := &spanWriter{ResponseWriter: w, status: http.StatusOK}
	s.next.ServeHTTP(rw, req)
	end := time.Now()
	if rw.first.IsZero() {
		rw.first = end
	}

	name, lane := "serve.", laneHandlerInteractive
	if req.URL.Path == "/v1/batch" {
		name, lane = "serve.batch_", laneHandlerAnalytics
	} else {
		s.requests.Add(1)
		s.reqBytes.Add(body.n)
		s.respBytes.Add(rw.n)
	}
	if rw.status != http.StatusOK {
		s.non200.Add(1)
	}
	id := tr.newID()
	tr.add(name+"pre_write", tr.newID(), id, parent, lane, start, rw.first)
	tr.add(name+"write", tr.newID(), id, parent, lane, rw.first, end)
	tr.add(name+"handler", id, parent, parent, lane, start, end)
}

// layers reports the interactive path's bytes and every non-200.
func (s *serverSpans) layers(out map[string]float64) {
	if n := s.requests.Load(); n > 0 {
		out["serve.req_bytes_mean"] = float64(s.reqBytes.Load()) / float64(n)
		out["serve.resp_bytes_mean"] = float64(s.respBytes.Load()) / float64(n)
	}
	out["serve.status_non200"] = float64(s.non200.Load())
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

// spanWriter notes the first write, the status and the bytes written.
// It keeps http.Flusher, which the batch handler streams through.
type spanWriter struct {
	http.ResponseWriter
	first  time.Time
	status int
	n      int64
}

func (w *spanWriter) WriteHeader(status int) {
	if w.first.IsZero() {
		w.first = time.Now()
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *spanWriter) Write(p []byte) (int, error) {
	if w.first.IsZero() {
		w.first = time.Now()
	}
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *spanWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
