// Command bench is the repository's benchmark: four seeded workloads
// that drive the engine's layers from outside, each in its own process,
// with a correctness gate around every timed window. See README.md.
//
//	bash bench/run.sh --workload small-gemm --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics of a traced run with --trace 1.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names and units; a test holds the
// two together.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the engine sees. What "operation"
// means depends on the workload (README.md): a batch pass, a call, an
// interactive request timed from when it was due, or a shape's first
// call.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"gflops", "GFLOP/s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
}

// perLayer are the traced run's metrics, one group per module. A layer
// a workload does not reach reads 0.
var perLayer = []metricDef{
	{"kernel.compiled_gflops_1w", "GFLOP/s"},
	{"kernel.interp_gflops_1w", "GFLOP/s"},
	{"kernel.speedup_1w", "x"},
	{"exec.inplace_blocks", "count"},
	{"exec.ab_inplace_blocks", "count"},
	{"exec.packed_blocks", "count"},
	{"exec.interp_blocks", "count"},
	{"exec.interp_frac", "ratio"},
	{"exec.lazy_compile_p50_ms", "ms"},
	{"model.host_ns_per_sim_cycle", "ns/cycle"},
	{"model.sim_gflops", "GFLOP/s"},
	{"model.eqn13_vs_exact_pct", "%"},
	{"sched.noop_job_p50_us", "us"},
	{"sched.noop_job_p99_us", "us"},
	{"sched.jobs_submitted", "count"},
	{"sched.jobs_completed", "count"},
	{"sched.jobs_cancelled", "count"},
	{"sched.tasks_stolen", "count"},
	{"sched.queue_high_water", "count"},
	{"sched.worker_task_imbalance", "ratio"},
	{"sched.queue_wait_claims_per_job.latency", "claims"},
	{"sched.queue_wait_claims_per_job.batch", "claims"},
	{"sched.queue_wait_claims_per_job.all", "claims"},
	{"sched.rejected", "count"},
	{"api.plan_resolve_p50_us", "us"},
	{"api.run_p50_us", "us"},
	{"api.run_p99_us", "us"},
	{"api.batch_pass_p50_ms", "ms"},
	{"plan.hits", "count"},
	{"plan.misses", "count"},
	{"plan.built", "count"},
	{"plan.hit_rate", "ratio"},
	{"plan.produce_p50_ms", "ms"},
	{"plan.produce_p95_ms", "ms"},
	{"plan.attach_p50_ms", "ms"},
	{"plan.cold_planfor_p50_ms", "ms"},
	{"serve.client_p50_ms", "ms"},
	{"serve.client_p99_ms", "ms"},
	{"serve.handler_p50_ms", "ms"},
	{"serve.handler_p99_ms", "ms"},
	{"serve.pre_write_p50_ms", "ms"},
	{"serve.write_p50_ms", "ms"},
	{"serve.client_overhead_p50_ms", "ms"},
	{"serve.req_bytes_mean", "bytes"},
	{"serve.resp_bytes_mean", "bytes"},
	{"serve.batch_request_p50_ms", "ms"},
	{"serve.status_non200", "count"},
	{"serve.slo_met_frac", "ratio"},
	{"gen.late_p50_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// window is what one timed stretch of a workload saw.
type window struct {
	attempted, failed, wrong int64
	chunks                   []chunk

	// layer holds the per-layer values only a traced window can give:
	// engine counters over the window, generator lateness, bytes.
	layer map[string]float64
}

// chunk is a sub-window: a stretch of a window measured as one, with
// the time the calibration loop took around it (see calibrate).
type chunk struct {
	d     time.Duration // its length: the time base of the rates
	ops   int64         // operations completed
	flops float64       // useful work completed
	lat   []float64     // ms, the latency samples
	cal   time.Duration // mean calibrate() time just before and after it
}

// speed returns how much slower than the reference the host ran during
// the chunk: 2 means the calibration loop took twice calRef.
func (c chunk) speed() float64 { return float64(c.cal) / float64(calRef) }

// merged is a window's chunks folded together, each scaled to the
// reference host speed: its time, and its latencies, divided by its
// slowdown raised to the workload's sensitivity alpha. alpha 0 leaves
// the values uncorrected.
type merged struct {
	d          float64 // s
	ops, flops float64
	lat        []float64 // ms
}

func merge(chunks []chunk, alpha float64) merged {
	var m merged
	for _, c := range chunks {
		s := math.Pow(c.speed(), alpha)
		m.d += c.d.Seconds() / s
		m.ops += float64(c.ops)
		m.flops += c.flops
		for _, l := range c.lat {
			m.lat = append(m.lat, l/s)
		}
	}
	return m
}

// runner is one workload, set up and ready to measure.
type runner interface {
	// check zeroes C, runs every shape once and bit-compares each result
	// with the serial reference; it returns the number of wrong results.
	check() (wrong int, err error)
	// measure drives the workload for about d. tr is nil when untraced.
	measure(d time.Duration, tr *tracer) (window, error)
	// probeSet is the workload's distinct problems, or a sample of them,
	// for the traced run's layer probes.
	probeSet() []*problem
	close()
}

// workloadDef is one entry of the workload table.
type workloadDef struct {
	name    string
	clients int // client tasks (and connections) it drives at once
	setups  int // set-ups per run; setup_s is their median

	// alpha is how steeply the workload slows with the host: its times
	// grow as the calibration loop's slowdown to this power. Work that
	// hands off between goroutines on other CPUs suffers more from a busy
	// host than the loop does. Each value is the slope of log
	// uncorrected GFLOP/s and p50 against log slowdown over 30 runs on
	// the reference host (BASELINE.md).
	alpha float64
	setup func(cfg config) (runner, error)
}

var workloads = []workloadDef{
	{"resnet50-batch", 1, 3, 1.4, setupResNet},
	{"small-gemm", 1, 5, 1.3, setupSmall},
	{"serve-mixed", 2, 5, 1.5, setupServe},
	{"cold-shapes", 1, 5, 1.1, setupCold},
}

func lookup(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(names, ", "))
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	traceOut string
	small    bool // shape subsets and one set-up: the package tests
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	wrong int64
	notes []string // human-readable lines printed before the JSON
}

func main() {
	var (
		cfg     config
		seconds float64
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&seconds, "seconds", 30, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	flag.Parse()
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace != 0
	if cfg.workload == "" || cfg.window <= 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if cfg.workload == "all" {
		os.Exit(runAll(cfg))
	}
	if cfg.trace && cfg.traceOut == "" {
		cfg.traceOut = fmt.Sprintf(".bench_build/trace-%s-%d.json", cfg.workload, cfg.seed)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up, gates it, measures it and gates it again.
func run(cfg config) (*result, error) {
	w, err := lookup(cfg.workload)
	if err != nil {
		return nil, err
	}
	// Load-shape guard: a client task that cannot get a CPU measures the
	// host's scheduler, not the engine.
	if n := runtime.NumCPU(); w.clients > n {
		return nil, fmt.Errorf("%s drives %d clients but the host has %d CPUs", w.name, w.clients, n)
	}
	res := &result{Metrics: map[string]metricValue{}}

	reps := w.setups
	if cfg.small {
		reps = 1
	}
	var r runner
	var setups []chunk
	for i := 0; i < reps; i++ {
		if r != nil {
			r.close()
		}
		before := calibrate()
		start := time.Now()
		if r, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		d := time.Since(start)
		setups = append(setups, chunk{d: d, lat: []float64{ms(d)}, cal: (before + calibrate()) / 2})
	}
	defer r.close()

	if err := gate(r, res, "before"); err != nil {
		return nil, err
	}
	if cfg.trace {
		err = measureTraced(cfg, w, r, res)
	} else {
		err = measureEndToEnd(cfg, w, r, res, setups)
	}
	if err != nil {
		return nil, err
	}
	if err := gate(r, res, "after"); err != nil {
		return nil, err
	}
	res.Correct = res.wrong == 0
	res.notes = append([]string{fmt.Sprintf("workload %s seed %d: attempted %d, failed %d, wrong_results=%d",
		w.name, cfg.seed, res.Attempted, res.Failed, res.wrong)}, res.notes...)
	return res, nil
}

func gate(r runner, res *result, when string) error {
	wrong, err := r.check()
	if err != nil {
		return fmt.Errorf("correctness gate %s the window: %w", when, err)
	}
	res.wrong += int64(wrong)
	return nil
}

func (res *result) tally(w window) {
	res.Attempted += w.attempted
	res.Failed += w.failed
	res.wrong += w.wrong
}

func (res *result) set(m metricDef, v float64) { res.Metrics[m.name] = metricValue{v, m.unit} }

// measureEndToEnd measures the window and reports the end-to-end
// metrics; setups are the set-ups timed as one-sample chunks. Set-up is
// single-threaded work, so it is corrected for the loop's slowdown
// alone.
func measureEndToEnd(cfg config, w workloadDef, r runner, res *result, setups []chunk) error {
	win, err := r.measure(cfg.window, nil)
	if err != nil {
		return err
	}
	res.tally(win)
	m := merge(win.chunks, w.alpha)
	if len(m.lat) == 0 {
		return errors.New("no operation completed in the window")
	}
	values := map[string]float64{
		"setup_s":   median(merge(setups, 1).lat) / 1e3,
		"gflops":    m.flops / m.d / 1e9,
		"ops_per_s": m.ops / m.d,
		"p50_ms":    median(m.lat),
	}
	for _, m := range endToEnd {
		res.set(m, values[m.name])
	}
	raw := merge(win.chunks, 0)
	top := resolvedPercentile(len(m.lat))
	res.notes = append(res.notes,
		fmt.Sprintf("setup_s: median of %d set-ups (uncorrected %.6g s)", len(setups), median(merge(setups, 0).lat)/1e3),
		fmt.Sprintf("latency: %d samples in %d sub-windows; p99 %.6g ms; highest percentile with >=10 samples beyond it p%.2f = %.6g ms",
			len(m.lat), len(win.chunks), quantile(m.lat, 0.99), top, quantile(m.lat, top/100)),
		fmt.Sprintf("host speed: the calibration loop ran %.2fx slower than reference (median over sub-windows); corrected with alpha %.1f",
			median(speeds(win.chunks)), w.alpha),
		fmt.Sprintf("uncorrected: %.6g GFLOP/s, %.6g ops/s, p50 %.6g ms, p99 %.6g ms",
			raw.flops/raw.d/1e9, raw.ops/raw.d, median(raw.lat), quantile(raw.lat, 0.99)))
	return nil
}

func speeds(chunks []chunk) []float64 {
	out := make([]float64, len(chunks))
	for i, c := range chunks {
		out[i] = c.speed()
	}
	return out
}

// measureTraced runs half the window untraced and half traced, then
// probes each layer on the workload's shapes. The difference between
// the two halves is the tracing overhead.
func measureTraced(cfg config, w workloadDef, r runner, res *result) error {
	plain, err := r.measure(cfg.window/2, nil)
	if err != nil {
		return err
	}
	res.tally(plain)
	tr := newTracer()
	traced, err := r.measure(cfg.window/2, tr)
	if err != nil {
		return err
	}
	res.tally(traced)

	layer := map[string]float64{}
	for k, v := range traced.layer {
		layer[k] = v
	}
	p, t := merge(plain.chunks, w.alpha), merge(traced.chunks, w.alpha)
	if p.d > 0 && t.ops > 0 {
		layer["trace.overhead_pct"] = (p.ops/p.d/(t.ops/t.d) - 1) * 100
	}
	if err := probe(tr, r.probeSet(), layer); err != nil {
		return err
	}
	spanLayers(tr, layer)
	for _, m := range perLayer {
		res.set(m, layer[m.name])
	}
	if err := tr.write(cfg.traceOut, laneNames); err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	res.notes = append(res.notes, fmt.Sprintf("trace: %d spans written to %s", len(tr.spans), cfg.traceOut))
	if c := layer["serve.client_p50_ms"]; c > 0 {
		// Per request the two stages add up to the client's latency by
		// construction; the medians need not.
		res.notes = append(res.notes, fmt.Sprintf("serve stages: handler p50 + client overhead p50 = %.1f%% of client p50",
			100*(layer["serve.handler_p50_ms"]+layer["serve.client_overhead_p50_ms"])/c))
	}
	return nil
}

// printResult prints the human-readable lines, each metric with its
// unit, and the JSON object as the last line.
func printResult(out io.Writer, res *result) error {
	for _, n := range res.notes {
		fmt.Fprintln(out, n)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if v, ok := res.Metrics[m.name]; ok {
			fmt.Fprintf(out, "%-42s %14.6g %s\n", m.name, v.Value, v.Unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// runAll runs every workload in its own process with the same seed,
// window and tracing, relays what each prints, and prints one JSON
// object whose metrics are named <workload>/<metric>. It returns the
// exit code.
func runAll(cfg config) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	all := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		var stdout bytes.Buffer
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.window.Seconds(), 'g', -1, 64), "-trace", trace)
		cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			all.Correct = false
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var one result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &one); err != nil {
			all.Correct = false
			continue
		}
		all.Correct = all.Correct && one.Correct
		all.Attempted += one.Attempted
		all.Failed += one.Failed
		for k, v := range one.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !all.Correct {
		return 1
	}
	return 0
}
