package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go in builds with the race detector.
var raceEnabled bool

// benchmarkFile is the root BENCHMARK.json's metric lists.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatches holds BENCHMARK.json and the metric and
// workload tables here to the same names and units.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	same := func(kind string, file []struct{ Name, Unit string }, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(file), len(code))
			return
		}
		for i, m := range code {
			if file[i].Name != m.name || file[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the code %s (%s)", kind, i, file[i].Name, file[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the code %s", i, bf.Workloads[i].Name, w.name)
		}
	}
}

func smallRun(t *testing.T, workload string, window time.Duration, traced bool) *result {
	t.Helper()
	cfg := config{workload: workload, seed: 1, window: window, trace: traced, small: true}
	if traced {
		cfg.traceOut = filepath.Join(t.TempDir(), "trace.json")
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	// The race detector slows serving past the interactive deadline, so
	// only a plain build holds failures to zero.
	if !res.Correct || (res.Failed != 0 && !raceEnabled) || res.Attempted == 0 {
		t.Fatalf("%s: correct %v, attempted %d, failed %d, wrong %d",
			workload, res.Correct, res.Attempted, res.Failed, res.wrong)
	}
	return res
}

// TestEveryMetricEmitted runs each workload on a shape subset, untraced
// and traced, and checks every metric of BENCHMARK.json is reported
// with its unit, with nothing failed.
func TestEveryMetricEmitted(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := smallRun(t, w.name, 100*time.Millisecond, false)
			for _, m := range bf.EndToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || !(v.Value > 0) {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", m.Name, v, ok, m.Unit)
				}
			}
			res = smallRun(t, w.name, 100*time.Millisecond, true)
			for _, m := range bf.PerLayer {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) {
					t.Errorf("per-layer %s: got %+v (present %v), want a value in %s", m.Name, v, ok, m.Unit)
				}
			}
		})
	}
}

// traceFile is the part of the Chrome trace-event JSON the test reads.
type traceFile struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Args struct {
			ID     int64   `json:"id"`
			Parent int64   `json:"parent"`
			SelfUs float64 `json:"self_us"`
		} `json:"args"`
	} `json:"traceEvents"`
}

// TestTraceFile checks the span file of a traced serve-mixed run: it
// parses, every self time lies between 0 and its span's duration, and
// every interactive client span has exactly one handler span, which
// starts inside it. That pairing is what makes the handler and the
// client overhead add up to the client's latency.
func TestTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if _, err := run(config{workload: "serve-mixed", seed: 1, window: 600 * time.Millisecond, trace: true, traceOut: path, small: true}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	type interval struct{ start, end float64 }
	clients := map[int64]interval{}
	handlers := map[int64]int{} // client span id -> handler spans naming it
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Args.SelfUs < 0 || ev.Args.SelfUs > ev.Dur+1e-3 {
			t.Errorf("%s span %d: self time %.3fµs outside [0, %.3fµs]", ev.Name, ev.Args.ID, ev.Args.SelfUs, ev.Dur)
		}
		if ev.Name == "serve.client" {
			clients[ev.Args.ID] = interval{ev.Ts, ev.Ts + ev.Dur}
		}
	}
	if len(clients) == 0 {
		t.Fatal("no serve.client spans")
	}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" || ev.Name != "serve.handler" {
			continue
		}
		handlers[ev.Args.Parent]++
		// The request is sent before the handler starts, and the client
		// cannot have its answer before then. When the handler returns is
		// not ordered with the client's end.
		if c, ok := clients[ev.Args.Parent]; !ok || ev.Ts < c.start || ev.Ts > c.end {
			t.Errorf("handler span %d starts at %.1f, outside its client span %d %v", ev.Args.ID, ev.Ts, ev.Args.Parent, c)
		}
	}
	for id := range clients {
		if handlers[id] != 1 {
			t.Errorf("client span %d has %d handler spans, want 1", id, handlers[id])
		}
	}
}

// TestSeededInputs checks a seed names its inputs: the same seed gives
// identical shape lists, call orders and operands, another seed
// different ones.
func TestSeededInputs(t *testing.T) {
	same := func(a, b []*problem) bool {
		for i := range a {
			if a[i].Shape != b[i].Shape || !sameBits(a[i].a, b[i].a) || !sameBits(a[i].b, b[i].b) {
				return false
			}
		}
		return true
	}
	if !same(problems(tableV(), 1), problems(tableV(), 1)) {
		t.Error("seed 1 drew different operands twice")
	}
	if same(problems(tableV(), 1), problems(tableV(), 2)) {
		t.Error("seeds 1 and 2 drew the same operands")
	}

	// Cold shapes: one evenly spread set for every seed, in a seeded order.
	a, b, c := coldShapes(1, 500), coldShapes(1, 500), coldShapes(2, 500)
	seen := map[[3]int]bool{}
	differ := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 1 drew different cold shapes at %d: %v, %v", i, a[i], b[i])
		}
		differ = differ || a[i] != c[i]
		key := [3]int{a[i].M, a[i].N, a[i].K}
		if seen[key] {
			t.Errorf("cold shape %v drawn twice", a[i])
		}
		seen[key] = true
		for _, d := range key {
			if d < coldMin || d > coldMax {
				t.Errorf("cold shape %v outside [%d, %d]", a[i], coldMin, coldMax)
			}
		}
	}
	if !differ {
		t.Error("seeds 1 and 2 visit the cold shapes in the same order")
	}
	for _, s := range c {
		if !seen[[3]int{s.M, s.N, s.K}] {
			t.Errorf("seed 2 drew cold shape %v, which seed 1 did not", s)
		}
	}

	s1, s2 := sequence(1, streamCalls, 64, 15), sequence(2, streamCalls, 64, 15)
	if s1[0] == s2[0] && s1[1] == s2[1] && s1[2] == s2[2] && s1[3] == s2[3] {
		t.Error("seeds 1 and 2 drew the same call order")
	}

	cold := func(seed uint64) []*problem {
		r, err := setupCold(config{seed: seed, window: time.Second, small: true})
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		return r.probeSet()
	}
	if !same(cold(1), cold(1)) {
		t.Error("seed 1 drew different cold operands twice")
	}
	if same(cold(1), cold(2)) {
		t.Error("seeds 1 and 2 drew the same cold operands")
	}
}
