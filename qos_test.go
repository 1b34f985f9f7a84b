package autogemm

import (
	"context"
	"errors"
	"testing"
	"time"

	"autogemm/internal/refgemm"
	"autogemm/internal/workload"
)

// TestQoSBitIdenticalToMultiply: tagging work with a class, weight or
// per-element batch QoS changes scheduling only — every output bit
// matches a serial Multiply of the same shape — and each batch element
// lands in its own class's counters.
func TestQoSBitIdenticalToMultiply(t *testing.T) {
	shapes := workload.ResNet50()[15:] // L16..L20, the fast tail
	e, err := New("KP920", WithWorkers(4), WithClass("latency", 16, 0), WithClass("bulk", 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for i, s := range shapes {
		a := make([]float32, s.M*s.K)
		b := make([]float32, s.K*s.N)
		refgemm.Fill(a, s.M, s.K, s.K, uint64(2*i+1))
		refgemm.Fill(b, s.K, s.N, s.N, uint64(2*i+2))
		want := make([]float32, s.M*s.N)
		if err := e.Multiply(want, a, b, s.M, s.N, s.K); err != nil {
			t.Fatalf("%s serial: %v", s.Name, err)
		}
		g := func(q QoS) GEMM {
			return GEMM{M: s.M, N: s.N, K: s.K, A: a, B: b, C: make([]float32, s.M*s.N), QoS: q}
		}

		async := g(QoS{Class: "latency"})
		f, err := e.Submit(context.Background(), async)
		if err != nil {
			t.Fatalf("%s Submit: %v", s.Name, err)
		}
		if err := f.Wait(); err != nil {
			t.Fatalf("%s wait: %v", s.Name, err)
		}
		diffBits(t, s.Name+" Submit", async.C, want)

		// One batch, two classes: each element carries its own QoS.
		batch := []GEMM{g(QoS{Class: "latency", Weight: 8}), g(QoS{Class: "bulk"})}
		if err := e.MultiplyBatch(batch); err != nil {
			t.Fatalf("%s MultiplyBatch: %v", s.Name, err)
		}
		diffBits(t, s.Name+" batch latency element", batch[0].C, want)
		diffBits(t, s.Name+" batch bulk element", batch[1].C, want)
	}

	want := map[string]int64{
		DefaultClass: int64(len(shapes)),     // the serial references
		"latency":    int64(2 * len(shapes)), // Submit + one batch element per shape
		"bulk":       int64(len(shapes)),     // the other batch element
	}
	for class, n := range want {
		cs, ok := e.ClassStats(class)
		if !ok || cs.Submitted != n || cs.Completed != n {
			t.Errorf("class %q = %+v (present %v), want %d submitted and completed", class, cs, ok, n)
		}
	}
}

// TestQoSAdmissionThroughAPI: a WithClass depth bound and an expired
// deadline both surface ErrAdmission through the public entry points.
func TestQoSAdmissionThroughAPI(t *testing.T) {
	s := workload.ResNet50()[15]
	e, err := New("KP920", WithWorkers(1), WithClass("tight", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	a := make([]float32, s.M*s.K)
	b := make([]float32, s.K*s.N)
	refgemm.Fill(a, s.M, s.K, s.K, 1)
	refgemm.Fill(b, s.K, s.N, s.N, 2)
	g := func() GEMM {
		return GEMM{M: s.M, N: s.N, K: s.K, A: a, B: b, C: make([]float32, s.M*s.N)}
	}

	// Expired deadline: refused at admission before any task runs.
	expired := g()
	expired.QoS.Deadline = time.Now().Add(-time.Second)
	_, err = e.Submit(context.Background(), expired)
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("expired deadline: got %v, want ErrAdmission", err)
	}

	// Depth bound: park the only worker on a big job, then overfill the
	// depth-1 class with queued jobs — the second must be shed.
	big := workload.ResNet50()[0]
	ba := make([]float32, big.M*big.K)
	bb := make([]float32, big.K*big.N)
	refgemm.Fill(ba, big.M, big.K, big.K, 3)
	refgemm.Fill(bb, big.K, big.N, big.N, 4)
	blocker, err := e.Submit(context.Background(), GEMM{M: big.M, N: big.N, K: big.K, A: ba, B: bb,
		C: make([]float32, big.M*big.N)})
	if err != nil {
		t.Fatal(err)
	}
	tightJob := func() GEMM {
		x := g()
		x.QoS.Class = "tight"
		return x
	}
	f1, err := e.Submit(context.Background(), tightJob())
	if err != nil {
		t.Fatalf("first tight job: %v", err)
	}
	_, err = e.Submit(context.Background(), tightJob())
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("over-depth submission: got %v, want ErrAdmission", err)
	}
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := f1.Wait(); err != nil {
		t.Fatal(err)
	}

	// The shed shows up in the public per-class stats.
	var tight SchedClassStats
	for _, cs := range e.PlanCacheStats().SchedClasses {
		if cs.Class == "tight" {
			tight = cs
		}
	}
	if tight.Class != "tight" {
		t.Fatal("class 'tight' missing from PlanCacheStats.SchedClasses")
	}
	if tight.Rejected != 1 || tight.Submitted != 1 || tight.Completed != 1 || tight.Depth != 1 {
		t.Fatalf("tight class stats = %+v, want submitted=completed=rejected=1 depth=1", tight)
	}

	// An inadmissible batch element reports ErrAdmission tagged with its
	// index, per the MultiplyBatchContext contract.
	expired.QoS.Deadline = time.Now().Add(-time.Hour)
	err = e.MultiplyBatch([]GEMM{expired})
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("batch with expired deadline: got %v, want ErrAdmission", err)
	}
}

// TestWithDefaultClassPlumbing: WithDefaultClass reroutes the implicit
// entry points' jobs into the named class, visible in the per-class
// counters, and outputs stay bit-identical to the default engine —
// whether the shape's plan was planned on first use or entered the
// cache through LoadPlan.
func TestWithDefaultClassPlumbing(t *testing.T) {
	e, err := New("KP920", WithWorkers(2), WithDefaultClass("tenant-a"))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ref, err := New("KP920", WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	for i, in := range []struct {
		name string
		s    workload.Shape
		load bool // enter the plan through another engine's encoding
	}{
		{"planned", workload.ResNet50()[16], false},
		{"loaded", workload.ResNet50()[17], true},
	} {
		s := in.s
		a := make([]float32, s.M*s.K)
		b := make([]float32, s.K*s.N)
		refgemm.Fill(a, s.M, s.K, s.K, uint64(7+2*i))
		refgemm.Fill(b, s.K, s.N, s.N, uint64(8+2*i))
		want := make([]float32, s.M*s.N)
		if err := ref.Multiply(want, a, b, s.M, s.N, s.K); err != nil {
			t.Fatal(err)
		}
		if in.load {
			p, err := ref.PlanFor(nil, s.M, s.N, s.K)
			if err != nil {
				t.Fatal(err)
			}
			data, err := p.Encode()
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := e.LoadPlan(data)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float32, s.M*s.N)
			if err := e.MultiplyPlanned(loaded, got, a, b); err != nil {
				t.Fatal(err)
			}
			diffBits(t, in.name+" MultiplyPlanned", got, want)
		}
		got := make([]float32, s.M*s.N)
		if err := e.Multiply(got, a, b, s.M, s.N, s.K); err != nil {
			t.Fatal(err)
		}
		diffBits(t, in.name+" default-class reroute", got, want)
	}

	cs, ok := e.ClassStats("tenant-a")
	if !ok {
		t.Fatal("class 'tenant-a' missing from the engine's classes")
	}
	if cs.Submitted != 3 || cs.Completed != 3 {
		t.Fatalf("tenant-a counters = %+v, want 3 submitted/completed", cs)
	}
	if cs, ok := e.ClassStats(DefaultClass); ok && cs.Submitted != 0 {
		t.Fatalf("default class saw %d jobs despite WithDefaultClass", cs.Submitted)
	}
}

// TestConfigureClassRuntime: ConfigureClass after New creates the class
// with the requested weight/depth, reported back in SchedClasses.
func TestConfigureClassRuntime(t *testing.T) {
	e, err := New("KP920", WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.ConfigureClass("burst", 4, 9)

	s := workload.ResNet50()[17]
	a := make([]float32, s.M*s.K)
	b := make([]float32, s.K*s.N)
	refgemm.Fill(a, s.M, s.K, s.K, 5)
	refgemm.Fill(b, s.K, s.N, s.N, 6)
	f, err := e.Submit(context.Background(), GEMM{M: s.M, N: s.N, K: s.K, A: a, B: b,
		C: make([]float32, s.M*s.N), QoS: QoS{Class: "burst"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, cs := range e.PlanCacheStats().SchedClasses {
		if cs.Class == "burst" {
			if cs.Weight != 4 || cs.Depth != 9 || cs.Completed != 1 {
				t.Fatalf("burst class = %+v, want weight=4 depth=9 completed=1", cs)
			}
			return
		}
	}
	t.Fatal("class 'burst' missing from PlanCacheStats.SchedClasses")
}
