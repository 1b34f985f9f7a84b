package experiments

import (
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"testing"

	"autogemm/internal/hw"
)

// Each replay records a real scheduled run; the tests below share one
// recording of each per test binary.
var (
	scalingOnce sync.Once
	scaling     []chipScaling
	scalingErr  error

	qosOnce sync.Once
	qos     qosComparison
	qosErr  error
)

func recordedScaling(t *testing.T) []chipScaling {
	t.Helper()
	scalingOnce.Do(func() { scaling, scalingErr = scalingCurves() })
	if scalingErr != nil {
		t.Fatal(scalingErr)
	}
	return scaling
}

func recordedQoS(t *testing.T) qosComparison {
	t.Helper()
	qosOnce.Do(func() { qos, qosErr = qosReplay() })
	if qosErr != nil {
		t.Fatal(qosErr)
	}
	return qos
}

// TestReplayCMGCollapse: the replayed A64FX curve shows the paper's
// §V-E shape — simulated cycles never rise while scaling inside one
// CMG, and full-socket efficiency falls below 0.7× the one-CMG figure
// once the worker set spans all four groups.
func TestReplayCMGCollapse(t *testing.T) {
	chip := hw.A64FX()
	perGroup := hw.NewTopology(chip).CoresPerGroup()
	for _, c := range recordedScaling(t) {
		if c.Chip != chip.Name {
			continue
		}
		eff := map[int]float64{}
		var prev scalingPoint
		for i, pt := range c.Points {
			eff[pt.Cores] = pt.Efficiency
			if pt.Cores > perGroup {
				continue
			}
			if i > 0 && pt.SimCycles > prev.SimCycles {
				t.Errorf("in-CMG scaling not monotone: %d cores %.0f cycles > %d cores %.0f",
					pt.Cores, pt.SimCycles, prev.Cores, prev.SimCycles)
			}
			prev = pt
		}
		eIn, okIn := eff[perGroup]
		eAll, okAll := eff[chip.Cores]
		if !okIn || !okAll {
			t.Fatalf("curve lacks the %d- or %d-core point: %+v", perGroup, chip.Cores, c.Points)
		}
		if eAll >= eIn*0.7 {
			t.Errorf("no CMG collapse: eff@%d %.3f not below 0.7×eff@%d = %.3f", chip.Cores, eAll, perGroup, eIn*0.7)
		}
		return
	}
	t.Fatal("no A64FX curve recorded")
}

// TestReplayQoSWin: on the recorded mixed-class schedule, weighted
// claiming cuts the latency class's p99 queue wait below FIFO's without
// making the makespan more than 5% worse.
func TestReplayQoSWin(t *testing.T) {
	q := recordedQoS(t)
	fifo, weighted := q.FIFO.p99(latencyClass), q.Weighted.p99(latencyClass)
	if weighted >= fifo {
		t.Errorf("weighted latency p99 wait %.0f not below FIFO %.0f", weighted, fifo)
	}
	if q.MakespanDeltaPct > 5 {
		t.Errorf("weighted makespan %.2f%% worse than FIFO (limit 5%%)", q.MakespanDeltaPct)
	}
}

// TestReplayGolden: both replays reproduce the frozen record in
// BENCH_local.json bit for bit. A planner or cost-model change that
// moves them on purpose re-pins the record with the JSON this test
// prints (full precision).
func TestReplayGolden(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_local.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		SimScaling []chipScaling `json:"simScaling"`
		SimQoS     qosComparison `json:"simQoS"`
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	got := recordedScaling(t)
	if len(got) != len(want.SimScaling) {
		t.Fatalf("replayed %d chips, record has %d", len(got), len(want.SimScaling))
	}
	for i, g := range got {
		w := want.SimScaling[i]
		// Participants and stolen tasks depend on the recording's races.
		g.Participants, g.TasksStolen = w.Participants, w.TasksStolen
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s simScaling differs from the record; replayed:\n%s", g.Chip, mustJSON(t, g))
		}
	}
	if q := recordedQoS(t); !reflect.DeepEqual(q, want.SimQoS) {
		t.Errorf("simQoS differs from the record; replayed:\n%s", mustJSON(t, q))
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
