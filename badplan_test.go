package autogemm

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"autogemm/internal/plan"
	"autogemm/internal/plan/audit"
)

// These tests exercise the trust boundary of the plan layer: plans
// that crossed a process boundary (LoadPlan bytes, registry files) are
// statically audited before any kernel executes, every rejection
// surfaces as ErrBadPlan, and a poisoned registry entry degrades to
// cold planning instead of executing a corrupt recipe.

// tamper deep-copies and mutates a decoded plan, then re-marshals it
// without the Encode-side validation so the bytes reach Decode exactly
// as a hostile registry file would.
func tamper(t *testing.T, data []byte, mutate func(*plan.Plan)) []byte {
	t.Helper()
	var p plan.Plan
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatalf("unmarshal baseline plan: %v", err)
	}
	mutate(&p)
	out, err := json.MarshalIndent(&p, "", "  ")
	if err != nil {
		t.Fatalf("marshal tampered plan: %v", err)
	}
	return out
}

func encodedPlan(t *testing.T, eng *Engine, m, n, k int) []byte {
	t.Helper()
	p, err := eng.PlanFor(nil, m, n, k)
	if err != nil {
		t.Fatalf("PlanFor: %v", err)
	}
	data, err := p.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return data
}

// TestLoadPlanRejectsBadPlans drives every tamper class through
// LoadPlan and asserts each is rejected with ErrBadPlan — before any
// kernel could execute, since rejection happens at attach time.
func TestLoadPlanRejectsBadPlans(t *testing.T) {
	eng, err := New("KP920")
	if err != nil {
		t.Fatal(err)
	}
	data := encodedPlan(t, eng, 129, 200, 55)

	// Load into a different engine: the producing engine already holds
	// the clean plan in its cache under this fingerprint, and a cache
	// hit would short-circuit the attach-time audit the test targets.
	loader, err := New("KP920")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name      string
		bytes     func() []byte
		wantAudit bool // should also match audit.ErrAuditFailed
	}{
		{"garbage", func() []byte { return []byte("{not json") }, false},
		{"format-bump", func() []byte {
			return tamper(t, data, func(p *plan.Plan) { p.Format++ })
		}, false},
		{"fingerprint-flip", func() []byte {
			return tamper(t, data, func(p *plan.Plan) {
				p.Fingerprint = "0000000000000000" + p.Fingerprint[16:]
			})
		}, false},
		{"tile-out-of-bounds", func() []byte {
			return tamper(t, data, func(p *plan.Plan) { p.Blocks[0].Panels[0].Row += 7 })
		}, true},
		{"tiling-gap", func() []byte {
			return tamper(t, data, func(p *plan.Plan) {
				blk := &p.Blocks[0]
				blk.Panels[len(blk.Panels)-1].M--
			})
		}, true},
		{"negative-tile", func() []byte {
			return tamper(t, data, func(p *plan.Plan) { p.Blocks[0].Panels[0].MR = -p.Blocks[0].Panels[0].MR })
		}, true},
		{"dangling-kernel-key", func() []byte {
			return tamper(t, data, func(p *plan.Plan) {
				p.KernelKeys = append(p.KernelKeys, "mk_9x8x77_l4_rot")
			})
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := loader.LoadPlan(tc.bytes())
			if err == nil {
				t.Fatal("tampered plan loaded without error")
			}
			if !errors.Is(err, ErrBadPlan) {
				t.Fatalf("error %v does not match ErrBadPlan", err)
			}
			if tc.wantAudit && !errors.Is(err, audit.ErrAuditFailed) {
				t.Fatalf("error %v does not match audit.ErrAuditFailed", err)
			}
		})
	}

	// The untampered bytes still load.
	if _, err := loader.LoadPlan(data); err != nil {
		t.Fatalf("clean plan rejected: %v", err)
	}
}

// TestTamperedRegistryFallsBack poisons a registry entry in each
// audit-visible way and checks a warm-starting engine neither executes
// it nor fails: it falls back to cold planning and produces results
// bit-identical to a fresh engine.
func TestTamperedRegistryFallsBack(t *testing.T) {
	const m, n, k = 129, 200, 55

	baseDir := t.TempDir()
	baker, err := New("KP920", WithPlanDir(baseDir))
	if err != nil {
		t.Fatal(err)
	}
	p, err := baker.PlanFor(nil, m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := baker.SavePlan(p); err != nil {
		t.Fatal(err)
	}
	file := p.Fingerprint() + ".json"
	data, err := os.ReadFile(filepath.Join(baseDir, file))
	if err != nil {
		t.Fatal(err)
	}

	a, b := mulInputs(m, n, k, 77)
	want := make([]float32, m*n)
	fresh, _ := New("KP920")
	if err := fresh.Multiply(want, a, b, m, n, k); err != nil {
		t.Fatal(err)
	}

	mutations := map[string]func(*plan.Plan){
		"tile-out-of-bounds": func(p *plan.Plan) { p.Blocks[0].Panels[0].Row += 7 },
		"tiling-overlap":     func(p *plan.Plan) { p.Blocks[0].Panels[0].M += p.Blocks[0].Panels[0].MR },
		"format-bump":        func(p *plan.Plan) { p.Format++ },
		"dangling-kernel-key": func(p *plan.Plan) {
			p.KernelKeys = append(p.KernelKeys, "mk_9x8x77_l4_rot")
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, file), tamper(t, data, mutate), 0o644); err != nil {
				t.Fatal(err)
			}
			warm, err := New("KP920", WithPlanDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float32, m*n)
			if err := warm.Multiply(got, a, b, m, n, k); err != nil {
				t.Fatalf("poisoned registry entry broke Multiply: %v", err)
			}
			if !bitsEqual(got, want) {
				t.Error("fallback from poisoned registry entry produced different result")
			}
		})
	}
}
