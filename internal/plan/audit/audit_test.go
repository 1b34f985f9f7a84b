package audit_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"autogemm/internal/core"
	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
	"autogemm/internal/plan"
	"autogemm/internal/plan/audit"
)

func chipFor(t *testing.T) *hw.Chip {
	t.Helper()
	chip, err := hw.ByName("Graviton3")
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	return chip
}

func produce(t *testing.T, chip *hw.Chip, m, n, k int) *plan.Plan {
	t.Helper()
	rec, err := core.Produce(chip, m, n, k, core.AutoOptions(chip))
	if err != nil {
		t.Fatalf("Produce(%dx%dx%d): %v", m, n, k, err)
	}
	return rec
}

// copyPlan deep-copies a plan so tamper tests can mutate freely.
func copyPlan(p *plan.Plan) *plan.Plan {
	q := *p
	q.Blocks = append([]plan.Block(nil), p.Blocks...)
	for i := range q.Blocks {
		q.Blocks[i].Panels = append([]plan.Panel(nil), p.Blocks[i].Panels...)
	}
	q.KernelKeys = append([]string(nil), p.KernelKeys...)
	return &q
}

// wantCheck asserts the deep audit fails at one specific check and that
// the error matches the sentinel.
func wantCheck(t *testing.T, chip *hw.Chip, p *plan.Plan, check string) {
	t.Helper()
	_, err := audit.Audit(chip, p, audit.Options{Deep: true})
	if err == nil {
		t.Fatalf("audit passed, want %s failure", check)
	}
	if !errors.Is(err, audit.ErrAuditFailed) {
		t.Fatalf("error %v does not match ErrAuditFailed", err)
	}
	var ae *audit.Error
	if !errors.As(err, &ae) {
		t.Fatalf("error %v is not an *audit.Error", err)
	}
	if ae.Check != check {
		t.Fatalf("audit failed check %s (%s), want %s", ae.Check, ae.Detail, check)
	}
}

// tamper runs one plan corruption the way a corrupt registry file
// reaches the auditor (Encode, then a plain json.Unmarshal that skips
// Decode's validation) on a Graviton3 and a KP920 plan of the same
// shape, and asserts the check that rejects it.
func tamper(t *testing.T, m, n, k int, check string, corrupt func(p *plan.Plan)) {
	t.Helper()
	for _, name := range []string{"Graviton3", "KP920"} {
		chip, err := hw.ByName(name)
		if err != nil {
			t.Fatalf("ByName: %v", err)
		}
		data, err := produce(t, chip, m, n, k).Encode()
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		var p plan.Plan
		if err := json.Unmarshal(data, &p); err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		corrupt(&p)
		wantCheck(t, chip, &p, check)
	}
}

// TestAuditCleanPlans: honestly produced plans for every modeled chip
// pass the deep audit, with a report accounting for every block, tile
// and kernel key. The shapes are the corners where coverage and bounds
// composition can break: an aligned square, ragged tails in all three
// dimensions, small prime sides, a skinny GEMV-like shape, and a grid
// of several blocks.
func TestAuditCleanPlans(t *testing.T) {
	shapes := [][3]int{{64, 64, 64}, {129, 200, 55}, {37, 41, 43}, {8, 1000, 32}, {500, 500, 500}}
	for _, chip := range hw.All() {
		for _, s := range shapes {
			rec := produce(t, chip, s[0], s[1], s[2])
			rep, err := audit.Audit(chip, rec, audit.Options{Deep: true})
			if err != nil {
				t.Fatalf("audit of clean %s %v plan: %v", chip.Name, s, err)
			}
			if rep.Blocks != len(rec.Blocks) {
				t.Errorf("%s %v: report blocks %d, plan has %d", chip.Name, s, rep.Blocks, len(rec.Blocks))
			}
			if rep.Kernels != len(rec.KernelKeys) {
				t.Errorf("%s %v: report kernels %d, plan declares %d", chip.Name, s, rep.Kernels, len(rec.KernelKeys))
			}
			if rep.Tiles == 0 || rep.Groups == 0 {
				t.Errorf("%s %v: report counted %d tiles, %d groups; want both > 0", chip.Name, s, rep.Tiles, rep.Groups)
			}
			if len(rep.Passed) != 7 {
				t.Errorf("%s %v: passed checks %v, want all 7", chip.Name, s, rep.Passed)
			}
		}
	}
}

// TestAuditDeep: deep mode generates and analyzes every kernel of a
// clean plan without findings.
func TestAuditDeep(t *testing.T) {
	chip := chipFor(t)
	rec := produce(t, chip, 48, 48, 32)
	rep, err := audit.Audit(chip, rec, audit.Options{Deep: true})
	if err != nil {
		t.Fatalf("deep audit: %v", err)
	}
	if got := rep.Passed[len(rep.Passed)-1]; got != audit.CheckGenerate {
		t.Fatalf("deep audit passed %v, want trailing %s", rep.Passed, audit.CheckGenerate)
	}
}

// TestAuditTunedSource: the tuner's relabeled plans audit clean too.
func TestAuditTunedSource(t *testing.T) {
	chip := chipFor(t)
	rec := produce(t, chip, 64, 64, 64).WithSource(plan.SourceTuner)
	if _, err := audit.Audit(chip, rec, audit.Options{}); err != nil {
		t.Fatalf("audit of tuner-sourced plan: %v", err)
	}
}

// TestAuditFormatSkew: a plan claiming a future serialization format.
func TestAuditFormatSkew(t *testing.T) {
	tamper(t, 64, 64, 64, audit.CheckFormat, func(p *plan.Plan) {
		p.Format = plan.FormatVersion + 1
	})
}

// TestAuditFingerprintFlip: a fingerprint that no longer binds the
// request, as a renamed registry file would carry.
func TestAuditFingerprintFlip(t *testing.T) {
	tamper(t, 64, 64, 64, audit.CheckFingerprint, func(p *plan.Plan) {
		p.Fingerprint = "deadbeef" + p.Fingerprint[8:]
	})
}

func TestAuditRequestTamper(t *testing.T) {
	// Editing the request without re-deriving the fingerprint is caught
	// by re-derivation.
	chip := chipFor(t)
	p := copyPlan(produce(t, chip, 64, 64, 64))
	p.Request.K = 128
	wantCheck(t, chip, p, audit.CheckFingerprint)
}

func TestAuditStructure(t *testing.T) {
	chip := chipFor(t)
	base := produce(t, chip, 64, 64, 64)

	p := copyPlan(base)
	p.KC = 0
	wantCheck(t, chip, p, audit.CheckStructure)

	p = copyPlan(base)
	p.Pack = "auto"
	wantCheck(t, chip, p, audit.CheckStructure)

	p = copyPlan(base)
	p.Source = "wire"
	wantCheck(t, chip, p, audit.CheckStructure)

	p = copyPlan(base)
	p.KernelKeys = nil
	wantCheck(t, chip, p, audit.CheckStructure)
}

// TestAuditTileOutOfBounds: moving a panel out of its block leaves
// cells uncovered (and possibly tiles outside) — the partition proof
// fails either way.
func TestAuditTileOutOfBounds(t *testing.T) {
	tamper(t, 129, 200, 55, audit.CheckCoverage, func(p *plan.Plan) {
		p.Blocks[0].Panels[0].Row += 3
	})
}

// TestAuditTileOverlap: growing a panel makes it cover cells another
// panel already covers.
func TestAuditTileOverlap(t *testing.T) {
	tamper(t, 129, 200, 55, audit.CheckCoverage, func(p *plan.Plan) {
		blk := &p.Blocks[0]
		if len(blk.Panels) < 2 {
			// Grow the single panel past the block instead; same property.
			blk.Panels[0].M += blk.Panels[0].MR
		} else {
			blk.Panels[0].M += blk.Panels[1].MR
		}
	})
}

// TestAuditTileGap: shrinking a panel leaves a gap in the cover.
func TestAuditTileGap(t *testing.T) {
	tamper(t, 129, 200, 55, audit.CheckCoverage, func(p *plan.Plan) {
		blk := &p.Blocks[0]
		blk.Panels[len(blk.Panels)-1].M--
	})
}

// TestAuditMissingBlock: a grid shape with no tiling.
func TestAuditMissingBlock(t *testing.T) {
	chip := chipFor(t)
	p := copyPlan(produce(t, chip, 129, 200, 55))
	if len(p.Blocks) < 2 {
		t.Skip("plan has a single block shape")
	}
	p.Blocks = p.Blocks[:len(p.Blocks)-1]
	wantCheck(t, chip, p, audit.CheckCoverage)
}

// TestAuditForeignBlock: a block no grid placement reaches.
func TestAuditForeignBlock(t *testing.T) {
	chip := chipFor(t)
	p := copyPlan(produce(t, chip, 64, 64, 64))
	extra := p.Blocks[0]
	extra.M++
	p.Blocks = append(p.Blocks, extra)
	wantCheck(t, chip, p, audit.CheckCoverage)
}

// TestAuditBoundsEnvelope: a hand-built plan whose single padded tile
// is wide enough that its composed B-panel read extent (the same
// AExtent/BExtent/CExtent facts a block layout's reach folds) escapes
// the staged scratch envelope. Coverage still holds — the tile's useful
// extent covers the block exactly — so only the bounds composition
// catches it.
func TestAuditBoundsEnvelope(t *testing.T) {
	chip := chipFor(t) // lanes = 4
	req := plan.Request{
		Chip: chip.Name, M: 1, N: 4, K: 8,
		MC: 1, NC: 4, KC: 8,
		Pack: "none", Tiler: "dmt",
	}
	bld := plan.NewBuilder(req, 1, 4, 8, "none")
	bld.AddBlock(plan.Block{
		M: 1, N: 4, Tiler: "dmt",
		Panels: []plan.Panel{{Row: 0, Col: 0, M: 1, N: 4, MR: 1, NR: 60, Padded: true}},
	})
	bld.AddKernelKey("mk_1x60x8_l4")
	p, err := bld.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	wantCheck(t, chip, p, audit.CheckBounds)
}

// TestAuditCRowsOverlap: a hand-built plan whose 2-row tile is wider
// than the staging buffer's leading dimension, so its C rows would
// overlap, which a block layout refuses (ldc ≥ NR when MR > 1). Every
// extent still fits the scratch envelope: only the rows rule catches it.
func TestAuditCRowsOverlap(t *testing.T) {
	chip := chipFor(t)
	req := plan.Request{
		Chip: chip.Name, M: 2, N: 4, K: 8,
		MC: 2, NC: 4, KC: 8,
		Pack: "none", Tiler: "dmt",
	}
	sc := mkernel.ScratchEnvelope(req.MC, req.NC, req.KC, chip.Lanes)
	nr := sc.LD + chip.Lanes
	bld := plan.NewBuilder(req, 2, 4, 8, "none")
	bld.AddBlock(plan.Block{
		M: 2, N: 4, Tiler: "dmt",
		Panels: []plan.Panel{{Row: 0, Col: 0, M: 2, N: 4, MR: 2, NR: nr, Padded: true}},
	})
	bld.AddKernelKey(fmt.Sprintf("mk_2x%dx8_l%d", nr, chip.Lanes))
	p, err := bld.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	wantCheck(t, chip, p, audit.CheckBounds)
	_, err = audit.Audit(chip, p, audit.Options{Deep: true})
	if !strings.Contains(err.Error(), "C rows overlap") {
		t.Fatalf("audit: %v, want the C rows failure", err)
	}
}

// TestAuditDanglingKernelKey: a declared key no tiling reaches.
func TestAuditDanglingKernelKey(t *testing.T) {
	tamper(t, 64, 64, 64, audit.CheckKernels, func(p *plan.Plan) {
		p.KernelKeys = append(p.KernelKeys, "mk_4x8x999_l4_rot")
	})
}

// TestAuditMissingKernelKey: a reachable key the plan omits.
func TestAuditMissingKernelKey(t *testing.T) {
	chip := chipFor(t)
	p := copyPlan(produce(t, chip, 64, 64, 64))
	p.KernelKeys = p.KernelKeys[:len(p.KernelKeys)-1]
	if len(p.KernelKeys) == 0 {
		t.Skip("plan has a single kernel key")
	}
	wantCheck(t, chip, p, audit.CheckKernels)
}

// TestAuditAttachGate: core.Attach rejects a tampered plan by default
// and admits it when the caller marks the plan trusted — the produce
// path's fast lane. The tamper here is one coverage gap; the plan
// still satisfies plan.Validate, so only the audit stands between it
// and execution.
func TestAuditAttachGate(t *testing.T) {
	chip := chipFor(t)
	p := copyPlan(produce(t, chip, 129, 200, 55))
	blk := &p.Blocks[0]
	blk.Panels[len(blk.Panels)-1].M -= 1
	if err := p.Validate(); err != nil {
		t.Fatalf("tampered plan should still pass shallow validation, got %v", err)
	}
	if _, err := core.Attach(chip, p, core.Options{}); !errors.Is(err, audit.ErrAuditFailed) {
		t.Fatalf("Attach of tampered plan: %v, want ErrAuditFailed", err)
	}

	// The clean original attaches with and without trust.
	clean := produce(t, chip, 129, 200, 55)
	if _, err := core.Attach(chip, clean, core.Options{}); err != nil {
		t.Fatalf("Attach of clean plan: %v", err)
	}
	if _, err := core.Attach(chip, clean, core.Options{TrustedPlan: true}); err != nil {
		t.Fatalf("trusted Attach: %v", err)
	}
}

// TestScratchEnvelopeMatchesExecutor guards the shared envelope: the
// audit's proof is only sound if the executor allocates at least what
// the auditor assumed. Both call mkernel.ScratchEnvelope; this test
// pins the formula's monotonicity and slack so a future edit that
// shrinks it below the documented overhangs fails loudly.
func TestScratchEnvelopeMatchesExecutor(t *testing.T) {
	chip := chipFor(t)
	rec := produce(t, chip, 64, 64, 64)
	p, err := core.Attach(chip, rec, core.Options{TrustedPlan: true})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	// One multiply forces scratch allocation on some worker.
	c := make([]float32, 64*64)
	a := make([]float32, 64*64)
	b := make([]float32, 64*64)
	if err := p.Run(c, a, b); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
