// Package audit statically verifies execution plans before an executor
// attaches to them. A plan produced in this process is trusted — the
// planner derived it from a live tiler and validated it on the way out.
// A plan that crossed a process boundary (registry file, wire, hand
// edit) is not: it is attacker-or-corruption-shaped JSON that names
// kernel keys, tile placements and blocking parameters the executor
// will act on. The auditor re-proves, without executing anything, the
// three properties execution relies on:
//
//   - Coverage and exclusivity: the block grid and each block's panel
//     tiling form an exact partition of the M×N output — every C cell
//     written exactly once — so the scheduler's C-tile groups are
//     race-free and results are bit-identical at any worker count.
//
//   - Bounds composition: the per-kernel symbolic over-read bounds
//     (analysis.Bounds, the same facts the compiled executor's block
//     layouts fold into their reach) composed with every tile
//     placement stay inside the staged scratch envelope the executor
//     allocates, so the analyzer-licensed elision of per-access checks
//     remains sound for a loaded plan.
//
//   - Structural consistency: format version, fingerprint
//     re-derivation, resolved blocking, and exact agreement between
//     the plan's kernel-key list and the keys its tilings actually
//     reach — a key the cache cannot generate, or a tiling reaching a
//     key the plan does not declare, is rejected here rather than
//     surfacing as a runtime fallback or cache miss.
//
// The default audit is pure arithmetic over the plan — no kernel is
// generated — so it is cheap enough to gate every untrusted Attach.
// Deep mode (used by the offline `autogemm-verify -plans` registry
// audit) additionally generates and dataflow-analyzes every kernel the
// plan names.
package audit

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"autogemm/internal/asm/analysis"
	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
	"autogemm/internal/plan"
	"autogemm/internal/tiling"
)

// Check names, reported in Error.Check and Report.Passed.
const (
	CheckFormat      = "format"      // format version matches this build
	CheckFingerprint = "fingerprint" // fingerprint re-derives from the request
	CheckStructure   = "structure"   // resolved parameters are sane
	CheckCoverage    = "coverage"    // blocks+tiles partition M×N exactly
	CheckBounds      = "bounds"      // placements fit the scratch envelope
	CheckKernels     = "kernels"     // declared keys == reachable keys
	CheckGenerate    = "generate"    // deep: every kernel generates and analyzes
)

// ErrAuditFailed is the sentinel every audit failure wraps; callers
// branch on it with errors.Is without caring which check fired.
var ErrAuditFailed = errors.New("audit: plan failed static verification")

// Error is one audit failure: the check that fired and what it saw.
// It unwraps to ErrAuditFailed.
type Error struct {
	Check  string
	Detail string
}

func (e *Error) Error() string { return fmt.Sprintf("audit[%s]: %s", e.Check, e.Detail) }
func (e *Error) Unwrap() error { return ErrAuditFailed }

func failf(check, format string, args ...any) error {
	return &Error{Check: check, Detail: fmt.Sprintf(format, args...)}
}

// Options configures an audit.
type Options struct {
	// Deep additionally generates every kernel the plan names and runs
	// the dataflow analyzer on it — the full offline proof. Orders of
	// magnitude slower than the default arithmetic-only audit; meant
	// for the `autogemm-verify -plans` registry audit, not the Attach
	// gate.
	Deep bool
}

// Report summarizes what a successful audit proved.
type Report struct {
	Passed  []string // checks that ran, in order
	Blocks  int      // distinct block shapes verified
	Tiles   int      // micro-tile placements verified (per block shape)
	Groups  int      // C-tile groups of the grid (the parallel partition)
	Kernels int      // distinct kernel keys verified
}

// auditor carries one audit through its checks, memoizing the derived
// structures several checks share — the shape-indexed block map and
// each block's band decomposition — so the whole audit walks each
// tiling once. This keeps the Attach gate cheap enough to run on every
// untrusted load.
type auditor struct {
	chip *hw.Chip
	p    *plan.Plan
	o    Options
	rep  *Report

	blocks map[[2]int]plan.Block
	bands  map[[2]int][]tiling.Band
}

// blockMap returns the shape-indexed block map, building it on first
// use.
func (a *auditor) blockMap() (map[[2]int]plan.Block, error) {
	if a.blocks == nil {
		m, err := blockMap(a.p)
		if err != nil {
			return nil, err
		}
		a.blocks = m
	}
	return a.blocks, nil
}

// bandsOf returns one block's band decomposition, computing it once
// per block shape.
func (a *auditor) bandsOf(key [2]int, blk plan.Block) []tiling.Band {
	if b, ok := a.bands[key]; ok {
		return b
	}
	b := tiling.FromPlanBlock(blk).Bands(a.chip.Lanes)
	a.bands[key] = b
	return b
}

// Audit statically verifies a plan against the chip it claims to be
// for. It returns a report of what was proven, or an *Error (wrapping
// ErrAuditFailed) describing the first violated property. A nil error
// means the plan may be attached and executed without re-deriving any
// of these proofs.
func Audit(chip *hw.Chip, p *plan.Plan, o Options) (*Report, error) {
	a := &auditor{chip: chip, p: p, o: o, rep: &Report{}, bands: map[[2]int][]tiling.Band{}}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{CheckFormat, a.checkFormat},
		{CheckFingerprint, a.checkFingerprint},
		{CheckStructure, a.checkStructure},
		{CheckCoverage, a.checkCoverage},
		{CheckBounds, a.checkBounds},
		{CheckKernels, a.checkKernels},
	} {
		if err := c.run(); err != nil {
			return nil, err
		}
		a.rep.Passed = append(a.rep.Passed, c.name)
	}
	if o.Deep {
		if err := a.checkGenerate(); err != nil {
			return nil, err
		}
		a.rep.Passed = append(a.rep.Passed, CheckGenerate)
	}
	return a.rep, nil
}

// checkFormat rejects format-version skew before any field is
// interpreted: a plan serialized by a different format is not merely
// stale, its fields may mean something else entirely.
func (a *auditor) checkFormat() error {
	if a.p == nil {
		return failf(CheckFormat, "nil plan")
	}
	if a.p.Format != plan.FormatVersion {
		return failf(CheckFormat, "plan format %d, this build reads format %d",
			a.p.Format, plan.FormatVersion)
	}
	return nil
}

// checkFingerprint re-derives the fingerprint from the embedded
// request. A mismatch means the request and the fingerprint disagree
// about what was planned — a tampered or mis-keyed registry entry.
func (a *auditor) checkFingerprint() error {
	if fp := a.p.Request.Fingerprint(); fp != a.p.Fingerprint {
		return failf(CheckFingerprint, "stored fingerprint %s, request derives %s",
			a.p.Fingerprint, fp)
	}
	return nil
}

func (a *auditor) checkStructure() error {
	chip, p := a.chip, a.p
	if chip == nil {
		return failf(CheckStructure, "nil chip")
	}
	if p.Request.Chip != chip.Name {
		return failf(CheckStructure, "plan for chip %q audited against %q",
			p.Request.Chip, chip.Name)
	}
	m, n, k := p.Request.M, p.Request.N, p.Request.K
	if m <= 0 || n <= 0 || k <= 0 {
		return failf(CheckStructure, "invalid problem %dx%dx%d", m, n, k)
	}
	for _, d := range [3][2]int{{m, k}, {k, n}, {m, n}} {
		if d[0] > 0 && d[1] > math.MaxInt/d[0] {
			return failf(CheckStructure, "problem extents %dx%dx%d overflow int", m, n, k)
		}
	}
	if p.MC <= 0 || p.NC <= 0 || p.KC <= 0 {
		return failf(CheckStructure, "unresolved blocking %dx%dx%d", p.MC, p.NC, p.KC)
	}
	switch p.Pack {
	case "none", "online", "offline":
	case "auto":
		return failf(CheckStructure, "packing mode left unresolved (%q)", p.Pack)
	default:
		return failf(CheckStructure, "unknown packing mode %q", p.Pack)
	}
	switch p.Source {
	case plan.SourceAuto, plan.SourceTuner, plan.SourceHeuristic:
	default:
		return failf(CheckStructure, "unknown plan source %q", p.Source)
	}
	if len(p.Blocks) == 0 {
		return failf(CheckStructure, "no block tilings")
	}
	if len(p.KernelKeys) == 0 {
		return failf(CheckStructure, "no kernel keys")
	}
	return nil
}

// shapes returns the distinct block extents of one dimension, mirroring
// the planner's grid decomposition: the full block size and the
// remainder, if any.
func shapes(total, bs int) []int {
	if bs >= total {
		return []int{total}
	}
	out := []int{bs}
	if rem := total % bs; rem > 0 {
		out = append(out, rem)
	}
	return out
}

// blockMap indexes the plan's blocks by shape, rejecting duplicates
// and blocks no grid placement reaches (a foreign block is at best
// dead weight and at worst a sign the plan was spliced together).
func blockMap(p *plan.Plan) (map[[2]int]plan.Block, error) {
	mShapes := shapes(p.Request.M, p.MC)
	nShapes := shapes(p.Request.N, p.NC)
	want := map[[2]int]bool{}
	for _, mb := range mShapes {
		for _, nb := range nShapes {
			want[[2]int{mb, nb}] = true
		}
	}
	blocks := map[[2]int]plan.Block{}
	for _, blk := range p.Blocks {
		key := [2]int{blk.M, blk.N}
		if !want[key] {
			return nil, failf(CheckCoverage, "block %dx%d matches no grid placement of %dx%d / %dx%d",
				blk.M, blk.N, p.Request.M, p.Request.N, p.MC, p.NC)
		}
		if _, dup := blocks[key]; dup {
			return nil, failf(CheckCoverage, "block %dx%d tiled twice", blk.M, blk.N)
		}
		blocks[key] = blk
	}
	for key := range want {
		if _, ok := blocks[key]; !ok {
			return nil, failf(CheckCoverage, "no tiling for block %dx%d", key[0], key[1])
		}
	}
	return blocks, nil
}

// checkCoverage proves the partition property: walking the grid by
// offsets, every cache block resolves to a tiling whose rects cover
// the block exactly once (tiling.Validate). Together the two levels
// give exact coverage of M×N, which is what makes the scheduler's
// C-tile groups (one per (MOff, NOff) block column) mutually
// exclusive and the result independent of worker count.
func (a *auditor) checkCoverage() error {
	chip, p := a.chip, a.p
	blocks, err := a.blockMap()
	if err != nil {
		return err
	}
	a.rep.Blocks = len(blocks)
	for key, blk := range blocks {
		tl := tiling.FromPlanBlock(blk)
		if err := tl.Validate(chip.Lanes); err != nil {
			return failf(CheckCoverage, "block %dx%d: %v", key[0], key[1], err)
		}
		a.rep.Tiles += tl.TileCount(chip.Lanes)
	}
	// The grid itself: offsets stride the problem exactly, so with
	// every shape tiled the blocks partition M×N. Count the groups the
	// scheduler will claim.
	mOffs := (p.Request.M + p.MC - 1) / p.MC
	nOffs := (p.Request.N + p.NC - 1) / p.NC
	a.rep.Groups = mOffs * nOffs
	return nil
}

// kChunks mirrors the planner's k decomposition: the depths kernels
// are generated for.
func kChunks(p *plan.Plan) []int { return shapes(p.Request.K, p.KC) }

// calls lowers a band of the plan to its kernel launches at depth kb —
// tiling.Band.Calls, the rule the planner and the executor use.
func (a *auditor) calls(bd tiling.Band, kb int) []tiling.Call {
	return bd.Calls(kb, a.chip.Lanes, a.p.Request.Rotate, a.p.Request.Fuse)
}

// checkBounds composes the per-kernel symbolic bounds facts with every
// tile placement and proves the result fits the scratch envelope the
// executor allocates for this blocking. The bounds come from the same
// AnalysisOptions contract the generator's analyzer gate verifies and
// the compiled executor's block layouts fold into their reach
// (AExtent/BExtent/CExtent, or a tile program's exact extents within
// them), so this is the static half of the elision license: if this
// check passes, no packed block's reach check can fail for the plan,
// and no placement can reach past the allocated scratch. That includes
// the layouts' rule that C rows are disjoint, ldc ≥ NR when MR > 1, at
// the staging buffer's leading dimension.
func (a *auditor) checkBounds() error {
	chip, p := a.chip, a.p
	blocks, err := a.blockMap()
	if err != nil {
		return err
	}
	sc := mkernel.ScratchEnvelope(p.MC, p.NC, p.KC, chip.Lanes)
	// Deriving the bounds facts runs a cheap generation pass; one config
	// recurs across many tile placements, so memoize by kernel name (the
	// name encodes the full config) to keep the audit linear in distinct
	// kernels rather than in call sites.
	memo := map[mkernel.Key]*analysis.Bounds{}
	boundsFor := func(spec mkernel.Spec) (*analysis.Bounds, error) {
		if b, ok := memo[spec.Key()]; ok {
			return b, nil
		}
		ao, err := spec.AnalysisOptions()
		if err != nil {
			return nil, err
		}
		memo[spec.Key()] = ao.Bounds
		return ao.Bounds, nil
	}
	for key, blk := range blocks {
		bands := a.bandsOf(key, blk)
		for _, kb := range kChunks(p) {
			lda := int64(kb)
			for _, bd := range bands {
				for _, cl := range a.calls(bd, kb) {
					name := cl.Spec.Key()
					bounds, err := boundsFor(cl.Spec)
					if err != nil {
						return failf(CheckBounds, "block %dx%d: %s at (%d,%d): %v",
							key[0], key[1], name, bd.Row, cl.Col, err)
					}
					ld := int64(sc.LD)
					if !bounds.CRowsDisjoint(ld) {
						return failf(CheckBounds, "block %dx%d k=%d: %s at (%d,%d): C rows overlap: ldc %d < NR %d",
							key[0], key[1], kb, name, bd.Row, cl.Col, ld, bounds.NR)
					}
					for i := 0; i < cl.Count; i++ {
						row, col := int64(bd.Row), int64(cl.Col+i*cl.Width)
						for _, c := range []struct {
							what     string
							end, cap int64
						}{
							{"reads A", row*lda + bounds.AExtent(lda), int64(sc.PackA)},
							{"reads B", col + bounds.BExtent(ld), int64(sc.PackB)},
							{"touches C", row*ld + col + bounds.CExtent(ld), int64(sc.CBuf)},
						} {
							if c.end > c.cap {
								return failf(CheckBounds,
									"block %dx%d k=%d: %s at (%d,%d) %s to %d, scratch holds %d",
									key[0], key[1], kb, name, row, col, c.what, c.end, c.cap)
							}
						}
					}
				}
			}
		}
	}
	return nil
}

// derivedKeys re-enumerates, from the plan's own tilings, every kernel
// cache key execution will request — the same derivation the planner
// ran when it produced the plan.
func (a *auditor) derivedKeys() (map[string]bool, error) {
	chip, p := a.chip, a.p
	blocks, err := a.blockMap()
	if err != nil {
		return nil, err
	}
	keys := map[string]bool{}
	for key, blk := range blocks {
		bands := a.bandsOf(key, blk)
		for _, kb := range kChunks(p) {
			for _, bd := range bands {
				for _, seg := range bd.Segs {
					if !seg.Tile.Generatable(chip.Lanes) {
						return nil, failf(CheckKernels,
							"block %dx%d: tile %s is not generatable for %d lanes",
							key[0], key[1], seg.Tile, chip.Lanes)
					}
				}
				for _, cl := range a.calls(bd, kb) {
					keys[string(cl.Spec.Key())] = true
				}
			}
		}
	}
	return keys, nil
}

// checkKernels proves the plan's declared kernel-key list is exactly
// the set its tilings reach: a declared key nothing reaches is dead
// weight a tamper left behind; a reachable key the plan omits would
// surface as a cold cache miss (or a generation failure) mid-run.
func (a *auditor) checkKernels() error {
	keys, err := a.derivedKeys()
	if err != nil {
		return err
	}
	declared := map[string]bool{}
	for _, k := range a.p.KernelKeys {
		if declared[k] {
			return failf(CheckKernels, "kernel key %q declared twice", k)
		}
		declared[k] = true
	}
	var missing, extra []string
	for k := range keys {
		if !declared[k] {
			missing = append(missing, k)
		}
	}
	for k := range declared {
		if !keys[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 {
		return failf(CheckKernels, "tilings reach undeclared kernel keys %v", missing)
	}
	if len(extra) > 0 {
		return failf(CheckKernels, "declared kernel keys %v reached by no tiling", extra)
	}
	a.rep.Kernels = len(keys)
	return nil
}

// checkGenerate (deep mode) generates every kernel the plan names and
// runs the dataflow analyzer on it — proving not just that the keys
// resolve but that the kernels behind them pass the full bounds and
// rotation analysis on this build.
func (a *auditor) checkGenerate() error {
	cache := mkernel.NewCache()
	blocks, err := a.blockMap()
	if err != nil {
		return err
	}
	for key, blk := range blocks {
		bands := a.bandsOf(key, blk)
		for _, kb := range kChunks(a.p) {
			for _, bd := range bands {
				for _, cl := range a.calls(bd, kb) {
					if _, err := cache.Program(cl.Spec); err != nil {
						return failf(CheckGenerate, "block %dx%d: kernel %s: %v",
							key[0], key[1], cl.Spec.Key(), err)
					}
				}
			}
		}
	}
	return nil
}
