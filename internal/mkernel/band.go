package mkernel

import (
	"fmt"
	"strconv"

	"autogemm/internal/asm"
)

// Segment is a run of identical tiles along the n dimension of a band.
type Segment struct {
	Tile  Tile
	Count int
}

// BandConfig describes a fused band kernel: a row band of height m_r that
// walks a sequence of tiles left to right across n, all sharing the same
// A rows and k_c depth. With Fuse set, each tile's epilogue stores are
// interleaved with the next tile's prologue loads so the pipeline can
// overlap them and the per-kernel launch gap disappears (§III-C2). The
// four fusion modes of Fig 4 (c_to_c, m_to_m, c_to_m, m_to_c) arise from
// the boundedness of adjacent segments.
type BandConfig struct {
	Segments []Segment
	KC       int
	Lanes    int
	Rotate   bool
	Fuse     bool
	LoadC    bool
	Prefetch bool
}

// Name returns a stable identifier for the band variant. It is built
// with a single append buffer rather than fmt: the planner derives one
// Key per band per candidate block, and fmt-based formatting dominated
// the planner's per-block cost.
func (c BandConfig) Name() string {
	b := make([]byte, 0, 64)
	b = append(b, "band_k"...)
	b = strconv.AppendInt(b, int64(c.KC), 10)
	b = append(b, "_l"...)
	b = strconv.AppendInt(b, int64(c.Lanes), 10)
	for _, seg := range c.Segments {
		b = append(b, '_')
		b = strconv.AppendInt(b, int64(seg.Tile.MR), 10)
		b = append(b, 'x')
		b = strconv.AppendInt(b, int64(seg.Tile.NR), 10)
		b = append(b, 'x')
		b = strconv.AppendInt(b, int64(seg.Count), 10)
	}
	if c.Rotate {
		b = append(b, "_rot"...)
	}
	if c.Fuse {
		b = append(b, "_fuse"...)
	}
	if !c.LoadC {
		b = append(b, "_bz"...)
	}
	return string(b)
}

// MR returns the band height, validating that all segments agree.
func (c BandConfig) MR() (int, error) {
	if len(c.Segments) == 0 {
		return 0, fmt.Errorf("mkernel: band has no segments")
	}
	mr := c.Segments[0].Tile.MR
	for _, s := range c.Segments {
		if s.Tile.MR != mr {
			return 0, fmt.Errorf("mkernel: band mixes m_r %d and %d", mr, s.Tile.MR)
		}
		if s.Count <= 0 {
			return 0, fmt.Errorf("mkernel: segment with non-positive count")
		}
	}
	return mr, nil
}

// Width returns the total n extent of the band.
func (c BandConfig) Width() int {
	w := 0
	for _, s := range c.Segments {
		w += s.Tile.NR * s.Count
	}
	return w
}

// Tiles expands the segments into a flat tile sequence.
func (c BandConfig) Tiles() []Tile {
	var tiles []Tile
	for _, s := range c.Segments {
		for i := 0; i < s.Count; i++ {
			tiles = append(tiles, s.Tile)
		}
	}
	return tiles
}

// cLoadInstrsAt is like cLoadInstrs but reads the accumulators from
// extraCols vector-widths beyond the current C row pointers — used in
// fused bands where the pointers still sit at the previous tile's
// columns while its stores drain.
func (g *gen) cLoadInstrsAt(extraCols int) []asm.Instr {
	var out []asm.Instr
	vb := int64(g.cfg.Lanes * 4)
	for row := 0; row < g.mr; row++ {
		for col := 0; col < g.nhat; col++ {
			if g.cfg.LoadC {
				out = append(out, asm.Instr{
					Op: asm.OpLdrQ, Dst: g.regC(row, col),
					Src1: asm.X(regRowBase + g.mr + row), Imm: int64(extraCols+col) * vb,
				})
			} else {
				out = append(out, asm.Instr{Op: asm.OpVZero, Dst: g.regC(row, col)})
			}
		}
	}
	return out
}

// storeInstrsOffset returns offset-addressed stores (the band form: the
// C row pointers are advanced separately so that interleaved next-tile
// loads see stable addresses).
func (g *gen) storeInstrsOffset() []asm.Instr {
	var out []asm.Instr
	vb := int64(g.cfg.Lanes * 4)
	for row := 0; row < g.mr; row++ {
		for col := 0; col < g.nhat; col++ {
			out = append(out, asm.Instr{
				Op: asm.OpStrQ, Dst: g.regC(row, col),
				Src1: asm.X(regRowBase + g.mr + row), Imm: int64(col) * vb,
			})
		}
	}
	return out
}

// cAdvanceInstrs moves every C row pointer past the current tile.
func (g *gen) cAdvanceInstrs() []asm.Instr {
	var out []asm.Instr
	for row := 0; row < g.mr; row++ {
		out = append(out, asm.Instr{
			Op: asm.OpAddI, Dst: asm.X(regRowBase + g.mr + row),
			Src1: asm.X(regRowBase + g.mr + row), Imm: int64(g.cfg.Tile.NR) * 4,
			Comment: "advance C row to next tile",
		})
	}
	return out
}

// GenerateBand emits one program computing the whole band. The argument
// convention matches Generate; the B pointer argument is the base of the
// full B panel (k_c × bandwidth) and each tile addresses its column slice.
func GenerateBand(cfg BandConfig) (*asm.Program, error) {
	k, err := build(cfg)
	return k.prog, err
}

// emit generates and validates the band program.
func (cfg BandConfig) emit() (*asm.Program, error) {
	mr, err := cfg.MR()
	if err != nil {
		return nil, err
	}
	if cfg.KC <= 0 {
		return nil, fmt.Errorf("mkernel: kc must be positive")
	}
	p := asm.NewProgram(cfg.Name())

	// Shared setup: byte strides and the saved B base.
	if cfg.Prefetch {
		p.Prfm(asm.X(regArgA), 0)
		p.Prfm(asm.X(regArgB), 0)
		p.Prfm(asm.X(regArgC), 0)
	}
	p.Lsl(asm.X(regArgLda), asm.X(regArgLda), 2)
	p.Lsl(asm.X(regArgLdb), asm.X(regArgLdb), 2)
	p.Lsl(asm.X(regArgLdc), asm.X(regArgLdc), 2)
	p.Mov(asm.X(regBBase), asm.X(regArgB)).Comment("save B panel base")

	khat := cfg.KC / cfg.Lanes
	aRewind := int64((khat + 1) * cfg.Lanes * 4) // bytes each A row pointer advances per tile

	tiles := cfg.Tiles()
	var pendingStores, pendingAdvance []asm.Instr
	var prevTile Tile
	colOff := int64(0)
	labelSeq := 0

	emit := func(ins []asm.Instr) {
		p.Instrs = append(p.Instrs, ins...)
	}

	for ti, tile := range tiles {
		g, err := newGen(Config{
			Tile: tile, KC: cfg.KC, Lanes: cfg.Lanes,
			Rotate: cfg.Rotate, LoadC: cfg.LoadC,
		})
		if err != nil {
			return nil, fmt.Errorf("mkernel: band tile %d: %w", ti, err)
		}
		g.p = p
		g.labelSeq = labelSeq

		// Scalar prologue: row pointers (first tile) or A rewind, plus the
		// B column-slice reset.
		var pro []asm.Instr
		if ti == 0 {
			pro = append(pro, asm.Instr{Op: asm.OpMov, Dst: asm.X(regRowBase), Src1: asm.X(regArgA)})
			pro = append(pro, asm.Instr{Op: asm.OpMov, Dst: asm.X(regRowBase + mr), Src1: asm.X(regArgC)})
			for row := 1; row < mr; row++ {
				pro = append(pro, asm.Instr{Op: asm.OpAdd, Dst: asm.X(regRowBase + row),
					Src1: asm.X(regRowBase + row - 1), Src2: asm.X(regArgLda)})
				pro = append(pro, asm.Instr{Op: asm.OpAdd, Dst: asm.X(regRowBase + mr + row),
					Src1: asm.X(regRowBase + mr + row - 1), Src2: asm.X(regArgLdc)})
			}
		} else {
			for row := 0; row < mr; row++ {
				pro = append(pro, asm.Instr{Op: asm.OpSubI, Dst: asm.X(regRowBase + row),
					Src1: asm.X(regRowBase + row), Imm: aRewind,
					Comment: "rewind A row for next tile"})
			}
		}
		pro = append(pro, asm.Instr{Op: asm.OpAddI, Dst: asm.X(regArgB),
			Src1: asm.X(regBBase), Imm: colOff, Comment: "B column slice"})

		abLoads := g.abLoadInstrs()

		if len(pendingStores) > 0 {
			// Fused boundary: previous stores drain while this tile's
			// prologue loads stream in. Accumulator loads may interleave
			// position-for-position only when both tiles share a register
			// layout; otherwise they wait until every store has retired.
			emit(pro)
			cLoads := g.cLoadInstrsAt(prevTile.NR / cfg.Lanes)
			if prevTile == tile {
				// Same register layout: store j and load j hit the same
				// accumulator, so pairing them is clobber-free, and the
				// A/B loads trail after the final store.
				interleave(p, pendingStores, append(cLoads, abLoads...))
			} else {
				// Different layouts: the incoming tile's registers overlap
				// unstored accumulators arbitrarily, so drain the stores
				// first (the pipeline still overlaps them with the loads —
				// stores retire through the store port asynchronously).
				emit(pendingStores)
				emit(cLoads)
				emit(abLoads)
			}
			emit(pendingAdvance)
			pendingStores, pendingAdvance = nil, nil
		} else {
			emit(pro)
			emit(g.cLoadInstrsAt(0))
			emit(abLoads)
		}

		g.emitMainloop(fmt.Sprintf("band%d", ti))
		labelSeq = g.labelSeq
		g.emitEpilogueFMA()

		stores := g.storeInstrsOffset()
		last := ti == len(tiles)-1
		switch {
		case last:
			emit(stores)
		case cfg.Fuse:
			pendingStores = stores
			pendingAdvance = g.cAdvanceInstrs()
		default:
			emit(stores)
			emit(g.cAdvanceInstrs())
		}
		prevTile = tile
		colOff += int64(tile.NR) * 4
	}
	p.Ret()
	return p, p.Validate()
}

// interleave appends stores and loads alternately, store first so a load
// that reuses a just-stored register stays correct, then the leftovers of
// the longer list.
func interleave(p *asm.Program, stores, loads []asm.Instr) {
	si, li := 0, 0
	for si < len(stores) || li < len(loads) {
		if si < len(stores) {
			p.Instrs = append(p.Instrs, stores[si])
			si++
		}
		if li < len(loads) {
			p.Instrs = append(p.Instrs, loads[li])
			li++
		}
	}
}
