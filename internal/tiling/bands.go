package tiling

import (
	"autogemm/internal/mkernel"
)

// Band is one row strip of a panel: a sequence of tiles of equal height
// and contiguous columns, executable as a single fused band kernel (or
// tile by tile when fusion is off). Banding is the seam between a
// tiling and the kernels that run it: Calls lowers a band to kernel
// launches, and every consumer — planner, executors, estimators and
// plan auditor — goes through it, which is why it lives here.
type Band struct {
	MR   int // tile height shared by every segment
	Row  int // row offset inside the block
	Col  int // column offset inside the block (lane-aligned)
	Segs []mkernel.Segment
}

// Width returns the band's n extent.
func (b Band) Width() int {
	w := 0
	for _, s := range b.Segs {
		w += s.Tile.NR * s.Count
	}
	return w
}

// Tiles returns the number of micro-tiles the band runs.
func (b Band) Tiles() int {
	n := 0
	for _, s := range b.Segs {
		n += s.Count
	}
	return n
}

// Bands decomposes the tiling into bands, one per row strip of each
// panel (different panels split rows differently, so banding is
// per-panel). The expansion order matches Rects: row-major across the
// block.
func (tl Tiling) Bands(lanes int) []Band {
	var bands []Band
	rects := tl.Rects(lanes)
	i := 0
	for i < len(rects) {
		j := i
		segs := []mkernel.Segment{}
		cur := rects[i]
		// Collect rects in this row with contiguous columns and equal MR.
		col := cur.Col
		for j < len(rects) && rects[j].Row == cur.Row && rects[j].Tile.MR == cur.Tile.MR && rects[j].Col == col {
			t := rects[j].Tile
			if n := len(segs); n > 0 && segs[n-1].Tile == t {
				segs[n-1].Count++
			} else {
				segs = append(segs, mkernel.Segment{Tile: t, Count: 1})
			}
			col += t.NR
			j++
		}
		bands = append(bands, Band{MR: cur.Tile.MR, Row: cur.Row, Col: cur.Col, Segs: segs})
		i = j
	}
	return bands
}

// Call is a run of Count identical launches of one kernel: the first at
// column Col of the block, each next one Width columns to the right.
type Call struct {
	Spec  mkernel.Spec
	Col   int
	Width int
	Count int
}

// Calls lowers the band to the kernel launches that execute it at
// k-chunk depth kb. With fusion on, a band of more than one tile runs as
// one fused band kernel (epilogue–prologue fusion, §III-C2): a single
// call with Count 1 spanning the band. Otherwise each segment is one
// run of single-tile launches. This is the only place that decision is
// made: the planner's kernel keys, the compiled and interpreter
// executors, both estimators and the plan auditor all iterate its
// result, so they cannot disagree about which kernels a tiling runs.
func (b Band) Calls(kb, lanes int, rotate, fuse bool) []Call {
	if fuse && b.Tiles() > 1 {
		spec := mkernel.BandConfig{Segments: b.Segs, KC: kb, Lanes: lanes,
			Rotate: rotate, Fuse: true, LoadC: true}
		return []Call{{Spec: spec, Col: b.Col, Width: b.Width(), Count: 1}}
	}
	calls := make([]Call, 0, len(b.Segs))
	col := b.Col
	for _, s := range b.Segs {
		spec := mkernel.Config{Tile: s.Tile, KC: kb, Lanes: lanes, Rotate: rotate, LoadC: true}
		calls = append(calls, Call{Spec: spec, Col: col, Width: s.Tile.NR, Count: s.Count})
		col += s.Tile.NR * s.Count
	}
	return calls
}
