// Package tiling partitions a cache-blocked sub-matrix C(m_c, n_c) into
// register tiles. It implements the paper's Dynamic Micro-Tiling
// algorithm (Algorithm 1, §IV-A2) and, for comparison, the two static
// strategies of Fig 5: OpenBLAS-style single-tile-with-padding and
// LIBXSMM-style single-tile-with-edge-tiles.
package tiling

import (
	"fmt"
	"sort"
	"strings"

	"autogemm/internal/mkernel"
	"autogemm/internal/perfmodel"
)

// Panel is a rectangular region tiled uniformly with one register tile.
// Full tiles cover (M/T.MR)×(N/T.NR) positions; any m or n remainder is
// covered by correspondingly narrowed edge tiles (or, when Padded, by
// full tiles computing past the logical edge into packing padding).
type Panel struct {
	Row, Col int // offset inside the block
	M, N     int // extent
	Tile     mkernel.Tile
	Padded   bool
}

// Tiling is a complete cover of an m_c × n_c block.
type Tiling struct {
	MC, NC   int
	Panels   []Panel
	Strategy string
}

// Rect is one concrete micro-tile placement.
type Rect struct {
	Row, Col int
	Tile     mkernel.Tile // kernel shape actually run
	M, N     int          // useful extent (≤ Tile when padded)
}

// Strategy produces tilings for blocks.
type Strategy interface {
	Name() string
	// Tile partitions an m×n block for σ_lane-wide vectors at depth k_c
	// (depth affects projected tile costs and hence DMT's choices).
	Tile(m, n, kc int) (Tiling, error)
}

// quantN rounds n up to a lane multiple; packed buffers provide the
// padding so kernels can always issue full vector loads.
func quantN(n, lanes int) int {
	return (n + lanes - 1) / lanes * lanes
}

// expandPanel lists the concrete tiles of one panel.
func expandPanel(p Panel, lanes int) []Rect {
	var rects []Rect
	t := p.Tile
	nQ := quantN(p.N, lanes)
	for r := 0; r < p.M; r += t.MR {
		mr := min(t.MR, p.M-r)
		for c := 0; c < nQ; c += t.NR {
			nr := min(t.NR, nQ-c)
			kt := mkernel.Tile{MR: mr, NR: nr}
			useM, useN := mr, min(nr, p.N-c)
			if p.Padded {
				kt = t // full tile regardless; padding absorbs the edge
			}
			rects = append(rects, Rect{
				Row: p.Row + r, Col: p.Col + c, Tile: kt, M: useM, N: useN,
			})
		}
	}
	return rects
}

// Rects expands the tiling into concrete tiles in row-band order.
func (tl Tiling) Rects(lanes int) []Rect {
	var rects []Rect
	for _, p := range tl.Panels {
		rects = append(rects, expandPanel(p, lanes)...)
	}
	sort.Slice(rects, func(i, j int) bool {
		if rects[i].Row != rects[j].Row {
			return rects[i].Row < rects[j].Row
		}
		return rects[i].Col < rects[j].Col
	})
	return rects
}

// TileCount returns the number of micro-tiles the tiling runs.
func (tl Tiling) TileCount(lanes int) int { return len(tl.Rects(lanes)) }

// LowAICount counts tiles whose kernel shape falls below the σ_AI
// threshold — the quantity Fig 5 compares across strategies.
func (tl Tiling) LowAICount(lanes int, sigmaAI float64) int {
	n := 0
	for _, r := range tl.Rects(lanes) {
		if !r.Tile.ComputeBound(lanes, sigmaAI) {
			n++
		}
	}
	return n
}

// Cost projects the runtime of the whole tiling with the perfmodel
// (Eqn 13 composition): per row band, fused sequences of equal tiles.
func (tl Tiling) Cost(p perfmodel.Params, kc int, opt perfmodel.Opt) float64 {
	rects := tl.Rects(p.Lanes)
	total := 0.0
	i := 0
	for i < len(rects) {
		// Group a run of identical tiles in one band (same Row).
		j := i
		for j < len(rects) && rects[j].Row == rects[i].Row && rects[j].Tile == rects[i].Tile {
			j++
		}
		total += p.SequenceTime(rects[i].Tile, kc, j-i, opt)
		i = j
	}
	return total
}

// Validate checks that the tiling covers the block exactly once.
func (tl Tiling) Validate(lanes int) error {
	if tl.validatePanels() {
		return nil
	}
	return tl.validateCells(lanes)
}

// validatePanels proves exact-once coverage at panel granularity:
// expandPanel covers a non-padded panel exactly by construction, so
// in-bounds, pairwise-disjoint panels whose areas sum to the block area
// cover the block exactly once. This is the planner's hot case — the
// per-cell sweep below is O(m_c × n_c) and dominated the per-block
// planning cost on large blocks. Padded panels (whose overhang rules
// are judged per cell) and any violation fall back to the sweep, which
// also produces the precise error.
func (tl Tiling) validatePanels() bool {
	area := 0
	for i, p := range tl.Panels {
		if p.Padded || p.Tile.MR <= 0 || p.Tile.NR <= 0 {
			return false
		}
		if p.M <= 0 || p.N <= 0 || p.Row < 0 || p.Col < 0 ||
			p.Row+p.M > tl.MC || p.Col+p.N > tl.NC {
			return false
		}
		for _, q := range tl.Panels[:i] {
			if p.Row < q.Row+q.M && q.Row < p.Row+p.M &&
				p.Col < q.Col+q.N && q.Col < p.Col+p.N {
				return false
			}
		}
		area += p.M * p.N
	}
	return area == tl.MC*tl.NC
}

// validateCells is the exhaustive per-cell coverage check.
func (tl Tiling) validateCells(lanes int) error {
	covered := make([]bool, tl.MC*tl.NC)
	for _, r := range tl.Rects(lanes) {
		for i := 0; i < r.M; i++ {
			for j := 0; j < r.N; j++ {
				row, col := r.Row+i, r.Col+j
				if row >= tl.MC || col >= tl.NC {
					if r.Tile.MR > r.M || r.Tile.NR > r.N {
						continue // padded overhang
					}
					return fmt.Errorf("tiling: tile at (%d,%d) exceeds block", r.Row, r.Col)
				}
				idx := row*tl.NC + col
				if covered[idx] {
					return fmt.Errorf("tiling: cell (%d,%d) covered twice", row, col)
				}
				covered[idx] = true
			}
		}
	}
	for idx, c := range covered {
		if !c {
			return fmt.Errorf("tiling: cell (%d,%d) uncovered", idx/tl.NC, idx%tl.NC)
		}
	}
	return nil
}

// Render draws the tiling as ASCII art for inspection (the Fig 5
// illustrations). Each tile is outlined by its id letter.
func (tl Tiling) Render(lanes int) string {
	grid := make([][]byte, tl.MC)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", tl.NC))
	}
	glyphs := "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	for k, r := range tl.Rects(lanes) {
		g := glyphs[k%len(glyphs)]
		for i := 0; i < r.M && r.Row+i < tl.MC; i++ {
			for j := 0; j < r.N && r.Col+j < tl.NC; j++ {
				grid[r.Row+i][r.Col+j] = g
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %dx%d (%d tiles)\n", tl.Strategy, tl.MC, tl.NC, tl.TileCount(lanes))
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}
