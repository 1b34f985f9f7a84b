package core

import (
	"fmt"
	"strings"
)

// Describe renders the fully-resolved plan as a human-readable report:
// the blocking and packing decisions, the fixed loop order, and the
// micro-tiling of each distinct block shape — what cmd/autogemm-tune -explain prints.
func (p *Plan) Describe() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "plan for %dx%dx%d on %s\n", p.M, p.N, p.K, p.Chip)
	fmt.Fprintf(&b, "  blocking   m_c=%d n_c=%d k_c=%d\n", p.Opts.MC, p.Opts.NC, p.Opts.KC)
	b.WriteString("  loop order MNK (outermost to innermost)\n")
	fmt.Fprintf(&b, "  packing    %s\n", p.Opts.Pack)
	fmt.Fprintf(&b, "  pipeline   rotate=%v fuse=%v\n", p.Opts.Rotate, p.Opts.Fuse)
	fmt.Fprintf(&b, "  strategy   %s\n", p.Recipe.Request.Tiler)

	// Distinct block shapes in visit order.
	seen := map[[2]int]bool{}
	blocks := p.blocks()
	fmt.Fprintf(&b, "  block grid %d visits\n", len(blocks))
	for _, blk := range blocks {
		key := [2]int{blk.MB, blk.NB}
		if seen[key] {
			continue
		}
		seen[key] = true
		tl, err := p.blockTiling(blk.MB, blk.NB)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\nblock %dx%d (k chunk %d): %d micro-tiles, %d low-AI\n",
			blk.MB, blk.NB, blk.KB,
			tl.TileCount(p.Chip.Lanes), tl.LowAICount(p.Chip.Lanes, p.Chip.SigmaAI))
		if blk.MB <= 64 && blk.NB <= 96 {
			b.WriteString(tl.Render(p.Chip.Lanes))
		} else {
			for _, panel := range tl.Panels {
				fmt.Fprintf(&b, "  panel @(%d,%d) %dx%d tiled %v\n",
					panel.Row, panel.Col, panel.M, panel.N, panel.Tile)
			}
		}
	}
	return b.String(), nil
}
