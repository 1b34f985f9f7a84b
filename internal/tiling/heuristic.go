package tiling

import (
	"fmt"
)

// Heuristic is the tier-0 tiler: it covers the whole block with a
// single panel whose tile is the cheapest uniform cover under the same
// projected grid cost DMT minimizes — one call to Algorithm 1's inner
// T(m, n) instead of the full (n_front, m_front_up, m_back_up) dynamic
// program. That makes it O(#candidates) per block, microseconds where
// DMT takes milliseconds (up to about 11 ms on the ResNet-50 blocks,
// 2-vCPU Xeon, KP920 model), at the price of giving up the panel
// split: edge remainders are still covered exactly (the executor
// narrows edge tiles during expansion), they are just not re-tiled
// with their own shapes.
//
// The tiered planner serves a Heuristic-tiled plan instantly on a cold
// miss and upgrades it to the DMT plan in the background; both answer
// the same request, so a Heuristic tiling must stay within the exact
// candidate set the full search would use — it shares DMT's candidate
// filter and cost model rather than reimplementing them.
type Heuristic struct {
	DMT
}

// Name implements Strategy.
func (h *Heuristic) Name() string { return "heuristic" }

// Tile implements Strategy.
func (h *Heuristic) Tile(m, n, kc int) (Tiling, error) {
	if m <= 0 || n <= 0 {
		return Tiling{}, fmt.Errorf("tiling: empty block %dx%d", m, n)
	}
	nQ := quantN(n, h.Params.Lanes)
	cands := h.candidates()
	best := h.bestTile(newCostTable(h.Params, h.Opt, kc, m, nQ, cands), cands, m, nQ)
	return Tiling{MC: m, NC: n, Strategy: h.Name(), Panels: []Panel{
		{M: m, N: n, Tile: best.tile},
	}}, nil
}
