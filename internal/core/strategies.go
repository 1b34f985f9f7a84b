package core

import (
	"autogemm/internal/hw"
	"autogemm/internal/tiling"
)

// PaddedStrategy returns the OpenBLAS-style fixed-tile-with-padding
// tiler for a chip (Fig 5-a), as the baseline library models in
// package baselines use it.
func PaddedStrategy(chip *hw.Chip) tiling.Strategy {
	return tiling.OpenBLASStyle{T: tiling.DefaultStaticTile(chip.Lanes), Lanes: chip.Lanes}
}

// EdgeStrategy returns the LIBXSMM-style fixed-tile-with-edge-tiles
// tiler for a chip (Fig 5-b).
func EdgeStrategy(chip *hw.Chip) tiling.Strategy {
	return tiling.LIBXSMMStyle{T: tiling.DefaultStaticTile(chip.Lanes), Lanes: chip.Lanes}
}
