package mkernel

import "testing"

// TestGeneratedKernelsEncode: every NEON kernel the generator emits is
// fully encodable to AArch64 machine code (the SVE configuration uses
// 16-lane FMLA indices that have no .4s encoding and is excluded).
func TestGeneratedKernelsEncode(t *testing.T) {
	for _, tile := range FeasibleTiles(4) {
		if !tile.Generatable(4) {
			continue
		}
		for _, kc := range []int{4, 17, 64} {
			for _, rotate := range []bool{false, true} {
				p, err := Generate(Config{Tile: tile, KC: kc, Lanes: 4,
					Rotate: rotate, LoadC: true, Prefetch: true})
				if err != nil {
					t.Fatal(err)
				}
				words, err := p.Encode()
				if err != nil {
					t.Errorf("%s: %v", p.Name, err)
					continue
				}
				if len(words) != p.CollectStats().Total {
					t.Errorf("%s: %d words for %d instructions", p.Name, len(words), p.CollectStats().Total)
				}
			}
		}
	}
}

// TestBandKernelsEncode: fused band kernels encode too.
func TestBandKernelsEncode(t *testing.T) {
	cfg := BandConfig{
		Segments: []Segment{{Tile{5, 16}, 3}, {Tile{5, 4}, 1}},
		KC:       32, Lanes: 4, Rotate: true, Fuse: true, LoadC: true,
	}
	p, err := GenerateBand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Encode(); err != nil {
		t.Errorf("band kernel not encodable: %v", err)
	}
}
