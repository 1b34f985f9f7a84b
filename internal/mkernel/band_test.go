package mkernel

import (
	"testing"

	"autogemm/internal/refgemm"
	"autogemm/internal/sim"
)

// runBand executes a band kernel over a C band of height m_r and width
// equal to the summed segment widths, comparing against the reference.
func runBand(t *testing.T, cfg BandConfig) {
	t.Helper()
	prog, err := GenerateBand(cfg)
	if err != nil {
		t.Fatalf("GenerateBand(%s): %v", cfg.Name(), err)
	}
	mr, _ := cfg.MR()
	width := cfg.Width()
	kc, lanes := cfg.KC, cfg.Lanes

	arena := sim.NewArena(1 << 16)
	aAddr := arena.Alloc(mr*kc + 2*lanes)
	bAddr := arena.Alloc((kc+2)*width + lanes)
	cAddr := arena.Alloc(mr*width + lanes)

	a := arena.Slice(aAddr, mr*kc)
	b := arena.Slice(bAddr, kc*width)
	c := arena.Slice(cAddr, mr*width)
	refgemm.Fill(a, mr, kc, kc, 10)
	refgemm.Fill(b, kc, width, width, 11)
	refgemm.Fill(c, mr, width, width, 12)

	want := make([]float32, mr*width)
	if cfg.LoadC {
		copy(want, c)
	}
	refgemm.GEMM(mr, width, kc, a, kc, b, width, want, width)

	m := sim.NewMachine(arena, lanes)
	m.SetArg(0, aAddr)
	m.SetArg(1, bAddr)
	m.SetArg(2, cAddr)
	m.SetArg(3, int64(kc))
	m.SetArg(4, int64(width))
	m.SetArg(5, int64(width))
	if err := m.Run(prog, 50_000_000); err != nil {
		t.Fatalf("Run(%s): %v", prog.Name, err)
	}
	if e := refgemm.MaxRelErr(c, want, mr, width, width, width); e > refgemm.Tolerance {
		t.Errorf("%s: max rel err %.3g", cfg.Name(), e)
	}
}

// TestBandSingleSegment covers the common fused band: repeated identical
// tiles along n, with and without fusion and rotation.
func TestBandSingleSegment(t *testing.T) {
	for _, tile := range []Tile{{5, 16}, {4, 20}, {8, 8}, {2, 16}} {
		for _, kc := range []int{4, 7, 16, 33} {
			for _, fuse := range []bool{false, true} {
				for _, rotate := range []bool{false, true} {
					cfg := BandConfig{
						Segments: []Segment{{Tile: tile, Count: 3}},
						KC:       kc, Lanes: 4, Fuse: fuse, Rotate: rotate,
						LoadC: true,
					}
					t.Run(cfg.Name(), func(t *testing.T) { runBand(t, cfg) })
				}
			}
		}
	}
}

// TestBandMixedSegments exercises the fusion boundary between tiles of
// different shape (and different boundedness — the paper's c_to_m and
// m_to_c modes), where accumulator loads must not interleave.
func TestBandMixedSegments(t *testing.T) {
	cases := [][]Segment{
		{{Tile{5, 16}, 2}, {Tile{5, 4}, 1}},
		{{Tile{4, 20}, 1}, {Tile{4, 16}, 1}, {Tile{4, 4}, 2}},
		{{Tile{2, 16}, 2}, {Tile{2, 4}, 1}},
		{{Tile{5, 16}, 1}, {Tile{5, 8}, 1}},
	}
	for _, segs := range cases {
		for _, fuse := range []bool{false, true} {
			for _, kc := range []int{6, 16, 21} {
				cfg := BandConfig{Segments: segs, KC: kc, Lanes: 4,
					Fuse: fuse, Rotate: true, LoadC: true}
				t.Run(cfg.Name(), func(t *testing.T) { runBand(t, cfg) })
			}
		}
	}
}

// TestBandBetaZero checks the zero-initializing variant used for the
// first k_c chunk of a split-K plan.
func TestBandBetaZero(t *testing.T) {
	cfg := BandConfig{
		Segments: []Segment{{Tile{5, 16}, 2}, {Tile{5, 8}, 1}},
		KC:       19, Lanes: 4, Fuse: true, Rotate: true, LoadC: false,
	}
	runBand(t, cfg)
}

// TestBandValidation rejects malformed bands.
func TestBandValidation(t *testing.T) {
	bad := []BandConfig{
		{Segments: nil, KC: 8, Lanes: 4},
		{Segments: []Segment{{Tile{5, 16}, 1}, {Tile{4, 16}, 1}}, KC: 8, Lanes: 4}, // mixed mr
		{Segments: []Segment{{Tile{5, 16}, 0}}, KC: 8, Lanes: 4},                   // zero count
		{Segments: []Segment{{Tile{5, 16}, 1}}, KC: 0, Lanes: 4},                   // kc <= 0
	}
	for _, cfg := range bad {
		if _, err := GenerateBand(cfg); err == nil {
			t.Errorf("GenerateBand(%s) succeeded, want error", cfg.Name())
		}
	}
}

// TestBandSVE runs a band on the 16-lane configuration.
func TestBandSVE(t *testing.T) {
	cfg := BandConfig{
		Segments: []Segment{{Tile{4, 32}, 2}, {Tile{4, 16}, 1}},
		KC:       40, Lanes: 16, Fuse: true, Rotate: true, LoadC: true,
	}
	runBand(t, cfg)
}
