package tiling

import (
	"math"
	"testing"
	"testing/quick"

	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
	"autogemm/internal/perfmodel"
)

func kp920Params() perfmodel.Params { return perfmodel.FromChip(hw.KP920()) }

func newDMT(chip *hw.Chip) *DMT {
	return &DMT{Params: perfmodel.FromChip(chip), Opt: perfmodel.Opt{Rotate: true, Fuse: true}}
}

// TestFig5OpenBLAS: the 26×36 example block tiled with 5×16 and padding
// yields 18 micro tiles (⌈26/5⌉ × ⌈36/16⌉), all full-sized.
func TestFig5OpenBLAS(t *testing.T) {
	s := OpenBLASStyle{T: mkernel.Tile{MR: 5, NR: 16}, Lanes: 4}
	tl, err := s.Tile(26, 36, 64)
	if err != nil {
		t.Fatal(err)
	}
	rects := tl.Rects(4)
	if len(rects) != 18 {
		t.Errorf("OpenBLAS-style tiles = %d, want 18 (Fig 5-a)", len(rects))
	}
	for _, r := range rects {
		if r.Tile != (mkernel.Tile{MR: 5, NR: 16}) {
			t.Errorf("padded strategy produced non-uniform tile %v", r.Tile)
		}
	}
	if err := tl.Validate(4); err != nil {
		t.Error(err)
	}
}

// TestFig5LIBXSMM: same block with edge tiles: still 18 tiles, 8 of them
// low-AI (the right column of 6 and bottom band of 2), matching Fig 5-b.
func TestFig5LIBXSMM(t *testing.T) {
	s := LIBXSMMStyle{T: mkernel.Tile{MR: 5, NR: 16}, Lanes: 4}
	tl, err := s.Tile(26, 36, 64)
	if err != nil {
		t.Fatal(err)
	}
	if n := tl.TileCount(4); n != 18 {
		t.Errorf("LIBXSMM-style tiles = %d, want 18 (Fig 5-b)", n)
	}
	if low := tl.LowAICount(4, 6.0); low != 8 {
		t.Errorf("LIBXSMM-style low-AI tiles = %d, want 8 (Fig 5-b)", low)
	}
	if err := tl.Validate(4); err != nil {
		t.Error(err)
	}
}

// TestFig5DMT: DMT must beat both static strategies on the example block:
// fewer tiles than 18, at most 2 low-AI tiles, and lower projected cost.
func TestFig5DMT(t *testing.T) {
	for _, chip := range []*hw.Chip{hw.KP920(), hw.Graviton2(), hw.M2()} {
		d := newDMT(chip)
		tl, err := d.Tile(26, 36, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := tl.Validate(4); err != nil {
			t.Fatalf("%s: %v", chip.Name, err)
		}
		n := tl.TileCount(4)
		if n >= 18 {
			t.Errorf("%s: DMT tiles = %d, want < 18", chip.Name, n)
		}
		if low := tl.LowAICount(4, chip.SigmaAI); low > 2 {
			t.Errorf("%s: DMT low-AI tiles = %d, want <= 2 (Fig 5-c)", chip.Name, low)
		}
		p := d.Params
		opt := d.Opt
		xsmm, _ := LIBXSMMStyle{T: mkernel.Tile{MR: 5, NR: 16}, Lanes: 4}.Tile(26, 36, 64)
		if dc, xc := tl.Cost(p, 64, opt), xsmm.Cost(p, 64, opt); dc > xc {
			t.Errorf("%s: DMT cost %.0f above LIBXSMM-style %.0f", chip.Name, dc, xc)
		}
	}
}

// TestDMTDivisibleBlockMatchesStatic: when the block divides evenly by
// the static tile (80×32, 25×64 in Fig 7), all strategies produce the
// same uniform 5×16 tiling and DMT has no advantage.
func TestDMTDivisibleBlockMatchesStatic(t *testing.T) {
	d := newDMT(hw.KP920())
	for _, c := range []struct{ m, n int }{{80, 32}, {25, 64}} {
		tl, err := d.Tile(c.m, c.n, 64)
		if err != nil {
			t.Fatal(err)
		}
		want := (c.m / 5) * (c.n / 16)
		if got := tl.TileCount(4); got != want {
			t.Errorf("%dx%d: DMT tiles = %d, want %d (uniform 5x16)", c.m, c.n, got, want)
		}
		for _, r := range tl.Rects(4) {
			if r.Tile != (mkernel.Tile{MR: 5, NR: 16}) {
				t.Errorf("%dx%d: DMT chose %v, want 5x16", c.m, c.n, r.Tile)
			}
		}
	}
}

// TestDMTCoverageProperty: for arbitrary block shapes the DMT tiling
// covers every cell exactly once.
func TestDMTCoverageProperty(t *testing.T) {
	d := newDMT(hw.Graviton2())
	f := func(mRaw, nRaw uint8) bool {
		m := int(mRaw)%60 + 1
		n := int(nRaw)%60 + 1
		tl, err := d.Tile(m, n, 32)
		if err != nil {
			return false
		}
		return tl.Validate(4) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestStaticCoverageProperty: both static strategies also produce valid
// covers for arbitrary blocks.
func TestStaticCoverageProperty(t *testing.T) {
	f := func(mRaw, nRaw uint8, padded bool) bool {
		m := int(mRaw)%80 + 1
		n := int(nRaw)%80 + 1
		var s Strategy
		if padded {
			s = OpenBLASStyle{T: DefaultStaticTile(4), Lanes: 4}
		} else {
			s = LIBXSMMStyle{T: DefaultStaticTile(4), Lanes: 4}
		}
		tl, err := s.Tile(m, n, 16)
		if err != nil {
			return false
		}
		return tl.Validate(4) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestValidateRefusesDegeneratePanels: a panel with a non-positive
// tile or reaching outside its block is refused before it is expanded
// into tiles, so a hostile decoded plan can make Validate neither loop
// nor allocate without bound.
func TestValidateRefusesDegeneratePanels(t *testing.T) {
	ok := Panel{M: 26, N: 36, Tile: mkernel.Tile{MR: 5, NR: 16}, Padded: true}
	for name, mod := range map[string]func(*Panel){
		"mr zero":      func(p *Panel) { p.Tile.MR = 0 },
		"mr negative":  func(p *Panel) { p.Tile.MR = -5 },
		"nr negative":  func(p *Panel) { p.Tile.NR = -16 },
		"m huge":       func(p *Panel) { p.M = 1 << 40 },
		"n zero":       func(p *Panel) { p.N = 0 },
		"row negative": func(p *Panel) { p.Row = -1 },
		"col overflow": func(p *Panel) { p.Col = math.MaxInt },
	} {
		p := ok
		mod(&p)
		tl := Tiling{MC: 26, NC: 36, Panels: []Panel{p}}
		if err := tl.Validate(4); err == nil {
			t.Errorf("%s: panel %+v accepted", name, p)
		}
	}
	if err := (Tiling{MC: 26, NC: 36, Panels: []Panel{ok}}).Validate(4); err != nil {
		t.Errorf("whole-block padded panel refused: %v", err)
	}
}

// TestDMTNeverWorseThanStatic: across a shape sweep, DMT's projected
// cost is never above either static strategy's (it can always pick the
// degenerate split).
func TestDMTNeverWorseThanStatic(t *testing.T) {
	p := kp920Params()
	opt := perfmodel.Opt{Rotate: true, Fuse: true}
	d := &DMT{Params: p, Opt: opt}
	shapes := []struct{ m, n int }{{26, 36}, {26, 64}, {23, 40}, {17, 28}, {31, 52}, {7, 12}, {64, 64}}
	for _, s := range shapes {
		dt, err := d.Tile(s.m, s.n, 64)
		if err != nil {
			t.Fatal(err)
		}
		xt, _ := LIBXSMMStyle{T: DefaultStaticTile(4), Lanes: 4}.Tile(s.m, s.n, 64)
		if dc, xc := dt.Cost(p, 64, opt), xt.Cost(p, 64, opt); dc > xc*1.0001 {
			t.Errorf("%dx%d: DMT %.0f worse than LIBXSMM-style %.0f", s.m, s.n, dc, xc)
		}
	}
}

// TestRenderOutput: the Fig 5 renderer emits a complete grid.
func TestRenderOutput(t *testing.T) {
	d := newDMT(hw.KP920())
	tl, err := d.Tile(26, 36, 64)
	if err != nil {
		t.Fatal(err)
	}
	out := tl.Render(4)
	if len(out) < 26*37 {
		t.Errorf("render too short:\n%s", out)
	}
}

// TestEmptyBlockRejected: all strategies reject degenerate blocks.
func TestEmptyBlockRejected(t *testing.T) {
	strategies := []Strategy{
		OpenBLASStyle{T: DefaultStaticTile(4), Lanes: 4},
		LIBXSMMStyle{T: DefaultStaticTile(4), Lanes: 4},
		newDMT(hw.KP920()),
	}
	for _, s := range strategies {
		if _, err := s.Tile(0, 16, 8); err == nil {
			t.Errorf("%s accepted m=0", s.Name())
		}
		if _, err := s.Tile(16, 0, 8); err == nil {
			t.Errorf("%s accepted n=0", s.Name())
		}
	}
}

// TestSVETiling: DMT on the A64FX 16-lane configuration.
func TestSVETiling(t *testing.T) {
	d := newDMT(hw.A64FX())
	tl, err := d.Tile(40, 96, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.Validate(16); err != nil {
		t.Error(err)
	}
}
