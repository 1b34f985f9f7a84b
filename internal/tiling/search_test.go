package tiling

import (
	"reflect"
	"sync"
	"testing"

	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
)

// TestSearchParallelFillMatchesSequentialTile is the equivalence
// guarantee the background planner rests on: filling the DP memo from
// many goroutines over disjoint row ranges, then Finish, must yield
// exactly the tiling the sequential DMT.Tile produces.
func TestSearchParallelFillMatchesSequentialTile(t *testing.T) {
	for _, chip := range []*hw.Chip{hw.KP920(), hw.Graviton2()} {
		d := newDMT(chip)
		for _, blk := range [][3]int{{26, 36, 64}, {80, 32, 64}, {64, 100, 48}, {7, 4, 16}} {
			want, err := d.Tile(blk[0], blk[1], blk[2])
			if err != nil {
				t.Fatal(err)
			}
			s, err := d.NewSearch(blk[0], blk[1], blk[2])
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			const chunk = 5
			for lo := 0; lo < s.Rows(); lo += chunk {
				wg.Add(1)
				go func(lo int) {
					defer wg.Done()
					s.FillRows(lo, lo+chunk)
				}(lo)
			}
			wg.Wait()
			got, err := s.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %v: parallel Search = %+v, sequential Tile = %+v",
					chip.Name, blk, got, want)
			}
		}
	}
}

// TestSearchFinishWithoutFill checks the lazy path: Finish on an
// untouched Search computes every needed cell itself.
func TestSearchFinishWithoutFill(t *testing.T) {
	d := newDMT(hw.KP920())
	want, err := d.Tile(26, 36, 64)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.NewSearch(26, 36, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lazy Finish = %+v, want %+v", got, want)
	}
}

// TestHeuristicSinglePanelCover: the tier-0 tiler emits one valid
// full-cover panel whose tile comes from DMT's own candidate set.
func TestHeuristicSinglePanelCover(t *testing.T) {
	for _, chip := range []*hw.Chip{hw.KP920(), hw.Graviton2()} {
		h := &Heuristic{DMT: *newDMT(chip)}
		for _, blk := range [][3]int{{26, 36, 64}, {256, 3136, 64}, {1, 4, 8}, {11, 49, 128}} {
			tl, err := h.Tile(blk[0], blk[1], blk[2])
			if err != nil {
				t.Fatal(err)
			}
			if err := tl.Validate(chip.Lanes); err != nil {
				t.Fatalf("%s %v: %v", chip.Name, blk, err)
			}
			if len(tl.Panels) != 1 {
				t.Fatalf("%s %v: %d panels, want 1", chip.Name, blk, len(tl.Panels))
			}
			if tl.Strategy != "heuristic" {
				t.Fatalf("strategy %q, want heuristic", tl.Strategy)
			}
			tile := tl.Panels[0].Tile
			if tile.MR <= 0 || tile.NR <= 0 || !tile.Generatable(chip.Lanes) {
				t.Fatalf("%s %v: ungeneratable tile %v", chip.Name, blk, tile)
			}
		}
	}
}

// TestHeuristicHonorsCandidateRestriction: an explicit candidate set
// restricts the heuristic exactly as it restricts DMT.
func TestHeuristicHonorsCandidateRestriction(t *testing.T) {
	d := newDMT(hw.KP920())
	d.Candidates = d.candidates()[:1]
	h := &Heuristic{DMT: *d}
	tl, err := h.Tile(64, 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	if got := tl.Panels[0].Tile; got != d.Candidates[0] {
		t.Fatalf("tile %v, want the only candidate %v", got, d.Candidates[0])
	}
}

// TestCandidatesMemoMatchesEnumeration: the shared default candidate
// set of every chip × rotation equals a fresh walk of
// mkernel.FeasibleTiles under the generatable and register-slack
// rules, repeated calls share one list, and an explicit Candidates
// still wins.
func TestCandidatesMemoMatchesEnumeration(t *testing.T) {
	for _, chip := range hw.All() {
		for _, rotate := range []bool{false, true} {
			d := newDMT(chip)
			d.Opt.Rotate = rotate
			lanes := d.Params.Lanes
			var want []mkernel.Tile
			for _, tl := range mkernel.FeasibleTiles(lanes) {
				if tl.Generatable(lanes) && !(rotate && tl.RegistersNeeded(lanes) > 30) {
					want = append(want, tl)
				}
			}
			got := d.candidates()
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s rotate=%v: candidates %v, want %v", chip.Name, rotate, got, want)
			}
			again := newDMT(chip)
			again.Opt.Rotate = rotate
			if &again.candidates()[0] != &got[0] {
				t.Errorf("%s rotate=%v: candidate list enumerated again", chip.Name, rotate)
			}
			d.Candidates = want[1:2]
			if got := d.candidates(); len(got) != 1 || got[0] != want[1] {
				t.Errorf("%s rotate=%v: explicit candidates ignored: %v", chip.Name, rotate, got)
			}
		}
	}
}
