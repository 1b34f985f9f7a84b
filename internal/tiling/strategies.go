package tiling

import (
	"fmt"
	"sync"

	"autogemm/internal/mkernel"
	"autogemm/internal/perfmodel"
)

// DefaultStaticTile returns the fixed main tile the static strategies
// use: 5×16 for NEON (OpenBLAS's armv8 sgemm kernel shape, the tile of
// the Fig 5 example) and the highest-AI preferred tile otherwise.
func DefaultStaticTile(lanes int) mkernel.Tile {
	if lanes == 4 {
		return mkernel.Tile{MR: 5, NR: 16}
	}
	return mkernel.PreferredTiles(lanes)[0]
}

// OpenBLASStyle tiles with a single fixed shape and pads the edges
// (Fig 5-a): corner tiles compute full-size results into packing padding,
// wasting the overhang work.
type OpenBLASStyle struct {
	T     mkernel.Tile
	Lanes int
}

// Name implements Strategy.
func (s OpenBLASStyle) Name() string { return "openblas-pad" }

// Tile implements Strategy.
func (s OpenBLASStyle) Tile(m, n, kc int) (Tiling, error) {
	if m <= 0 || n <= 0 {
		return Tiling{}, fmt.Errorf("tiling: empty block %dx%d", m, n)
	}
	return Tiling{MC: m, NC: n, Strategy: s.Name(), Panels: []Panel{
		{M: m, N: n, Tile: s.T, Padded: true},
	}}, nil
}

// LIBXSMMStyle tiles the interior with a fixed shape and the edges with
// exact-fit smaller tiles (Fig 5-b). Edge tiles can have very low
// arithmetic intensity.
type LIBXSMMStyle struct {
	T     mkernel.Tile
	Lanes int
}

// Name implements Strategy.
func (s LIBXSMMStyle) Name() string { return "libxsmm-edge" }

// Tile implements Strategy.
func (s LIBXSMMStyle) Tile(m, n, kc int) (Tiling, error) {
	if m <= 0 || n <= 0 {
		return Tiling{}, fmt.Errorf("tiling: empty block %dx%d", m, n)
	}
	return Tiling{MC: m, NC: n, Strategy: s.Name(), Panels: []Panel{
		{M: m, N: n, Tile: s.T},
	}}, nil
}

// DMT is the paper's Dynamic Micro-Tiling (Algorithm 1): split the block
// into up to four panels by (n_front, m_front_up, m_back_up), choose the
// best uniform tile per panel by projected runtime, and take the split
// minimizing the total (Eqn 13). The projection — and therefore the
// chosen tiling — depends on the chip parameters, reproducing the
// paper's observation that the best tiling differs between high-σ_AI
// (KP920) and low-σ_AI (Graviton2/M2) hardware.
type DMT struct {
	Params perfmodel.Params
	Opt    perfmodel.Opt

	// Candidates narrows the tile set considered by T(m,n); nil means
	// every generatable tile (preferred tiles first is implicit in cost).
	Candidates []mkernel.Tile
}

// Name implements Strategy.
func (d *DMT) Name() string { return "dmt" }

type panelChoice struct {
	cost float64
	tile mkernel.Tile
}

// candidates returns the tile set T(m', n') minimizes over: the
// explicit restriction when one is set, otherwise every generatable
// tile (subject to the rotation register-slack rule). The default set
// depends only on σ_lane and rotation, so it is enumerated once per
// pair and shared read-only.
func (d *DMT) candidates() []mkernel.Tile {
	if d.Candidates != nil {
		return d.Candidates
	}
	k := candKey{d.Params.Lanes, d.Opt.Rotate}
	if v, ok := defaultCands.Load(k); ok {
		return v.([]mkernel.Tile)
	}
	v, _ := defaultCands.LoadOrStore(k, enumerateCandidates(k.lanes, k.rotate))
	return v.([]mkernel.Tile)
}

// candKey keys the shared default candidate sets.
type candKey struct {
	lanes  int
	rotate bool
}

// defaultCands memoizes enumerateCandidates per candKey.
var defaultCands sync.Map

// enumerateCandidates lists every generatable tile for σ_lane in
// mkernel.FeasibleTiles order, dropping with rotation the tiles that
// leave no register slack.
func enumerateCandidates(lanes int, rotate bool) []mkernel.Tile {
	var cands []mkernel.Tile
	for _, t := range mkernel.FeasibleTiles(lanes) {
		if !t.Generatable(lanes) {
			continue
		}
		// With rotation enabled, reserve spare registers for the
		// rotated A/B buffers (the reason Table II excludes shapes
		// like 7×12 that fill the register file exactly): a tile with
		// no slack cannot pipeline and stalls on every reload.
		if rotate && t.RegistersNeeded(lanes) > 30 {
			continue
		}
		cands = append(cands, t)
	}
	return cands
}

// bestTile is Algorithm 1's inner T(m', n'): the cheapest uniform cover
// of an mm×nn panel over the candidate set, falling back to the
// smallest strip tile when nothing fits.
func (d *DMT) bestTile(tab *costTable, cands []mkernel.Tile, mm, nn int) panelChoice {
	best := panelChoice{cost: -1}
	for _, t := range cands {
		if t.MR > mm || t.NR > nn {
			continue
		}
		c := tab.gridCost(t, mm, nn)
		if best.cost < 0 || c < best.cost {
			best = panelChoice{cost: c, tile: t}
		}
	}
	if best.cost < 0 {
		// Fall back to the smallest strip tile.
		t := mkernel.Tile{MR: min(mm, mkernel.MaxMR), NR: d.Params.Lanes}
		best = panelChoice{cost: tab.gridCost(t, mm, nn), tile: t}
	}
	return best
}

// Search is one DMT dynamic program opened up for incremental fill.
// The memo table T(m', n') has no cell-to-cell dependencies — gridCost
// never recurses — so disjoint row ranges can be filled from different
// goroutines race-free and the whole DP parallelizes trivially:
//
//	s, _ := d.NewSearch(m, n, kc)
//	// fan FillRows(lo, hi) over workers, barrier, then
//	tl, _ := s.Finish()
//
// Finish lazily computes any cells the fill skipped, so a Search also
// works fully sequentially — DMT.Tile is exactly NewSearch + Finish.
type Search struct {
	d      *DMT
	m, n   int
	kc     int
	lanes  int
	nQ     int
	nSteps int

	// Set up by the first FillRows or Finish, so opening a search on a
	// serving thread costs nothing and the work runs where the fill does.
	once  sync.Once
	cands []mkernel.Tile
	tab   *costTable
	memo  []panelChoice
}

// NewSearch prepares the dynamic program for one block. Nothing is
// allocated or computed yet.
func (d *DMT) NewSearch(m, n, kc int) (*Search, error) {
	if m <= 0 || n <= 0 {
		return nil, fmt.Errorf("tiling: empty block %dx%d", m, n)
	}
	lanes := d.Params.Lanes
	nQ := quantN(n, lanes)
	return &Search{
		d: d, m: m, n: n, kc: kc, lanes: lanes,
		nQ: nQ, nSteps: nQ/lanes + 1,
	}, nil
}

// setup enumerates the candidates, prices their shapes and allocates
// the memo, once per search.
func (s *Search) setup() {
	s.once.Do(func() {
		s.cands = s.d.candidates()
		s.tab = newCostTable(s.d.Params, s.d.Opt, s.kc, s.m, s.nQ, s.cands)
		s.memo = make([]panelChoice, (s.m+1)*s.nSteps)
		for i := range s.memo {
			s.memo[i].cost = -1
		}
	})
}

// Rows reports the row extent of the memo table; FillRows ranges over
// [0, Rows()).
func (s *Search) Rows() int { return s.m + 1 }

// FillRows computes every memo cell with row index in [lo, hi). Rows
// are independent, so concurrent calls over disjoint ranges are safe.
func (s *Search) FillRows(lo, hi int) {
	s.setup()
	lo = max(lo, 1) // row 0 is the empty panel, cost 0 by definition
	hi = min(hi, s.m+1)
	for mm := lo; mm < hi; mm++ {
		for step := 1; step < s.nSteps; step++ {
			s.memo[mm*s.nSteps+step] = s.d.bestTile(s.tab, s.cands, mm, step*s.lanes)
		}
	}
}

// t returns the memoized T(m', n'), computing the cell on demand when
// the parallel fill did not reach it.
func (s *Search) t(mm, nn int) panelChoice {
	if mm == 0 || nn == 0 {
		return panelChoice{cost: 0}
	}
	idx := mm*s.nSteps + nn/s.lanes
	if s.memo[idx].cost >= 0 {
		return s.memo[idx]
	}
	s.memo[idx] = s.d.bestTile(s.tab, s.cands, mm, nn)
	return s.memo[idx]
}

// Finish runs the outer split search over the filled table and
// assembles the panel cover. Call after every FillRows has returned;
// Finish itself is single-threaded.
func (s *Search) Finish() (Tiling, error) {
	s.setup()
	// Algorithm 1 iterates the full (n_front, m_front_up, m_back_up)
	// product; the front and back column costs are independent given
	// n_front, so the search decomposes exactly into two 1-D minima.
	bestCost := -1.0
	var bestNF, bestMFU, bestMBU int
	columnBest := func(width int) (float64, int) {
		bc, barg := -1.0, 0
		for mu := 0; mu <= s.m; mu++ {
			c := s.t(mu, width).cost + s.t(s.m-mu, width).cost
			if bc < 0 || c < bc {
				bc, barg = c, mu
			}
		}
		return bc, barg
	}
	for nf := 0; nf <= s.nQ; nf += s.lanes {
		fc, fArg := columnBest(nf)
		bc, bArg := columnBest(s.nQ - nf)
		if c := fc + bc; bestCost < 0 || c < bestCost {
			bestCost, bestNF, bestMFU, bestMBU = c, nf, fArg, bArg
		}
	}

	tl := Tiling{MC: s.m, NC: s.n, Strategy: s.d.Name()}
	addPanel := func(row, col, pm, pn int) {
		if pm <= 0 || pn <= 0 {
			return
		}
		// Clip the logical width to the true block edge; lane padding is
		// reapplied during expansion.
		if col+pn > s.n {
			pn = s.n - col
		}
		if pn <= 0 {
			return
		}
		tl.Panels = append(tl.Panels, Panel{
			Row: row, Col: col, M: pm, N: pn, Tile: s.t(pm, quantN(pn, s.lanes)).tile,
		})
	}
	addPanel(0, 0, bestMFU, bestNF)
	addPanel(bestMFU, 0, s.m-bestMFU, bestNF)
	addPanel(0, bestNF, bestMBU, s.nQ-bestNF)
	addPanel(bestMBU, bestNF, s.m-bestMBU, s.nQ-bestNF)
	return tl, nil
}

// Tile implements Strategy.
func (d *DMT) Tile(m, n, kc int) (Tiling, error) {
	s, err := d.NewSearch(m, n, kc)
	if err != nil {
		return Tiling{}, err
	}
	return s.Finish()
}

// costTable holds the perfmodel.Terms of every tile shape a block's
// search can price: each candidate and each edge tile its remainders
// narrow it to. The terms depend only on the shape once k_c, the load
// latency and Opt are fixed, so a search prices each shape once instead
// of once per memo cell and candidate.
type costTable struct {
	step   int // n_r stride of the entries
	rowLen int // entries per m_r
	terms  []perfmodel.Terms
}

// newCostTable prices every m_r up to the largest candidate or fallback
// height and every n_r up to the largest candidate width, neither past
// the m×nQ block. Block widths are σ_lane multiples, so every n_r
// remainder is a multiple of the gcd of σ_lane and the candidate
// widths: that is the stride.
func newCostTable(p perfmodel.Params, opt perfmodel.Opt, kc, m, nQ int, cands []mkernel.Tile) *costTable {
	maxMR, maxNR, step := mkernel.MaxMR, p.Lanes, p.Lanes
	for _, t := range cands {
		maxMR, maxNR, step = max(maxMR, t.MR), max(maxNR, t.NR), gcd(step, t.NR)
	}
	maxMR, maxNR = min(maxMR, m), min(maxNR, nQ)
	tab := &costTable{step: step, rowLen: maxNR/step + 1}
	tab.terms = make([]perfmodel.Terms, (maxMR+1)*tab.rowLen)
	for mr := 1; mr <= maxMR; mr++ {
		for nr := step; nr <= maxNR; nr += step {
			tab.terms[mr*tab.rowLen+nr/step] = p.Terms(mkernel.Tile{MR: mr, NR: nr}, kc, opt)
		}
	}
	return tab
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (tab *costTable) at(mr, nr int) *perfmodel.Terms {
	return &tab.terms[mr*tab.rowLen+nr/tab.step]
}

// gridCost projects covering an mm×nn panel uniformly with tile t,
// including the narrowed edge tiles for the m and n remainders (the
// T(m, n) inner function of Algorithm 1, line 14, generalized to
// non-divisible extents).
func (tab *costTable) gridCost(t mkernel.Tile, mm, nn int) float64 {
	rows, mrem := mm/t.MR, mm%t.MR
	cols, nrem := nn/t.NR, nn%t.NR
	cost := 0.0
	if rows > 0 && cols > 0 {
		cost += float64(rows) * tab.at(t.MR, t.NR).Sequence(cols)
	}
	if nrem > 0 && rows > 0 {
		cost += float64(rows) * tab.at(t.MR, nrem).Tile
	}
	if mrem > 0 && cols > 0 {
		cost += tab.at(mrem, t.NR).Sequence(cols)
	}
	if mrem > 0 && nrem > 0 {
		cost += tab.at(mrem, nrem).Tile
	}
	return cost
}
