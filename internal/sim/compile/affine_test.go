package compile

import "testing"

// Micro-op constructors for 4-lane regions: vector operands are register
// numbers scaled by σ_lane = 4, as decode emits them. ld loads vector d
// from col bytes into row 0 of bank, moving dcol bytes a trip; ldA and
// ldB load from the A (bank 0) and B (bank 1) panels outside loops.
func fm4(d, a, b, lane int32) uop { return uop{kind: uFmla4, d: d * 4, a: a * 4, b: b*4 + lane} }
func ld(bank uint8, d, col, dcol int32) uop {
	return uop{kind: uLoad4, bank: bank, d: d * 4, lanes: 4, col: col, dcol: dcol}
}
func ldA(d, col int32) uop { return ld(0, d, col, 0) }
func ldB(d, col int32) uop { return ld(1, d, col, 0) }
func zero4(d int32) uop    { return uop{kind: uVZero4, d: d * 4} }

// counted is a region of pre followed by a counted loop running body
// trips times.
func counted(pre, body []uop, trips int64) ([]uop, []span) {
	region := append(append([]uop(nil), pre...), body...)
	return region, []span{{lo: len(pre), hi: len(region), trips: trips}}
}

// TestScheduleRegionRules checks each legality rule of the affine
// region proof's vector half on hand-built regions, independent of the
// analyzer (which refuses some of these programs before they could
// reach translate). The address half is the analyzer's: see
// TestUnprovenLoops.
func TestScheduleRegionRules(t *testing.T) {
	// One accumulator over a 3-trip loop: v2 is B, reloaded one vector
	// ahead, v3 is A, one element on per trip.
	loopPre := []uop{ldB(2, 0), ldA(3, 0)}
	loopBody := []uop{fm4(1, 2, 3, 0), ld(1, 2, 16, 16), ld(0, 3, 4, 4)}
	type tc struct {
		name   string
		region []uop
		loops  []span
		ok     bool
	}
	loopCase := func(name string, pre, body []uop, ok bool) tc {
		r, l := counted(pre, body, 3)
		return tc{name, r, l, ok}
	}
	cases := []tc{
		{"plain", []uop{ldA(3, 0), ldB(2, 0), fm4(1, 2, 3, 0), ldB(2, 16), fm4(1, 2, 3, 1)}, nil, true},
		{"acc-init-before-first-fmla", []uop{ldA(3, 0), ldB(2, 0), zero4(1), ldB(1, 64), fm4(1, 2, 3, 0)}, nil, true},
		{"acc-as-multiplicand", []uop{ldA(3, 0), ldB(2, 0), fm4(1, 2, 3, 0), fm4(4, 1, 3, 0)}, nil, false},
		{"acc-as-scalar", []uop{ldA(3, 0), ldB(2, 0), fm4(4, 2, 1, 0), fm4(1, 2, 3, 0)}, nil, false},
		{"acc-reloaded", []uop{ldA(3, 0), ldB(2, 0), fm4(1, 2, 3, 0), ldB(1, 0)}, nil, false},
		{"acc-zeroed", []uop{ldA(3, 0), ldB(2, 0), fm4(1, 2, 3, 0), zero4(1)}, nil, false},
		{"n-lane", []uop{ldA(3, 0), ldB(2, 0), {kind: uFmlaN, d: 4, a: 8, b: 12}}, nil, false},
		// Scalar lanes 0, 2, 1: addresses +0, +8, +4.
		{"non-progression", []uop{ldA(3, 0), ldB(2, 0),
			fm4(1, 2, 3, 0), fm4(1, 2, 3, 2), fm4(1, 2, 3, 1)}, nil, false},
		{"multiplicand-not-loaded", []uop{ldA(3, 0), fm4(1, 2, 3, 0)}, nil, false},
		{"zeroed-scalar", []uop{ldB(2, 0), zero4(3), fm4(1, 2, 3, 0)}, nil, false},
		loopCase("loop", loopPre, loopBody, true),
		// B moves a whole row a trip: the progression is over (row, col)
		// pairs, so it holds for every leading dimension.
		loopCase("loop-rows", loopPre,
			[]uop{fm4(1, 2, 3, 0), {kind: uLoad4, bank: 1, d: 8, lanes: 4, row: 1, drow: 1}, ld(0, 3, 4, 4)}, true),
		// The pre-loop B load is two vectors ahead of the one the body
		// carries into trip 1: trip 0 breaks the progression.
		loopCase("loop-carried-mismatch", []uop{ldB(2, 32), ldA(3, 0)}, loopBody, false),
		// The pre-loop B load is on row 0; the body carries row 1 − 1 =
		// 0 but at column 16.
		loopCase("loop-carried-row-mismatch", loopPre,
			[]uop{fm4(1, 2, 3, 0), {kind: uLoad4, bank: 1, d: 8, lanes: 4, row: 1, col: 16, drow: 1}, ld(0, 3, 4, 4)}, false),
		// Two FMLAs a trip on scalar lanes 0 and 1 of a loop-invariant A
		// vector: stride 4 inside the trip, 0 across trips.
		loopCase("loop-step-mismatch", []uop{ldB(2, 0), ldA(3, 0)},
			[]uop{fm4(1, 2, 3, 0), fm4(1, 2, 3, 1)}, false),
		loopCase("loop-acc-reloaded", []uop{ldB(2, 0), ldA(3, 0)},
			[]uop{ldB(1, 64), fm4(1, 2, 3, 0)}, false),
	}
	for _, c := range cases {
		r := buildRegion(new(buffers), c.region, c.loops)
		if got := r != nil; got != c.ok {
			t.Errorf("%s: proven %v, want %v", c.name, got, c.ok)
		}
	}
}

// regionEnv resolves a region's positions against fixed panel bases
// and leading dimensions, in bytes.
type regionEnv struct {
	base, ld [3]int64
}

func (e *regionEnv) at(bank uint8, p pos) int64 { return e.base[bank] + p.bytes(e.ld[bank]) }

// TestScheduleRegionLayout pins the executable form of a small region
// and of a counted loop: the tile chunks, their strides and row
// offsets, the accumulator set-up and slots, and the exit vector file.
func TestScheduleRegionLayout(t *testing.T) {
	e := &regionEnv{base: [3]int64{1000, 5000, 9000}, ld: [3]int64{400, 800, 1200}}
	// v0 and v1 accumulate against the same B vector v2 with scalars
	// from two A vectors (v3 at col 0, v4 at col 64): a 2×1 tile over
	// two steps. v2 is reloaded one B vector on between the steps.
	region := []uop{
		ldA(3, 0), ldA(4, 64), ldB(2, 0), zero4(0),
		fm4(0, 2, 3, 0), fm4(1, 2, 4, 0),
		ldB(2, 16),
		fm4(0, 2, 3, 1), fm4(1, 2, 4, 1),
	}
	r := buildRegion(new(buffers), region, nil)
	if r == nil {
		t.Fatal("region not proven")
	}
	if r.grid != [2]int{2, 1} || len(r.chunks) != 1 {
		t.Fatalf("grid %v, %d chunks; want one 2×1 chunk", r.grid, len(r.chunks))
	}
	ch := r.chunks[0]
	if ch.rows != 2 || ch.cols != 1 || ch.n != 2 {
		t.Fatalf("chunk %d×%d over %d steps, want 2×1 over 2", ch.rows, ch.cols, ch.n)
	}
	if ch.bbank != 1 || e.at(1, ch.b) != 5000 || ch.sb.bytes(800) != 16 {
		t.Errorf("multiplicand bank %d at %v stride %v, want B at 5000 stride 16", ch.bbank, ch.b, ch.sb)
	}
	if ch.abank != 0 || e.at(0, ch.a) != 1000 || ch.sa.bytes(400) != 4 || ch.off[1].bytes(400) != 64 {
		t.Errorf("scalars bank %d at %v stride %v, row 1 offset %v; want A at 1000 stride 4, row 1 64 on", ch.abank, ch.a, ch.sa, ch.off[1])
	}
	for i, want := range []accum{{d: 0, slot: 0, init: verZero}, {d: 16, slot: 2, init: verLive}} {
		if ch.acc[i] != want {
			t.Errorf("accumulator %d: %+v, want %+v", i, ch.acc[i], want)
		}
	}
	// Exit: v2 holds its second load, v3 and v4 their loads.
	finals := map[int32]int64{}
	for _, s := range r.final {
		finals[s.d/16] = e.at(s.bank, s.at)
	}
	if len(finals) != 3 || finals[2] != 5016 || finals[3] != 1000 || finals[4] != 1064 {
		t.Errorf("final reloads %v, want v2@5016 v3@1000 v4@1064", finals)
	}

	// A 2×2 tile whose columns first appear out of order: v5 (B col 16)
	// feeds the first FMLA, v2 (B col 0) the second. Columns sort by
	// position, so v1 and v0 take row 0's slots 0 and 1.
	region = []uop{
		ldA(3, 0), ldA(4, 64), ldB(2, 0), ldB(5, 16),
		fm4(0, 5, 3, 0), fm4(1, 2, 3, 0), fm4(6, 5, 4, 0), fm4(7, 2, 4, 0),
	}
	r = buildRegion(new(buffers), region, nil)
	if r == nil || r.grid != [2]int{2, 2} || len(r.chunks) != 1 {
		t.Fatalf("region %+v, want one 2×2 chunk", r)
	}
	ch = r.chunks[0]
	if e.at(1, ch.b) != 5000 {
		t.Errorf("first column at %d, want 5000", e.at(1, ch.b))
	}
	for i, want := range [][2]int32{{16, 0}, {0, 1}, {112, 2}, {96, 3}} {
		if got := [2]int32{ch.acc[i].d, ch.acc[i].slot}; got != want {
			t.Errorf("accumulator %d: register offset and slot %v, want %v", i, got, want)
		}
	}
	// B vectors 32 bytes apart are not contiguous: one 1×1 tile per
	// accumulator.
	region[3] = ldB(5, 32)
	r = buildRegion(new(buffers), region, nil)
	if r == nil || r.grid != [2]int{1, 1} || len(r.chunks) != 4 {
		t.Fatalf("region %+v, want four 1×1 chunks", r)
	}

	// A counted loop: three steps of B one row (800 bytes) apart and A
	// one element apart; v0 is zeroed before the loop.
	loopRegion, loops := counted(
		[]uop{ldB(2, 0), ldA(3, 0), zero4(0)},
		[]uop{fm4(1, 2, 3, 0), {kind: uLoad4, bank: 1, d: 8, lanes: 4, row: 1, drow: 1}, ld(0, 3, 4, 4)}, 3)
	r = buildRegion(new(buffers), loopRegion, loops)
	if r == nil {
		t.Fatal("loop region not proven")
	}
	if len(r.chunks) != 1 || r.chunks[0].rows != 1 || r.chunks[0].cols != 1 || r.chunks[0].n != 3 {
		t.Fatalf("chunks %+v, want one accumulator over three steps", r.chunks)
	}
	ch = r.chunks[0]
	if e.at(1, ch.b) != 5000 || ch.sb.bytes(800) != 800 || e.at(0, ch.a) != 1000 || ch.sa.bytes(400) != 4 {
		t.Errorf("chunk %+v: want B 5000+800j, A 1000+4j", ch)
	}
	finals = map[int32]int64{}
	for _, s := range r.final {
		if s.zero {
			finals[s.d/16] = -1
		} else {
			finals[s.d/16] = e.at(s.bank, s.at)
		}
	}
	if len(finals) != 3 || finals[0] != -1 || finals[2] != 7400 || finals[3] != 1012 {
		t.Errorf("final vector file %v, want v0 zero, v2@7400 v3@1012", finals)
	}
}

// TestTileChunks pins how grids are cut to the register budget: as
// evenly as possible, five vectors only up to four rows, and every
// accumulator in exactly one chunk.
func TestTileChunks(t *testing.T) {
	for _, c := range []struct {
		rows, cols int
		want       [][2]int64 // chunk rows × cols, in order
	}{
		{5, 4, [][2]int64{{5, 4}}},
		{4, 5, [][2]int64{{4, 5}}},
		{6, 3, [][2]int64{{6, 3}}},
		{8, 2, [][2]int64{{4, 2}, {4, 2}}},
		{11, 1, [][2]int64{{5, 1}, {6, 1}}},
		{7, 3, [][2]int64{{3, 3}, {4, 3}}},
		{3, 7, [][2]int64{{3, 3}, {3, 4}}},
		{5, 5, [][2]int64{{5, 2}, {5, 3}}},
		{1, 15, [][2]int64{{1, 5}, {1, 5}, {1, 5}}},
	} {
		w := &walk{}
		rows := make([]prog, c.rows)
		cols := make([]prog, c.cols)
		at := make([]int, c.rows*c.cols)
		for i := range rows {
			rows[i] = prog{start: pos{row: int64(i)}, stride: pos{col: 4}, n: 9}
		}
		for j := range cols {
			cols[j] = prog{bank: 1, start: pos{col: 16 * int64(j)}, stride: pos{row: 1}, n: 9}
		}
		for k := range at {
			at[k] = k
			w.accs = append(w.accs, accState{d: int32(k)})
		}
		chunks := w.cut(nil, rows, cols, at)
		seen := map[int32]bool{}
		for i, ch := range chunks {
			if i >= len(c.want) || [2]int64{ch.rows, ch.cols} != c.want[i] {
				t.Errorf("%d×%d: chunk %d is %d×%d, want %v", c.rows, c.cols, i, ch.rows, ch.cols, c.want)
				continue
			}
			if ch.rows > maxTileRows || ch.cols > maxTileCols(ch.rows) {
				t.Errorf("%d×%d: chunk %d×%d over the register budget", c.rows, c.cols, ch.rows, ch.cols)
			}
			for _, ac := range ch.acc {
				seen[ac.d] = true
			}
		}
		if len(chunks) != len(c.want) || len(seen) != c.rows*c.cols {
			t.Errorf("%d×%d: %d chunks covering %d accumulators, want %d chunks covering %d",
				c.rows, c.cols, len(chunks), len(seen), len(c.want), c.rows*c.cols)
		}
	}
}
