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
// and of a counted loop: the groups, their strides, the accumulator
// set-up and the exit vector file.
func TestScheduleRegionLayout(t *testing.T) {
	e := &regionEnv{base: [3]int64{1000, 5000, 9000}, ld: [3]int64{400, 800, 1200}}
	// v0 and v1 accumulate against the same B vector v2 with scalars
	// from two A vectors (v3 at col 0, v4 at col 64): one pair over two
	// steps. v2 is reloaded one B vector on between the steps.
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
	if len(r.groups) != 1 || r.groups[0].k != 2 || r.groups[0].n != 2 {
		t.Fatalf("groups %+v, want one pair over two steps", r.groups)
	}
	g := r.groups[0]
	if g.abank != 1 || e.at(1, g.a) != 5000 || g.sa.bytes(800) != 16 {
		t.Errorf("multiplicand bank %d at %v stride %v, want B at 5000 stride 16", g.abank, g.a, g.sa)
	}
	for i, want := range []struct {
		d, b int64
		init uint8
	}{{0, 1000, verZero}, {16, 1064, verLive}} {
		ac := g.acc[i]
		if int64(ac.d) != want.d || ac.bbank != 0 || e.at(0, ac.b) != want.b || ac.sb.bytes(400) != 4 || ac.init != want.init {
			t.Errorf("accumulator %d: %+v; want v%d, scalars A at %d stride 4, init %d", i, ac, want.d/16, want.b, want.init)
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

	// A counted loop: three steps of B one row (800 bytes) apart and A
	// one element apart; v0 is zeroed before the loop.
	loopRegion, loops := counted(
		[]uop{ldB(2, 0), ldA(3, 0), zero4(0)},
		[]uop{fm4(1, 2, 3, 0), {kind: uLoad4, bank: 1, d: 8, lanes: 4, row: 1, drow: 1}, ld(0, 3, 4, 4)}, 3)
	r = buildRegion(new(buffers), loopRegion, loops)
	if r == nil {
		t.Fatal("loop region not proven")
	}
	if len(r.groups) != 1 || r.groups[0].k != 1 || r.groups[0].n != 3 {
		t.Fatalf("groups %+v, want one accumulator over three steps", r.groups)
	}
	g = r.groups[0]
	if e.at(1, g.a) != 5000 || g.sa.bytes(800) != 800 || e.at(0, g.acc[0].b) != 1000 || g.acc[0].sb.bytes(400) != 4 {
		t.Errorf("group %+v: want B 5000+800j, A 1000+4j", g)
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
