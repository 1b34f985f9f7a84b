package compile

import "testing"

// Micro-op constructors for 4-lane regions: vector operands are register
// numbers scaled by σ_lane = 4, as buildUop emits them. A loads come
// from bank 0 through x0, B loads from bank 1 through x1.
func fm4(d, a, b, lane int32) uop    { return uop{kind: uFmla4, d: d * 4, a: a * 4, b: b*4 + lane} }
func ldA(d int32, imm int64) uop     { return uop{kind: uLdrQ4, d: d * 4, a: 0, imm: imm, bank: 0} }
func ldB(d int32, imm int64) uop     { return uop{kind: uLdrQ4, d: d * 4, a: 1, imm: imm, bank: 1} }
func ldAPost(d int32, inc int64) uop { return uop{kind: uLdrQPost4, d: d * 4, a: 0, imm: inc, bank: 0} }
func zero4(d int32) uop              { return uop{kind: uVZero4, d: d * 4} }
func addI(r int32, imm int64) uop    { return uop{kind: uAddI, d: r, a: r, imm: imm} }
func count() uop                     { return uop{kind: uSubs, d: 29, a: 29, imm: 1} }

// counted is a region of pre followed by a counted loop running body
// trips times.
func counted(pre, body []uop, trips int64) ([]uop, []span) {
	region := append(append([]uop(nil), pre...), body...)
	return region, []span{{lo: len(pre), hi: len(region), trips: trips}}
}

// TestScheduleRegionRules checks each legality rule of the affine
// region proof on hand-built regions, independent of the analyzer
// (which refuses some of these programs before they could reach
// translate).
func TestScheduleRegionRules(t *testing.T) {
	// One accumulator over a 3-trip loop: v2 is B, reloaded one row
	// ahead, v3 is A, post-incremented one element per trip.
	loopPre := []uop{ldB(2, 0), addI(1, 16), ldAPost(3, 4)}
	loopBody := []uop{fm4(1, 2, 3, 0), ldB(2, 0), addI(1, 16), ldAPost(3, 4), count()}
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
		// The pre-loop B load is two rows ahead of the one the body
		// carries into trip 1: trip 0 breaks the progression.
		loopCase("loop-carried-mismatch", []uop{ldB(2, 32), addI(1, 16), ldAPost(3, 4)}, loopBody, false),
		// Two FMLAs a trip on scalar lanes 0 and 1 of a loop-invariant A
		// vector: stride 4 inside the trip, 0 across trips.
		loopCase("loop-step-mismatch", []uop{ldB(2, 0), ldA(3, 0)},
			[]uop{fm4(1, 2, 3, 0), fm4(1, 2, 3, 1), count()}, false),
		loopCase("loop-acc-reloaded", []uop{ldB(2, 0), ldA(3, 0)},
			[]uop{ldB(1, 64), fm4(1, 2, 3, 0), count()}, false),
		// x6 trails x1 by one trip: its delta is 0 on trip 0 and 16 after.
		loopCase("loop-not-affine", []uop{ldB(2, 0), ldA(3, 0), {kind: uMov, d: 6, a: 1}},
			[]uop{fm4(1, 2, 3, 0), {kind: uMov, d: 6, a: 1}, addI(1, 16), {kind: uLdrQ4, d: 8, a: 6, bank: 1}, count()}, false),
	}
	for _, c := range cases {
		r := buildRegion(new(buffers), c.region, c.loops)
		if got := r != nil; got != c.ok {
			t.Errorf("%s: proven %v, want %v", c.name, got, c.ok)
		}
	}
}

// regionEnv evaluates a region's refs against fixed entry registers.
type regionEnv struct {
	r *region
	x [32]int64
}

func (e *regionEnv) at(f ref) int64 {
	fm := e.r.forms[f.f]
	return fm.k0*e.x[fm.r0] + fm.k1*e.x[fm.r1] + f.off
}

// TestScheduleRegionLayout pins the executable form of a small region
// and of a counted loop: the groups, their strides, the accumulator
// set-up and the exit state.
func TestScheduleRegionLayout(t *testing.T) {
	// v0 and v1 accumulate against the same B vector v2 with scalars
	// from two A rows (v3 at x0, v4 at x0+64): one pair over two steps.
	// v2 is reloaded one B vector on between the steps.
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
	e := &regionEnv{r: r}
	e.x[0], e.x[1] = 1000, 5000
	if len(r.groups) != 1 || r.groups[0].k != 2 || r.groups[0].n != 2 {
		t.Fatalf("groups %+v, want one pair over two steps", r.groups)
	}
	g := r.groups[0]
	if g.abank != 1 || e.at(g.a) != 5000 || e.at(g.sa) != 16 {
		t.Errorf("multiplicand bank %d at %d stride %d, want B at 5000 stride 16", g.abank, e.at(g.a), e.at(g.sa))
	}
	for i, want := range []struct {
		d, b int64
		init uint8
	}{{0, 1000, verZero}, {16, 1064, verLive}} {
		ac := g.acc[i]
		if int64(ac.d) != want.d || ac.bbank != 0 || e.at(ac.b) != want.b || e.at(ac.sb) != 4 || ac.init != want.init {
			t.Errorf("accumulator %d: %+v; want v%d, scalars A at %d stride 4, init %d", i, ac, want.d/16, want.b, want.init)
		}
	}
	// Exit: v2 holds its second load, v3 and v4 their loads; no x
	// register or flag changed.
	finals := map[int32]int64{}
	for _, s := range r.final {
		finals[s.d/16] = e.at(s.at)
	}
	if len(finals) != 3 || finals[2] != 5016 || finals[3] != 1000 || finals[4] != 1064 {
		t.Errorf("final reloads %v, want v2@5016 v3@1000 v4@1064", finals)
	}
	if len(r.xs) != 0 || r.setZ || r.fuel != 0 {
		t.Errorf("exit x %v, flags %v, fuel %d; want none", r.xs, r.setZ, r.fuel)
	}

	// The counted loop of TestScheduleRegionRules: three steps of B
	// stride 16 and A stride 4, x0 and x1 moved by three trips, and two
	// taken branches charged.
	loopRegion, loops := counted(
		[]uop{ldB(2, 0), addI(1, 16), ldAPost(3, 4), {kind: uMovI, d: 29, imm: 3}},
		[]uop{fm4(1, 2, 3, 0), ldB(2, 0), addI(1, 16), ldAPost(3, 4), count()}, 3)
	r = buildRegion(new(buffers), loopRegion, loops)
	if r == nil {
		t.Fatal("loop region not proven")
	}
	e = &regionEnv{r: r}
	e.x[0], e.x[1] = 1000, 5000
	if len(r.groups) != 1 || r.groups[0].k != 1 || r.groups[0].n != 3 {
		t.Fatalf("groups %+v, want one accumulator over three steps", r.groups)
	}
	g = r.groups[0]
	if e.at(g.a) != 5000 || e.at(g.sa) != 16 || e.at(g.acc[0].b) != 1000 || e.at(g.acc[0].sb) != 4 {
		t.Errorf("group %+v: want B 5000+16j, A 1000+4j", g)
	}
	xs := map[uint8]int64{}
	for _, s := range r.xs {
		xs[s.r] = e.at(s.at)
	}
	if len(xs) != 3 || xs[0] != 1016 || xs[1] != 5064 || xs[29] != 0 {
		t.Errorf("exit x %v, want x0 1016, x1 5064, x29 0", xs)
	}
	if !r.setZ || e.at(r.z) != 0 || r.fuel != 2 {
		t.Errorf("flags %v (%d), fuel %d; want z set, fuel 2", r.setZ, e.at(r.z), r.fuel)
	}
	finals = map[int32]int64{}
	for _, s := range r.final {
		finals[s.d/16] = e.at(s.at)
	}
	if finals[2] != 5048 || finals[3] != 1012 {
		t.Errorf("final reloads %v, want v2@5048 v3@1012", finals)
	}
}
