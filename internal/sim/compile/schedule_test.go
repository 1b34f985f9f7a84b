package compile

import "testing"

// Micro-op builders for 4-lane regions: vector operands are register
// numbers scaled by σ_lane = 4, as buildUop emits them.
func fm4(d, a, b, lane int32) uop { return uop{kind: uFmla4, d: d * 4, a: a * 4, b: b*4 + lane} }
func ld4(d int32) uop             { return uop{kind: uLdrQ4, d: d * 4, a: 1} }
func zero4(d int32) uop           { return uop{kind: uVZero4, d: d * 4} }

// TestScheduleRegionRules checks each legality rule of the block
// scheduler on hand-built regions, independent of the analyzer (which
// refuses some of these programs before they could reach translate).
func TestScheduleRegionRules(t *testing.T) {
	overflow := make([]uop, 0, maxTemps+2)
	for i := 0; i <= maxTemps; i++ {
		overflow = append(overflow, ld4(2))
	}
	overflow = append(overflow, fm4(1, 2, 3, 0))

	cases := []struct {
		name   string
		region []uop
		ok     bool
	}{
		{"plain", []uop{ld4(2), fm4(1, 2, 3, 0), ld4(2), fm4(1, 2, 3, 1)}, true},
		{"acc-init-before-first-fmla", []uop{zero4(1), ld4(1), fm4(1, 2, 3, 0)}, true},
		{"acc-as-multiplicand", []uop{fm4(1, 2, 3, 0), fm4(4, 1, 3, 0)}, false},
		{"acc-as-scalar", []uop{fm4(4, 2, 1, 0), fm4(1, 2, 3, 0)}, false},
		{"acc-reloaded", []uop{fm4(1, 2, 3, 0), ld4(1)}, false},
		{"acc-zeroed", []uop{fm4(1, 2, 3, 0), zero4(1)}, false},
		{"n-lane", []uop{{kind: uFmlaN, d: 4, a: 8, b: 12}}, false},
		{"temp-overflow", overflow, false},
	}
	for _, tc := range cases {
		c := &code{}
		out := []uop{{kind: uMovI}}
		if got := c.scheduleRegion(&out, tc.region, countFmla(tc.region)); got != tc.ok {
			t.Errorf("%s: scheduled %v, want %v", tc.name, got, tc.ok)
		}
		if !tc.ok && len(out) != 1 {
			t.Errorf("%s: failed check left %d micro-ops behind", tc.name, len(out)-1)
		}
	}
}

// TestScheduleRegionLayout pins the scheduled form of a rotating
// two-step region: loads renamed into temps in order, one chain run,
// then write-backs of the renamed registers.
func TestScheduleRegionLayout(t *testing.T) {
	// v0 and v1 accumulate against the same B vector v2 with different A
	// scalars (v3, v4): one pair. v2 is reloaded between the steps.
	region := []uop{
		fm4(0, 2, 3, 0), fm4(1, 2, 4, 0),
		ld4(2),
		fm4(0, 2, 3, 1), fm4(1, 2, 4, 1),
	}
	c := &code{}
	var out []uop
	if !c.scheduleRegion(&out, region, countFmla(region)) {
		t.Fatal("region not scheduled")
	}
	t0 := int32(tempBase)
	want := []uop{
		{kind: uLdrQ4, d: t0, a: 1},
		{kind: uChain4, a: 0, b: 1},
		{kind: uMov4, d: 2 * 4, a: t0},
	}
	if len(out) != len(want) {
		t.Fatalf("got %d micro-ops %+v, want %d", len(out), out, len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("uop %d: got %+v, want %+v", i, out[i], want[i])
		}
	}
	if len(c.chains) != 1 || c.chains[0] != (chain{d1: 0, d2: 16, lo: 0, hi: 2}) {
		t.Fatalf("chains %+v, want one pair v0/v1 over two steps", c.chains)
	}
	wantSteps := []step{
		{a: 2 * 16, b1: 3 * 16, b2: 4 * 16},
		{a: t0 * 4, b1: 3*16 + 4, b2: 4*16 + 4},
	}
	for i, s := range wantSteps {
		if c.steps[i] != s {
			t.Errorf("step %d: got %+v, want %+v", i, c.steps[i], s)
		}
	}
}
