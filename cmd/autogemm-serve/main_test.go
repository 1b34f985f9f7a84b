package main

import (
	"testing"

	"autogemm"
)

// TestParsePlanMode: only the empty default, full and tiered pass; any
// other -plan-mode value is refused rather than run as full planning.
func TestParsePlanMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want autogemm.PlanMode
		ok   bool
	}{
		{"", "", true},
		{"full", autogemm.PlanModeFull, true},
		{"tiered", autogemm.PlanModeTiered, true},
		{"tierd", "", false},
		{"Tiered", "", false},
		{"full ", "", false},
		{"heuristic", "", false},
	} {
		got, err := parsePlanMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("parsePlanMode(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
