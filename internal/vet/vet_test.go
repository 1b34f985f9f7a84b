package vet_test

import (
	"path/filepath"
	"testing"

	"autogemm/internal/vet"
)

// runFixture sweeps one seeded-defect package under testdata/src and
// returns its findings. Fixtures get a synthetic import path so no
// analyzer's package exemption accidentally applies.
func runFixture(t *testing.T, name string) []vet.Finding {
	t.Helper()
	return runFixtureAs(t, name, "fixture/"+name)
}

// runFixtureAs sweeps a fixture under an explicit import path —
// inclusion-scoped rules (walltime) only fire when the fixture poses as
// a package inside their scope.
func runFixtureAs(t *testing.T, name, pkgPath string) []vet.Finding {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	findings, err := vet.RunDir(dir, pkgPath, vet.All())
	if err != nil {
		t.Fatalf("RunDir(%s): %v", name, err)
	}
	return findings
}

// TestSeededDefects proves each analyzer has teeth: every fixture
// carries deliberate violations of exactly one rule, and the analyzer
// must flag all of them (and nothing else — each fixture also contains
// legitimate code that must stay clean).
func TestSeededDefects(t *testing.T) {
	cases := []struct {
		fixture  string
		analyzer string
		want     int
		pkgPath  string // non-default import path (inclusion-scoped rules)
	}{
		{"planmutbad", "planmut", 4, ""},
		{"coreplanmutbad", "planmut", 3, ""},
		{"unsafebad", "unsafeptr", 1, ""},
		{"ctxbad", "ctxfirst", 2, ""},
		{"gobad", "goroutine", 3, ""},
		// walltime only fires inside virtual-time-critical packages, so
		// the fixture poses as internal/sched.
		{"walltimebad", "walltime", 2, "autogemm/internal/sched"},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			var findings []vet.Finding
			if tc.pkgPath != "" {
				findings = runFixtureAs(t, tc.fixture, tc.pkgPath)
			} else {
				findings = runFixture(t, tc.fixture)
			}
			if len(findings) != tc.want {
				t.Errorf("got %d finding(s), want %d:", len(findings), tc.want)
				for _, f := range findings {
					t.Logf("  %s", f)
				}
			}
			for _, f := range findings {
				if f.Analyzer != tc.analyzer {
					t.Errorf("unexpected analyzer %s: %s", f.Analyzer, f)
				}
			}
		})
	}
}

// TestServeCmdScopeCovered sweeps the serving-shaped fixture posed as
// the serving binary's import path: the goroutine and ctxfirst rules
// must reach cmd/autogemm-serve — request handlers spawning their own
// goroutines or burying the context are exactly the defects the
// serving layer must not grow, and no package exemption may shadow
// them there.
func TestServeCmdScopeCovered(t *testing.T) {
	findings := runFixtureAs(t, "servebad", "autogemm/cmd/autogemm-serve")
	got := map[string]int{}
	for _, f := range findings {
		got[f.Analyzer]++
	}
	if got["goroutine"] != 2 {
		t.Errorf("goroutine findings in cmd/autogemm-serve scope = %d, want 2", got["goroutine"])
		for _, f := range findings {
			t.Logf("  %s", f)
		}
	}
	if got["ctxfirst"] != 1 {
		t.Errorf("ctxfirst findings in cmd/autogemm-serve scope = %d, want 1", got["ctxfirst"])
	}
	if extra := len(findings) - got["goroutine"] - got["ctxfirst"]; extra != 0 {
		t.Errorf("%d finding(s) from unexpected analyzers", extra)
	}
}

// TestSkipExemptsConfinedPackage checks the package exemptions: the
// same defect inside the package a rule confines to is not reported.
func TestSkipExemptsConfinedPackage(t *testing.T) {
	dir := filepath.Join("testdata", "src", "gobad")
	findings, err := vet.RunDir(dir, "autogemm/internal/sched", vet.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Analyzer == "goroutine" {
			t.Errorf("goroutine rule fired inside its own exempt package: %s", f)
		}
	}
}

// TestPlanMutExemptsOwners checks planmut's exemptions: internal/core
// may write its own attached plans, but not a published plan.Plan.
func TestPlanMutExemptsOwners(t *testing.T) {
	if got := runFixtureAs(t, "coreplanmutbad", "autogemm/internal/core"); len(got) != 0 {
		t.Errorf("core.Plan writes inside internal/core reported: %v", got)
	}
	if got := runFixtureAs(t, "planmutbad", "autogemm/internal/core"); len(got) != 4 {
		t.Errorf("plan.Plan writes inside internal/core: %d finding(s), want 4", len(got))
	}
}

// TestWalltimeScopeExcludesRestOfTree checks the walltime rule's
// inclusion scope: the same wall-clock reads outside the critical
// packages (a benchmark driver, say) are not reported.
func TestWalltimeScopeExcludesRestOfTree(t *testing.T) {
	findings := runFixture(t, "walltimebad") // swept as fixture/walltimebad
	for _, f := range findings {
		if f.Analyzer == "walltime" {
			t.Errorf("walltime rule fired outside its critical-package scope: %s", f)
		}
	}
}

// TestTreeIsClean sweeps the real module with every analyzer and
// requires zero findings — the invariants the analyzers encode are
// supposed to hold on the shipped tree, not just in principle.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree typecheck is slow; skipped in -short mode")
	}
	root, err := vet.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := vet.Run(root, vet.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
