// Command autogemm-verify runs the paper's §V correctness process: every
// library implementation computes randomized problems and is checked
// against the reference to relative error < 1e-6.
//
//	autogemm-verify -chip A64FX -cases 100 -max 64 -variants
//
// With -plans it instead deep-audits a baked plan registry (as written
// by `autogemm-tune -plan-dir`): every plan is checked for coverage,
// bounds composition and structure, and every kernel it names is
// generated and dataflow-analyzed (internal/plan/audit). The exit
// status is 1 if any plan fails.
//
//	autogemm-verify -plans /var/lib/autogemm/plans
package main

import (
	"flag"
	"fmt"
	"os"

	"autogemm/internal/hw"
	"autogemm/internal/plan"
	"autogemm/internal/plan/audit"
	"autogemm/internal/verify"
)

func main() {
	chipName := flag.String("chip", "KP920", "chip model, or 'all'")
	cases := flag.Int("cases", 40, "randomized problems per chip")
	maxDim := flag.Int("max", 48, "maximum dimension")
	seed := flag.Int64("seed", 1, "case generator seed")
	variants := flag.Bool("variants", false, "also sweep autoGEMM option variants")
	plansDir := flag.String("plans", "", "deep-audit every plan in this registry directory instead")
	flag.Parse()

	if *plansDir != "" {
		if auditRegistry(*plansDir) > 0 {
			os.Exit(1)
		}
		return
	}

	chips := hw.All()
	if *chipName != "all" {
		chip, err := hw.ByName(*chipName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		chips = []*hw.Chip{chip}
	}
	failed := false
	for _, chip := range chips {
		rep, err := verify.Run(verify.Config{
			Chip: chip, Cases: *cases, MaxDim: *maxDim, Seed: *seed, Variants: *variants,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%-10s %d cases, %d checks, max rel err %.2e — ",
			chip.Name, rep.Cases, rep.Checks, rep.MaxRelErr)
		if len(rep.Failures) == 0 {
			fmt.Println("all within 1e-6")
			continue
		}
		failed = true
		fmt.Printf("%d FAILURES\n", len(rep.Failures))
		for _, f := range rep.Failures {
			fmt.Println("  " + f.String())
		}
	}
	if failed {
		os.Exit(1)
	}
}

// auditRegistry deep-audits every plan in the registry at dir, reports
// each failure and a one-line summary, and returns the failure count.
// A missing or unreadable registry counts as one failure.
func auditRegistry(dir string) int {
	if _, err := os.Stat(dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	reg := plan.NewRegistry(dir)
	fps, err := reg.List()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	failures := 0
	for _, fp := range fps {
		if err := auditEntry(reg, fp); err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "%s: %v\n", fp, err)
		}
	}
	fmt.Printf("audit %d plan(s) in %s, %d failure(s)\n", len(fps), dir, failures)
	return failures
}

// auditEntry loads one registry plan and deep-audits it on its chip.
func auditEntry(reg *plan.Registry, fp string) error {
	p, err := reg.Load(fp)
	if err != nil {
		return err
	}
	chip, err := hw.ByName(p.Request.Chip)
	if err != nil {
		return err
	}
	_, err = audit.Audit(chip, p, audit.Options{Deep: true})
	return err
}
