// Command autogemm-tune searches the algorithm parameter space for one
// GEMM shape and prints the winning configuration:
//
//	autogemm-tune -chip Graviton2 -m 256 -n 3136 -k 64
//
// With -plan-dir it pre-bakes an on-disk plan registry: the tuned plan
// and the default (auto-options) plan are both persisted, so a serving
// process pointed at the same directory (AUTOGEMM_PLAN_DIR or
// autogemm.WithPlanDir) warm-starts Multiply without planning:
//
//	autogemm-tune -chip KP920 -m 64 -n 3136 -k 64 -plan-dir /var/lib/autogemm/plans
package main

import (
	"flag"
	"fmt"
	"os"

	"autogemm"
)

func main() {
	chip := flag.String("chip", "KP920", "chip model")
	m := flag.Int("m", 64, "rows of A and C")
	n := flag.Int("n", 64, "columns of B and C")
	k := flag.Int("k", 64, "inner dimension")
	budget := flag.Int("budget", 16, "simulator evaluation budget")
	explain := flag.Bool("explain", false, "print the resolved plan and its tilings")
	planDir := flag.String("plan-dir", "", "persist the tuned and default plans into this registry directory")
	flag.Parse()

	var engOpts []autogemm.EngineOption
	if *planDir != "" {
		engOpts = append(engOpts, autogemm.WithPlanDir(*planDir))
	}
	eng, err := autogemm.New(*chip, engOpts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts, perf, err := eng.Tune(*m, *n, *k, *budget)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("problem   %dx%dx%d on %s\n", *m, *n, *k, eng.ChipName())
	fmt.Printf("blocking  m_c=%d n_c=%d k_c=%d\n", opts.MC, opts.NC, opts.KC)
	fmt.Printf("packing   %s\n", opts.Pack)
	fmt.Printf("projected %.1f GF/s (%.1f%% of single-core peak)\n",
		perf.GFLOPS, perf.Efficiency*100)
	if *planDir != "" {
		// Engine.Tune already persisted the tuned plan; also pre-bake the
		// default-options plan so plain Multiply warm-starts too.
		tuned, err := eng.PlanFor(&opts, *m, *n, *k)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		auto, err := eng.PlanFor(nil, *m, *n, *k)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := eng.SavePlan(auto); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("registry  %s: tuned %s, auto %s\n", *planDir, tuned.Fingerprint(), auto.Fingerprint())
	}
	if *explain {
		desc, err := eng.DescribePlan(&opts, *m, *n, *k)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(desc)
	}
}
