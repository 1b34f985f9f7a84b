// Tuning: shows the paper's §IV-C claim that the Eqn-13 performance
// model prunes the TVM-style parameter search dramatically. The same
// irregular shape is tuned with model pruning and blind (the first
// candidates of the grid, unscored); both runs report how many
// candidates reached the cycle simulator and what they found.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"autogemm/internal/hw"
	"autogemm/internal/tuner"
)

func main() {
	chipName := flag.String("chip", "Graviton2", "chip model")
	m := flag.Int("m", 60, "rows")
	n := flag.Int("n", 200, "columns")
	k := flag.Int("k", 36, "depth")
	flag.Parse()

	chip, err := hw.ByName(*chipName)
	if err != nil {
		log.Fatal(err)
	}
	run := func(useModel bool, evals int) tuner.Result {
		start := time.Now()
		res, err := tuner.Tune(tuner.Config{
			Chip: chip, M: *m, N: *n, K: *k,
			UseModel: useModel, MaxEvals: evals,
		})
		if err != nil {
			log.Fatal(err)
		}
		mode := "model-pruned"
		if !useModel {
			mode = "blind       "
		}
		fmt.Printf("%s  generated=%4d pruned=%4d simulated=%3d best=%.1f GF/s  (%v)\n",
			mode, res.Generated, res.Pruned, res.Evaluated,
			res.Estimate.GFLOPS, time.Since(start).Round(time.Millisecond))
		return res
	}

	fmt.Printf("tuning %dx%dx%d on %s\n\n", *m, *n, *k, chip.Name)
	pruned := run(true, 12)
	blind := run(false, 96)

	fmt.Printf("\nmodel pruning simulated %.0f%% fewer candidates", 100*(1-float64(pruned.Evaluated)/float64(blind.Evaluated)))
	if d := 100 * (1 - pruned.Estimate.Cycles/blind.Estimate.Cycles); d >= 0 {
		fmt.Printf(" and its pick runs in %.1f%% fewer cycles than the blind search's\n", d)
	} else {
		fmt.Printf(" and its pick runs in %.1f%% more cycles than the blind search's\n", -d)
	}
	b := pruned.Best
	fmt.Printf("\nchosen parameters: m_c=%d n_c=%d k_c=%d packing=%s\n",
		b.MC, b.NC, b.KC, b.Pack)
}
