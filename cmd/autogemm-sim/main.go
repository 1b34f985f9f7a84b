// Command autogemm-sim runs one generated micro-kernel through the
// cycle-level pipeline simulator and prints the cycle count, efficiency,
// and (optionally) a Fig-3-style pipeline timeline:
//
//	autogemm-sim -chip KP920 -mr 5 -nr 16 -kc 16 -rotate -timeline
package main

import (
	"flag"
	"fmt"
	"log"

	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
	"autogemm/internal/perfmodel"
	"autogemm/internal/sim"
)

func main() {
	chipName := flag.String("chip", "Didactic", "chip model (Didactic reproduces the paper's Fig 3 parameters)")
	mr := flag.Int("mr", 5, "register tile rows")
	nr := flag.Int("nr", 16, "register tile columns")
	kc := flag.Int("kc", 16, "accumulation depth")
	rotate := flag.Bool("rotate", false, "rotating register allocation")
	timeline := flag.Bool("timeline", false, "print the pipeline Gantt chart")
	rows := flag.Int("rows", 48, "timeline rows")
	cycles := flag.Int("cycles", 110, "timeline cycle window")
	flag.Parse()

	chip, err := hw.ByName(*chipName)
	if err != nil {
		log.Fatal(err)
	}
	cfg := mkernel.Config{
		Tile: mkernel.Tile{MR: *mr, NR: *nr}, KC: *kc, Lanes: chip.Lanes,
		Rotate: *rotate, LoadC: true,
	}
	prog, err := mkernel.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	arena := sim.NewArena(1 << 18)
	aAddr := arena.Alloc(*mr**kc + 2*chip.Lanes)
	bAddr := arena.Alloc((*kc + 4) * (*nr + chip.Lanes))
	cAddr := arena.Alloc(*mr * (*nr + chip.Lanes))
	mach := sim.NewMachine(arena, chip.Lanes)
	mach.SetArg(0, aAddr)
	mach.SetArg(1, bAddr)
	mach.SetArg(2, cAddr)
	mach.SetArg(3, int64(*kc))
	mach.SetArg(4, int64(*nr))
	mach.SetArg(5, int64(*nr))

	model := sim.NewModel(chip)
	model.Caches = nil
	model.AssumeLoadLat = chip.LatLoad
	model.KeepEvents = *timeline
	res, err := model.RunAndTime(prog, mach, 1<<30)
	if err != nil {
		log.Fatal(err)
	}

	params := perfmodel.FromChip(chip)
	params.Launch = 0
	proj := params.TileTime(cfg.Tile, *kc, perfmodel.Opt{Rotate: *rotate})
	flops := perfmodel.FLOPs(cfg.Tile, *kc)
	fmt.Printf("kernel      %s on %s\n", cfg.Name(), chip.Name)
	fmt.Printf("simulated   %d cycles (%d dynamic instructions)\n", res.Cycles, res.DynInstrs)
	fmt.Printf("model       %.0f cycles (Eqns 4-10)\n", proj)
	fmt.Printf("efficiency  %.1f%% of FMA-port peak\n",
		100*perfmodel.Efficiency(chip, flops, float64(res.Cycles)))
	fmt.Printf("utilization FMA ports %.1f%%, load ports %.1f%%\n",
		100*res.FMAUtilization(chip), 100*res.LoadUtilization(chip))
	if *timeline {
		fmt.Println()
		fmt.Print(sim.RenderTimeline(prog, res.Events, *rows, *cycles))
	}
}
