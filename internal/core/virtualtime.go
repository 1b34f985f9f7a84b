package core

import (
	"fmt"

	"autogemm/internal/vtime"
)

// TaskCosts returns the plan's per-task simulated costs, indexed by the
// task (C-tile group) index of every job the plan submits: compute
// cycles from the per-band timing simulation plus the DRAM traffic the
// group moves. It is the cost source internal/vtime replays the
// scheduler's jobs over (the replay experiments in internal/experiments).
//
// The costs are a pure function of the plan (shape, blocking, tilings,
// chip): the memoized per-shape block costs the analytic Estimate uses,
// summed over each group's block visits in the fixed grid order. They
// do not depend on which worker runs which task, or at what GOMAXPROCS.
// Built once; the slice is shared — callers must not mutate it.
func (p *Plan) TaskCosts() ([]vtime.TaskCost, error) {
	p.taskOnce.Do(func() {
		costs, _, err := p.shapeCosts()
		if err != nil {
			p.taskErr = err
			return
		}
		tc := make([]vtime.TaskCost, len(p.groups))
		for gi, group := range p.groups {
			for _, blk := range group {
				bc, ok := costs[[3]int{blk.MB, blk.NB, blk.KB}]
				if !ok {
					p.taskErr = fmt.Errorf("core: no cost for block shape %dx%dx%d", blk.MB, blk.NB, blk.KB)
					return
				}
				tc[gi].Cycles += bc.total()
				tc[gi].Bytes += bc.dram
			}
		}
		p.taskCosts = tc
	})
	return p.taskCosts, p.taskErr
}
