package sim

import (
	"fmt"

	"autogemm/internal/asm"
	"autogemm/internal/cache"
	"autogemm/internal/hw"
)

// Event is the pipeline timeline for one dynamic instruction, used to
// render the Fig 3 cycle diagrams.
type Event struct {
	Index    int // instruction index in the program
	Dispatch int64
	Issue    int64
	Complete int64
	Class    asm.Class
}

// TimingResult reports the outcome of a timing simulation.
type TimingResult struct {
	Cycles    int64
	Events    []Event // populated only when Model.KeepEvents is set
	DynInstrs int
	DRAMLines uint64 // lines fetched from memory during the run

	// IssuedByClass counts dynamic instructions per execution class;
	// divided by Cycles and port counts this gives port utilization —
	// near-1.0 FMA utilization is what "98% of peak" means physically.
	IssuedByClass map[asm.Class]int
}

// FMAUtilization returns the fraction of FMA-port issue slots used.
func (r TimingResult) FMAUtilization(chip *hw.Chip) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.IssuedByClass[asm.ClassFMA]) / (float64(r.Cycles) * float64(chip.FMAPorts))
}

// LoadUtilization returns the fraction of load-port issue slots used.
func (r TimingResult) LoadUtilization(chip *hw.Chip) float64 {
	if r.Cycles == 0 {
		return 0
	}
	n := r.IssuedByClass[asm.ClassLoad] + r.IssuedByClass[asm.ClassPrfm]
	return float64(n) / (float64(r.Cycles) * float64(chip.LoadPorts))
}

// Model is the scoreboard pipeline simulator. It dispatches the dynamic
// trace in program order at the chip's dispatch width, issues each
// instruction when its operands, a port of its class, and the
// out-of-order window permit, and completes it after its class latency
// (loads: the latency returned by the cache hierarchy for the accessed
// line). Register renaming is modelled by dropping write-after-read and
// write-after-write ordering on chips with RenameWAR set; on the others
// a load that overwrites a register stalls until the last consumer has
// issued — exactly the FMA→LOAD→FMA hazard that rotating register
// allocation (§III-C1) removes.
type Model struct {
	Chip       *hw.Chip
	Caches     *cache.Hierarchy
	KeepEvents bool

	// AssumeLoadLat, when > 0, bypasses the cache hierarchy and charges a
	// fixed latency on every load. The perf-model validation tests use it
	// to reproduce the paper's constant-latency walk-through of Fig 3.
	AssumeLoadLat int
}

// NewModel builds a timing model with a fresh cache hierarchy.
func NewModel(chip *hw.Chip) *Model {
	return &Model{Chip: chip, Caches: cache.NewHierarchy(chip)}
}

type portSet struct {
	free []int64 // next-free cycle per port
}

func newPortSet(n int) *portSet {
	if n < 1 {
		n = 1
	}
	return &portSet{free: make([]int64, n)}
}

// take reserves the earliest-available port at or after t and returns the
// actual issue cycle.
func (ps *portSet) take(t int64) int64 {
	best := 0
	for i := 1; i < len(ps.free); i++ {
		if ps.free[i] < ps.free[best] {
			best = i
		}
	}
	if ps.free[best] > t {
		t = ps.free[best]
	}
	ps.free[best] = t + 1 // fully pipelined: one instruction per port per cycle
	return t
}

// Simulate runs the dynamic trace of program p through the pipeline and
// returns the total cycle count.
func (m *Model) Simulate(p *asm.Program, trace []TraceEntry) (TimingResult, error) {
	chip := m.Chip
	ports := map[asm.Class]*portSet{
		asm.ClassALU:   newPortSet(chip.ALUPorts),
		asm.ClassLoad:  newPortSet(chip.LoadPorts),
		asm.ClassStore: newPortSet(chip.StorePorts),
		asm.ClassFMA:   newPortSet(chip.FMAPorts),
		asm.ClassPrfm:  newPortSet(chip.LoadPorts),
	}
	// Prefetches share the load ports with demand loads.
	ports[asm.ClassPrfm] = ports[asm.ClassLoad]

	const numRegs = asm.NumScalarRegs + asm.NumVectorRegs + asm.NumPredRegs
	var regReady [numRegs]int64 // cycle the value becomes available
	var lastReadIssue [numRegs]int64
	var lastWriteIssue [numRegs]int64
	var flagReady int64

	window := chip.Window
	if window < 1 {
		window = 1
	}
	completeRing := make([]int64, window) // completion cycle of instr i-window
	dispatchWidth := chip.IssueWidth
	if dispatchWidth < 1 {
		dispatchWidth = 1
	}
	dispatchRing := make([]int64, dispatchWidth)

	var result TimingResult
	result.IssuedByClass = make(map[asm.Class]int)
	var dramBefore uint64
	if m.Caches != nil {
		dramBefore = m.Caches.DRAMReads
	}
	var lastComplete int64

	for n, te := range trace {
		if te.Index >= len(p.Instrs) {
			return result, fmt.Errorf("sim: trace index %d out of range", te.Index)
		}
		in := &p.Instrs[te.Index]
		class := asm.ClassOf(in.Op)
		if class == asm.ClassNone {
			continue
		}

		// Dispatch: in order, at most dispatchWidth per cycle, stalling
		// while the reorder window is full.
		dispatch := dispatchRing[n%dispatchWidth] + 1
		if prev := dispatchRing[(n+dispatchWidth-1)%dispatchWidth]; dispatch < prev {
			dispatch = prev // keep dispatch nondecreasing (in-order front end)
		}
		if windowLimit := completeRing[n%window]; dispatch < windowLimit {
			dispatch = windowLimit
		}

		// Operand readiness (RAW).
		ready := dispatch
		for _, r := range in.Reads() {
			if r == asm.XZR || r == asm.NoReg {
				continue
			}
			if t := regReady[r]; t > ready {
				ready = t
			}
		}
		if in.Op == asm.OpBne {
			if flagReady > ready {
				ready = flagReady
			}
		}
		// WAR/WAW on architectural registers when renaming is absent.
		if !chip.RenameWAR {
			for _, w := range in.Writes() {
				if w == asm.XZR || w == asm.NoReg {
					continue
				}
				if t := lastReadIssue[w] + 1; t > ready {
					ready = t
				}
				if t := lastWriteIssue[w] + 1; t > ready {
					ready = t
				}
			}
		}

		issue := ports[class].take(ready)

		lat := int64(m.latency(in, te))
		complete := issue + lat
		if complete > lastComplete {
			lastComplete = complete
		}

		// Bookkeeping.
		for _, r := range in.Reads() {
			if r != asm.XZR && r != asm.NoReg && issue > lastReadIssue[r] {
				lastReadIssue[r] = issue
			}
		}
		for _, w := range in.Writes() {
			if w == asm.XZR || w == asm.NoReg {
				continue
			}
			regReady[w] = complete
			lastWriteIssue[w] = issue
		}
		if in.Op == asm.OpSubs {
			flagReady = complete
		}
		dispatchRing[n%dispatchWidth] = dispatch
		completeRing[n%window] = complete
		result.DynInstrs++
		result.IssuedByClass[class]++

		if m.KeepEvents {
			result.Events = append(result.Events, Event{
				Index: te.Index, Dispatch: dispatch, Issue: issue, Complete: complete, Class: class,
			})
		}
	}
	result.Cycles = lastComplete
	if m.Caches != nil {
		result.DRAMLines = m.Caches.DRAMReads - dramBefore
	}
	return result, nil
}

// latency returns the completion latency of a dynamic instruction.
func (m *Model) latency(in *asm.Instr, te TraceEntry) int {
	chip := m.Chip
	switch asm.ClassOf(in.Op) {
	case asm.ClassALU:
		return chip.LatALU
	case asm.ClassFMA:
		return chip.LatFMA
	case asm.ClassStore:
		if m.Caches != nil && te.HasMem {
			return m.Caches.Store(uint64(te.Mem.Addr))
		}
		return chip.LatStore
	case asm.ClassLoad:
		if m.AssumeLoadLat > 0 {
			return m.AssumeLoadLat
		}
		if m.Caches != nil && te.HasMem {
			return m.Caches.Load(uint64(te.Mem.Addr))
		}
		return chip.LatLoad
	case asm.ClassPrfm:
		if m.Caches != nil && te.HasMem {
			m.Caches.Prefetch(uint64(te.Mem.Addr))
		}
		return 1
	default:
		return 0
	}
}

// TimeKernel runs one GEMM micro-kernel on a fresh machine and times it
// under m, which the caller configures (Caches, AssumeLoadLat,
// KeepEvents). The kernel reads an mr×kc panel of A and a kc×width
// panel of B and updates an mr×width tile of C, with x0–x5 set to A, B,
// C, lda = kc and ldb = ldc = width; each operand carries the slack a
// kernel's overhanging loads need. Arena.Alloc is a bump allocator, so
// every call lays the operands out at the same addresses.
func (m *Model) TimeKernel(p *asm.Program, mr, width, kc int) (TimingResult, error) {
	lanes := m.Chip.Lanes
	aWords, bWords, cWords := mr*kc+2*lanes, (kc+4)*(width+lanes), mr*(width+lanes)
	arena := NewArena(aWords + bWords + cWords + 4096)
	mach := NewMachine(arena, lanes)
	for i, v := range [...]int64{arena.Alloc(aWords), arena.Alloc(bWords), arena.Alloc(cWords),
		int64(kc), int64(width), int64(width)} {
		mach.SetArg(i, v)
	}
	return m.RunAndTime(p, mach, 1<<31)
}

// RunAndTime executes p functionally on mach (which must have Record set)
// and then times the captured trace.
func (m *Model) RunAndTime(p *asm.Program, mach *Machine, maxSteps int) (TimingResult, error) {
	mach.Record = true
	if err := mach.Run(p, maxSteps); err != nil {
		return TimingResult{}, err
	}
	return m.Simulate(p, mach.Trace)
}
