package mkernel

// Scratch is the per-worker scratch envelope a plan's blocks execute
// in when operands are staged: the packed A block, the packed B panel,
// the padded C staging buffer and its leading dimension. The sizes
// carry the documented kernel slack — MaxMR rows for padded row bands,
// MaxNROverhang columns for padded tiles, and the rotation preload
// over-reads (one vector past an A row, two rows past the B panel).
type Scratch struct {
	PackA int // elements: A block, row-major, lda = k_c
	PackB int // elements: B panel, row-major, ldb = LD
	CBuf  int // elements: padded C block staging buffer, ldc = LD
	LD    int // leading dimension of PackB and CBuf
}

// ScratchEnvelope sizes the staging buffers for a cache-block shape.
// It is the single source of truth shared by the executor (which cuts
// each worker's arena to exactly these lengths) and the plan auditor
// (which proves every kernel call of a loaded plan fits inside them,
// so the analyzer-licensed bounds elision stays sound for staged
// execution). Keep in sync with nothing: both sides call this.
func ScratchEnvelope(mc, nc, kc, lanes int) Scratch {
	ncQ := (nc + lanes - 1) / lanes * lanes
	ld := ncQ + MaxNROverhang(lanes)
	return Scratch{
		PackA: (mc+MaxMR)*kc + 2*lanes,
		PackB: (kc+2)*ld + 2*lanes,
		CBuf:  (mc+MaxMR)*ld + 2*lanes,
		LD:    ld,
	}
}
