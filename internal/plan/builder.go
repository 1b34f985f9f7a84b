package plan

import (
	"fmt"
	"sort"
)

// Builder accumulates a plan under construction. It exists so that the
// immutability contract of Plan can be stated — and machine-checked by
// cmd/autogemm-vet's planmut pass — as "no package outside plan ever
// assigns to a Plan field": producers append blocks and kernel keys
// through the builder and receive a finished, validated, fingerprinted
// Plan that is never written again.
type Builder struct {
	p Plan
}

// NewBuilder starts a plan for a request with its resolved blocking
// and packing mode. Format, fingerprint and source are filled in by the
// builder itself.
func NewBuilder(req Request, mc, nc, kc int, pack string) *Builder {
	return &Builder{p: Plan{
		Format:      FormatVersion,
		Fingerprint: req.Fingerprint(),
		Request:     req,
		MC:          mc, NC: nc, KC: kc,
		Pack:   pack,
		Source: SourceAuto,
	}}
}

// AddBlock appends the resolved tiling of one distinct block shape.
func (b *Builder) AddBlock(blk Block) { b.p.Blocks = append(b.p.Blocks, blk) }

// SetSource labels the plan under construction with its producer
// ("auto", "tuner" or "heuristic"). Source is not part of the
// fingerprint: a heuristic tier-0 plan answers the same request — and
// lives under the same cache key — as the full plan that later
// replaces it.
func (b *Builder) SetSource(source string) { b.p.Source = source }

// Block returns the tiling already added for a block shape, or nil —
// the producer's cost composition reads back what it appended.
func (b *Builder) Block(m, n int) *Block { return b.p.Block(m, n) }

// AddKernelKey records one micro/band kernel cache key the plan will
// execute. Duplicates are deduplicated at Finish.
func (b *Builder) AddKernelKey(key string) {
	b.p.KernelKeys = append(b.p.KernelKeys, key)
}

// AddModelCycles accumulates projected cost onto the plan.
func (b *Builder) AddModelCycles(c float64) { b.p.ModelCycles += c }

// Finish validates the accumulated plan and returns it. The kernel keys
// are sorted and deduplicated; the returned plan is immutable from the
// producer's point of view.
func (b *Builder) Finish() (*Plan, error) {
	if len(b.p.KernelKeys) > 0 {
		sort.Strings(b.p.KernelKeys)
		out := b.p.KernelKeys[:1]
		for _, k := range b.p.KernelKeys[1:] {
			if k != out[len(out)-1] {
				out = append(out, k)
			}
		}
		b.p.KernelKeys = out
	}
	p := b.p
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("plan: builder produced invalid plan: %w", err)
	}
	return &p, nil
}

// WithSource returns a copy of the plan relabeled with a new source
// ("auto" or "tuner"). Source is not part of the fingerprint, so the
// copy answers the same requests; the original is left untouched,
// preserving the immutability contract for published plans.
func (p *Plan) WithSource(source string) *Plan {
	q := *p
	q.Source = source
	return &q
}
