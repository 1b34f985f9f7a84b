// Package plan defines the first-class execution plan: an immutable,
// versioned, JSON-serializable record of every decision needed to run
// one GEMM on one chip — cache blocking, packing mode, the DMT panel
// splits of each distinct cache block, and the micro-kernel cache keys
// the executor will request — together with the model's projected cost
// and a fingerprint over the planning inputs.
//
// The package is the bottom of the planning stack: it imports nothing
// from the rest of the engine, so producers (internal/core's planner,
// internal/tuner) and consumers (internal/core's executor, the public
// Engine cache, the on-disk Registry) all meet here without cycles.
//
// A plan is produced once — by core.Produce for the model defaults or
// by tuner.TunePlan for a searched configuration — then cached in
// memory (Cache), optionally persisted (Registry), and replayed by
// attaching an executor. The paper's motivation applies directly:
// planning (tile selection by arithmetic intensity, Algorithm 1 panel
// splits, the Eqn-13-pruned search) is expensive and shape-specific,
// so a serving system should plan once and execute many times.
package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/maphash"
	"sort"
	"strings"
)

// FormatVersion is the serialized plan format. Bump it whenever the
// meaning of any persisted field changes; fingerprints incorporate it,
// so stale registry entries from older formats never match a live
// request and are re-planned instead of misinterpreted.
const FormatVersion = 2

// Plan sources.
const (
	SourceAuto      = "auto"      // model-default planning (core.Produce)
	SourceTuner     = "tuner"     // winner of a tuner search
	SourceHeuristic = "heuristic" // instant tier-0 recipe (core.ProduceHeuristic)
)

// Request captures the planning inputs exactly as the caller supplied
// them — zero block extents mean "choose automatically", Pack may be
// "auto" — so that two identical requests always fingerprint alike
// regardless of what they resolve to. It holds only what shapes the
// plan: the core count and the per-call overhead an estimate charges
// are arguments of the estimate, not of the request.
type Request struct {
	Chip   string   `json:"chip"`
	M      int      `json:"m"`
	N      int      `json:"n"`
	K      int      `json:"k"`
	MC     int      `json:"mc"`
	NC     int      `json:"nc"`
	KC     int      `json:"kc"`
	Pack   string   `json:"pack"`
	Rotate bool     `json:"rotate"`
	Fuse   bool     `json:"fuse"`
	KCisK  bool     `json:"forceKCisK,omitempty"`
	Tiler  string   `json:"tiler"`
	Cands  []string `json:"candidates,omitempty"` // restricted DMT tile set, "MRxNR"
}

// Fingerprint hashes the request and the plan format version into a
// stable hex key. Everything that can change the produced plan is in
// the hash; nothing else is. It names a plan on disk and in reports;
// the in-memory cache is keyed by Key instead. The two literal zeros
// stand where format 2 once hashed a core count and a call overhead;
// every plan an engine wrote had both at 0, so keeping them keeps each
// fingerprint already on disk.
func (r Request) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "autogemm-plan-v%d|%s|%d|%d|%d|%d|%d|%d|%s|%v|%v|0|0|%v|%s",
		FormatVersion, r.Chip, r.M, r.N, r.K, r.MC, r.NC, r.KC,
		r.Pack, r.Rotate, r.Fuse, r.KCisK, r.Tiler)
	b.WriteString(r.canonicalCands())
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}

// canonicalCands is the candidate list in the form the fingerprint
// hashes: empty when there are none, else "|" and the sorted entries
// joined by commas.
func (r Request) canonicalCands() string {
	if len(r.Cands) == 0 {
		return ""
	}
	cands := append([]string(nil), r.Cands...)
	sort.Strings(cands)
	return "|" + strings.Join(cands, ",")
}

// Key is a request as a comparable value: two requests have equal
// keys exactly when they have equal fingerprints. Building one hashes
// nothing, so the engine's plan cache is keyed by it and a warm lookup
// costs a map probe instead of a SHA-256.
type Key struct {
	Chip         string
	M, N, K      int
	MC, NC, KC   int
	Pack         string
	Rotate, Fuse bool
	KCisK        bool
	Tiler        string
	Cands        string // canonicalCands
}

// Key returns the request's comparable cache key. It allocates only
// when the request restricts the candidate tiles.
func (r Request) Key() Key {
	return Key{
		Chip: r.Chip, M: r.M, N: r.N, K: r.K, MC: r.MC, NC: r.NC, KC: r.KC,
		Pack: r.Pack, Rotate: r.Rotate, Fuse: r.Fuse, KCisK: r.KCisK, Tiler: r.Tiler,
		Cands: r.canonicalCands(),
	}
}

// HashKey spreads Keys across a Cache's shards. Its signature is the
// one NewCache takes, the same as maphash.String's. It leaves out the
// boolean flags: equal keys still hash alike, which is all a shard
// choice needs.
func HashKey(seed maphash.Seed, k Key) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	var b [8]byte
	for _, v := range [...]int{k.M, k.N, k.K, k.MC, k.NC, k.KC} {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, s := range [...]string{k.Chip, k.Pack, k.Tiler, k.Cands} {
		h.WriteString(s)
		h.WriteByte(0)
	}
	return h.Sum64()
}

// Panel is one uniformly-tiled rectangle of a block's DMT cover
// (Algorithm 1 emits up to four per block).
type Panel struct {
	Row    int  `json:"row"`
	Col    int  `json:"col"`
	M      int  `json:"m"`
	N      int  `json:"n"`
	MR     int  `json:"mr"`
	NR     int  `json:"nr"`
	Padded bool `json:"padded,omitempty"`
}

// Block is the resolved micro-tiling of one distinct cache-block shape.
type Block struct {
	M           int     `json:"m"`
	N           int     `json:"n"`
	LoadLatency int     `json:"loadLatency"` // residency latency the tiler assumed
	Cost        float64 `json:"cost"`        // Eqn-13 projected cycles per visit
	Tiler       string  `json:"tiler"`       // strategy that produced the panels
	Panels      []Panel `json:"panels"`
}

// Plan is a complete, immutable execution recipe. Producers build it,
// serialize it, and never mutate it after publication; executors treat
// it as read-only.
type Plan struct {
	Format      int      `json:"format"`
	Fingerprint string   `json:"fingerprint"`
	Request     Request  `json:"request"`
	MC          int      `json:"mcResolved"`
	NC          int      `json:"ncResolved"`
	KC          int      `json:"kcResolved"`
	Pack        string   `json:"packResolved"`
	Blocks      []Block  `json:"blocks"`
	KernelKeys  []string `json:"kernelKeys"` // micro/band kernel cache keys the plan executes
	ModelCycles float64  `json:"modelCycles"`
	Source      string   `json:"source"`
}

// Block returns the tiling for a block shape, or nil when the plan does
// not cover it — a structural mismatch the executor must reject.
func (p *Plan) Block(m, n int) *Block {
	for i := range p.Blocks {
		if p.Blocks[i].M == m && p.Blocks[i].N == n {
			return &p.Blocks[i]
		}
	}
	return nil
}

// Validate checks the plan's internal integrity: format version,
// fingerprint consistency with the stored request, and structural
// sanity of the resolved parameters. It does not (and cannot) verify
// the panels against a live tiler — the executor re-validates coverage
// when it attaches.
func (p *Plan) Validate() error {
	if p == nil {
		return fmt.Errorf("plan: nil plan")
	}
	if p.Format != FormatVersion {
		return fmt.Errorf("plan: format %d, want %d", p.Format, FormatVersion)
	}
	if fp := p.Request.Fingerprint(); fp != p.Fingerprint {
		return fmt.Errorf("plan: fingerprint %s does not match request (%s)", p.Fingerprint, fp)
	}
	if p.Request.M <= 0 || p.Request.N <= 0 || p.Request.K <= 0 {
		return fmt.Errorf("plan: invalid problem %dx%dx%d", p.Request.M, p.Request.N, p.Request.K)
	}
	if p.MC <= 0 || p.NC <= 0 || p.KC <= 0 {
		return fmt.Errorf("plan: unresolved blocking %dx%dx%d", p.MC, p.NC, p.KC)
	}
	if len(p.Blocks) == 0 {
		return fmt.Errorf("plan: no block tilings")
	}
	for _, b := range p.Blocks {
		if b.M <= 0 || b.N <= 0 || len(b.Panels) == 0 {
			return fmt.Errorf("plan: malformed block %dx%d", b.M, b.N)
		}
	}
	return nil
}

// CheckRequest verifies that the plan answers exactly the given request
// — same fingerprint, same chip — the gate a registry-loaded or
// deserialized plan must pass before an executor attaches to it. A
// stale entry (older format, different chip, different options) fails
// here and the caller falls back to fresh planning.
func (p *Plan) CheckRequest(r Request) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Request.Chip != r.Chip {
		return fmt.Errorf("plan: planned for chip %s, requested %s", p.Request.Chip, r.Chip)
	}
	if fp := r.Fingerprint(); fp != p.Fingerprint {
		return fmt.Errorf("plan: fingerprint mismatch: plan %s, request %s", p.Fingerprint, fp)
	}
	return nil
}
