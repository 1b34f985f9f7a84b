package plan

import (
	"fmt"
	"hash/maphash"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func testPlan(chip string, m, n, k int) *Plan {
	req := Request{
		Chip: chip, M: m, N: n, K: k,
		Order: "MNK", Pack: "auto", Rotate: true, Fuse: true, Tiler: "dmt",
	}
	return &Plan{
		Format:      FormatVersion,
		Fingerprint: req.Fingerprint(),
		Request:     req,
		MC:          64, NC: 64, KC: 48,
		Order: "MNK", Pack: "none",
		Blocks: []Block{{
			M: m, N: n, LoadLatency: 4, Cost: 1000, Tiler: "dmt",
			Panels: []Panel{{M: m, N: n, MR: 8, NR: 8}},
		}},
		KernelKeys:  []string{"mk_8x8x48_l4_rot"},
		ModelCycles: 1000,
		Source:      SourceAuto,
	}
}

func TestFingerprintStableAndSensitive(t *testing.T) {
	base := Request{Chip: "KP920", M: 64, N: 64, K: 48, Order: "MNK", Pack: "auto",
		Rotate: true, Fuse: true, Tiler: "dmt"}
	if base.Fingerprint() != base.Fingerprint() {
		t.Fatal("fingerprint not deterministic")
	}
	seen := map[string]string{base.Fingerprint(): "base"}
	variants := map[string]Request{}
	r := base
	r.Chip = "Graviton2"
	variants["chip"] = r
	r = base
	r.M = 65
	variants["m"] = r
	r = base
	r.KC = 32
	variants["kc"] = r
	r = base
	r.Order = "KNM"
	variants["order"] = r
	r = base
	r.Pack = "online"
	variants["pack"] = r
	r = base
	r.Rotate = false
	variants["rotate"] = r
	r = base
	r.Cands = []string{"8x8"}
	variants["cands"] = r
	for name, v := range variants {
		fp := v.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[fp] = name
	}
	// Candidate order must not matter.
	a, b := base, base
	a.Cands = []string{"8x8", "6x12"}
	b.Cands = []string{"6x12", "8x8"}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("candidate order changed the fingerprint")
	}
}

// TestKeyMatchesFingerprint: the in-memory cache is keyed by Key and
// the registry by Fingerprint, so the two must tell requests apart
// alike. Over a variant of every field, permuted and restricted
// candidate lists, and nil against empty ones, two requests share a
// Key exactly when they share a fingerprint.
func TestKeyMatchesFingerprint(t *testing.T) {
	base := Request{Chip: "KP920", M: 64, N: 64, K: 48, Order: "MNK", Pack: "auto",
		Rotate: true, Fuse: true, Tiler: "dmt", Cands: []string{"8x8", "5x16", "6x12"}}
	mods := []struct {
		name string
		mod  func(*Request)
	}{
		{"base", func(*Request) {}},
		{"chip", func(r *Request) { r.Chip = "A64FX" }},
		{"m", func(r *Request) { r.M = 65 }},
		{"n", func(r *Request) { r.N = 65 }},
		{"k", func(r *Request) { r.K = 49 }},
		{"mc", func(r *Request) { r.MC = 32 }},
		{"nc", func(r *Request) { r.NC = 32 }},
		{"kc", func(r *Request) { r.KC = 32 }},
		{"order", func(r *Request) { r.Order = "KNM" }},
		{"pack", func(r *Request) { r.Pack = "online" }},
		{"rotate", func(r *Request) { r.Rotate = false }},
		{"fuse", func(r *Request) { r.Fuse = false }},
		{"cores", func(r *Request) { r.Cores = 4 }},
		{"over", func(r *Request) { r.Over = 50 }},
		{"kcisk", func(r *Request) { r.KCisK = true }},
		{"tiler", func(r *Request) { r.Tiler = "heuristic" }},
		{"cands-permuted", func(r *Request) { r.Cands = []string{"6x12", "8x8", "5x16"} }},
		{"cands-other", func(r *Request) { r.Cands = []string{"8x8", "5x16", "4x16"} }},
		{"cands-one", func(r *Request) { r.Cands = []string{"8x8"} }},
		{"cands-nil", func(r *Request) { r.Cands = nil }},
		{"cands-empty", func(r *Request) { r.Cands = []string{} }},
		{"cands-empty-m", func(r *Request) { r.Cands = []string{}; r.M = 65 }},
		{"cands-nil-m", func(r *Request) { r.Cands = nil; r.M = 65 }},
	}
	reqs := make([]Request, len(mods))
	for i, m := range mods {
		r := base
		r.Cands = append([]string(nil), base.Cands...)
		m.mod(&r)
		reqs[i] = r
	}
	sameKeys := 0
	for i, a := range reqs {
		for j, b := range reqs {
			keyEq := a.Key() == b.Key()
			fpEq := a.Fingerprint() == b.Fingerprint()
			if keyEq != fpEq {
				t.Errorf("%s vs %s: equal keys %v, equal fingerprints %v",
					mods[i].name, mods[j].name, keyEq, fpEq)
			}
			if keyEq && i != j {
				sameKeys++
			}
		}
	}
	// base ~ cands-permuted, cands-nil ~ cands-empty and
	// cands-empty-m ~ cands-nil-m, each counted both ways: the test
	// checks real equalities, not only differences.
	if sameKeys != 6 {
		t.Errorf("%d ordered pairs of distinct variants share a key, want 6", sameKeys)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := testPlan("KP920", 64, 64, 48)
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != p.Fingerprint || got.MC != p.MC || len(got.Blocks) != 1 {
		t.Fatalf("round trip mutated the plan: %+v", got)
	}
	if got.Blocks[0].Panels[0].MR != 8 {
		t.Fatal("panel lost in round trip")
	}
}

func TestDecodeRejectsTampering(t *testing.T) {
	p := testPlan("KP920", 64, 64, 48)

	// Wrong format version.
	bad := *p
	bad.Format = FormatVersion + 1
	if _, err := bad.Encode(); err == nil {
		t.Error("Encode accepted a wrong format version")
	}

	// Request no longer matching the fingerprint (stale registry entry):
	// corrupt the stored K in the JSON payload.
	raw, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(string(raw), `"k": 48`, `"k": 47`, 1)
	if corrupted == string(raw) {
		t.Fatal("corruption did not apply")
	}
	if _, err := Decode([]byte(corrupted)); err == nil {
		t.Error("Decode accepted a plan whose request was tampered with")
	}
}

func TestCheckRequest(t *testing.T) {
	p := testPlan("KP920", 64, 64, 48)
	if err := p.CheckRequest(p.Request); err != nil {
		t.Fatalf("matching request rejected: %v", err)
	}
	other := p.Request
	other.Chip = "Graviton2"
	if err := p.CheckRequest(other); err == nil {
		t.Error("wrong-chip request accepted")
	}
	other = p.Request
	other.KC = 32
	if err := p.CheckRequest(other); err == nil {
		t.Error("different-options request accepted")
	}
}

func TestRegistryStoreLoadList(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "plans")
	reg := NewRegistry(dir)

	if _, err := reg.Load(testPlan("KP920", 64, 64, 48).Fingerprint); err == nil {
		t.Fatal("Load from empty registry succeeded")
	}
	var fps []string
	for _, shape := range [][3]int{{64, 64, 48}, {8, 1000, 32}} {
		p := testPlan("KP920", shape[0], shape[1], shape[2])
		if err := reg.Store(p); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, p.Fingerprint)
	}
	got, err := reg.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("List returned %d entries, want 2", len(got))
	}
	for _, fp := range fps {
		p, err := reg.Load(fp)
		if err != nil {
			t.Fatal(err)
		}
		if p.Fingerprint != fp {
			t.Fatalf("loaded wrong plan %s for %s", p.Fingerprint, fp)
		}
	}
	// Idempotent re-store.
	if err := reg.Store(testPlan("KP920", 64, 64, 48)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("../escape"); err == nil {
		t.Error("path traversal fingerprint accepted")
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache[string, int](maphash.String)
	const (
		keys       = 8
		goroutines = 64
	)
	var builds atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key-%d", (g+i)%keys)
				v, err := c.Get(key, func() (int, error) {
					builds.Add(1)
					return len(key), nil
				})
				if err != nil || v != len(key) {
					t.Errorf("Get(%s) = %d, %v", key, v, err)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if got := builds.Load(); got != keys {
		t.Fatalf("build ran %d times for %d keys", got, keys)
	}
	st := c.Stats()
	if st.Built != keys {
		t.Fatalf("Stats.Built = %d, want %d", st.Built, keys)
	}
	if st.Hits+st.Misses != goroutines*50 {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, goroutines*50)
	}
	if c.Len() != keys {
		t.Fatalf("Len = %d, want %d", c.Len(), keys)
	}
	if _, ok := c.Lookup("key-0"); !ok {
		t.Fatal("Lookup missed a built key")
	}
	if _, ok := c.Lookup("absent"); ok {
		t.Fatal("Lookup fabricated a value")
	}
}

// TestCacheForgetsErrors: a failed build propagates its error but is
// not retained — the key stays buildable, so one rejected plan (e.g.
// tampered LoadPlan bytes) cannot poison its fingerprint against a
// later good build of the same key.
func TestCacheForgetsErrors(t *testing.T) {
	c := NewCache[string, int](maphash.String)
	calls := 0
	build := func() (int, error) { calls++; return 0, fmt.Errorf("boom") }
	if _, err := c.Get("key", build); err == nil {
		t.Fatal("error swallowed")
	}
	if c.Len() != 0 {
		t.Fatalf("failed build retained: Len = %d", c.Len())
	}
	v, err := c.Get("key", func() (int, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("rebuild after failure: %d, %v", v, err)
	}
	if calls != 1 {
		t.Fatalf("failing build ran %d times, want 1", calls)
	}
	if v, err := c.Get("key", build); err != nil || v != 42 {
		t.Fatalf("good value not memoized: %d, %v", v, err)
	}
}
