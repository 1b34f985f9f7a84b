package plan

import (
	"hash/maphash"
	"os"
	"path/filepath"
	"testing"
)

// TestIndexMaintainedByStore checks that Store keeps the sidecar in
// sync and that the index file never shows up in List.
func TestIndexMaintainedByStore(t *testing.T) {
	reg := NewRegistry(t.TempDir())
	shapes := [][3]int{{64, 64, 48}, {64, 3136, 576}, {512, 49, 1024}}
	for _, s := range shapes {
		if err := reg.Store(testPlan("KP920", s[0], s[1], s[2])); err != nil {
			t.Fatal(err)
		}
	}
	m, err := reg.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != len(shapes) {
		t.Fatalf("index has %d entries, want %d", len(m), len(shapes))
	}
	for fp, e := range m {
		if e.Fingerprint != fp {
			t.Errorf("entry %s carries fingerprint %s", fp, e.Fingerprint)
		}
		if e.Request.Chip != "KP920" || e.Source != SourceAuto {
			t.Errorf("entry %s: request/source not recorded: %+v", fp, e)
		}
	}
	fps, err := reg.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != len(shapes) {
		t.Fatalf("List returned %d fingerprints, want %d (index.json must be excluded)",
			len(fps), len(shapes))
	}
	for _, fp := range fps {
		if fp == "index" {
			t.Fatal("List leaked the index sidecar as a fingerprint")
		}
	}
}

// TestIndexRebuildsFromPlanFiles covers the migration path: a registry
// written before the index existed (or whose sidecar was corrupted)
// yields a full index on first read.
func TestIndexRebuildsFromPlanFiles(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(dir)
	for _, s := range [][3]int{{64, 64, 48}, {26, 36, 20}} {
		if err := reg.Store(testPlan("KP920", s[0], s[1], s[2])); err != nil {
			t.Fatal(err)
		}
	}
	for _, corrupt := range []func() error{
		func() error { return os.Remove(filepath.Join(dir, indexName)) },
		func() error { return os.WriteFile(filepath.Join(dir, indexName), []byte("junk"), 0o644) },
		func() error {
			return os.WriteFile(filepath.Join(dir, indexName),
				[]byte(`{"format":999,"entries":[]}`), 0o644)
		},
	} {
		if err := corrupt(); err != nil {
			t.Fatal(err)
		}
		m, err := NewRegistry(dir).Index()
		if err != nil {
			t.Fatal(err)
		}
		if len(m) != 2 {
			t.Fatalf("rebuilt index has %d entries, want 2", len(m))
		}
	}
}

// TestNearestPicksClosestCompatibleShape checks neighbor selection:
// same chip and planning configuration only, log-space shape distance,
// own fingerprint excluded.
func TestNearestPicksClosestCompatibleShape(t *testing.T) {
	reg := NewRegistry(t.TempDir())
	near := testPlan("KP920", 64, 3136, 576)      // the expected donor
	far := testPlan("KP920", 2048, 49, 512)       // far in log space
	other := testPlan("Graviton2", 64, 3000, 576) // closest shape, wrong chip
	for _, p := range []*Plan{near, far, other} {
		if err := reg.Store(p); err != nil {
			t.Fatal(err)
		}
	}

	req := testPlan("KP920", 64, 3136, 256).Request
	e, ok := reg.Nearest(req)
	if !ok {
		t.Fatal("Nearest found no donor")
	}
	if e.Fingerprint != near.Fingerprint {
		t.Fatalf("Nearest picked %dx%dx%d on %s, want %dx%dx%d",
			e.Request.M, e.Request.N, e.Request.K, e.Request.Chip, 64, 3136, 576)
	}

	// The stored shape itself must not be its own donor.
	if e, ok := reg.Nearest(near.Request); ok && e.Fingerprint == near.Fingerprint {
		t.Fatal("Nearest returned the request's own fingerprint")
	}

	// No compatible neighbor at all: different chip.
	if _, ok := reg.Nearest(testPlan("A64FX", 64, 64, 64).Request); ok {
		t.Fatal("Nearest matched across chips")
	}
}

// TestNeighborTiles checks the warm-start seed extraction: the donor's
// distinct panel tiles, deduplicated and sorted.
func TestNeighborTiles(t *testing.T) {
	reg := NewRegistry(t.TempDir())
	donor := testPlan("KP920", 64, 3136, 576)
	donor.Blocks[0].Panels = []Panel{
		{M: 32, N: 3136, MR: 8, NR: 8},
		{M: 32, N: 3136, MR: 5, NR: 16},
		{M: 32, N: 3136, MR: 8, NR: 8}, // duplicate
	}
	if err := reg.Store(donor); err != nil {
		t.Fatal(err)
	}
	tiles, from, ok := reg.NeighborTiles(testPlan("KP920", 64, 3136, 256).Request)
	if !ok {
		t.Fatal("NeighborTiles found no donor")
	}
	if from != donor.Fingerprint {
		t.Fatalf("donor %s, want %s", from, donor.Fingerprint)
	}
	want := [][2]int{{5, 16}, {8, 8}}
	if len(tiles) != len(want) {
		t.Fatalf("tiles = %v, want %v", tiles, want)
	}
	for i := range want {
		if tiles[i] != want[i] {
			t.Fatalf("tiles = %v, want %v", tiles, want)
		}
	}
}

// TestCacheReplace checks the hot-swap: after Replace, Lookup and Get
// observe the new value without a rebuild, and waiters joined to the
// old entry still receive the value they were promised.
func TestCacheReplace(t *testing.T) {
	c := NewCache[string, string](maphash.String)
	got, err := c.Get("fp", func() (string, error) { return "heuristic", nil })
	if err != nil || got != "heuristic" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	c.Replace("fp", "full")
	if v, ok := c.Lookup("fp"); !ok || v != "full" {
		t.Fatalf("Lookup after Replace = %q, %v", v, ok)
	}
	builds := 0
	got, err = c.Get("fp", func() (string, error) { builds++; return "rebuilt", nil })
	if err != nil || got != "full" || builds != 0 {
		t.Fatalf("Get after Replace = %q (builds=%d), want \"full\" with no rebuild", got, builds)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	// Replace on a missing key publishes it outright.
	c.Replace("other", "published")
	if v, ok := c.Lookup("other"); !ok || v != "published" {
		t.Fatalf("Lookup(published) = %q, %v", v, ok)
	}
}
