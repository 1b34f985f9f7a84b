package plan

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Registry is an on-disk plan store: one JSON file per plan, named by
// fingerprint, in a flat directory. autogemm-tune pre-bakes registries
// offline; an Engine pointed at the directory (PlanDir option or
// AUTOGEMM_PLAN_DIR) warm-starts Multiply from them instead of planning
// from scratch — the persisted-schedule pattern of the TVM generator
// line of work and IAAT's input-aware tuning database.
//
// The plan files are the whole registry. Writes are atomic (temp file
// + rename), so a registry can be rebuilt while serving processes read
// it. Concurrent Store calls for the same fingerprint are safe: writers
// race on an atomic rename, and every stored plan answers the same
// request.
type Registry struct {
	dir string
}

// NewRegistry returns a registry over dir. The directory is created
// lazily on first Store; Load from a missing directory simply misses.
func NewRegistry(dir string) *Registry { return &Registry{dir: dir} }

// Dir returns the registry directory.
func (r *Registry) Dir() string { return r.dir }

// path returns the file backing a fingerprint, rejecting anything that
// could escape the registry directory.
func (r *Registry) path(fp string) (string, error) {
	if fp == "" || strings.ContainsAny(fp, "/\\.") {
		return "", fmt.Errorf("plan: invalid fingerprint %q", fp)
	}
	return filepath.Join(r.dir, fp+".json"), nil
}

// Load reads the plan for a fingerprint. The decoded plan is validated
// and must actually carry the requested fingerprint — a file renamed or
// corrupted on disk is an error, not a silent wrong plan.
func (r *Registry) Load(fp string) (*Plan, error) {
	path, err := r.path(fp)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("plan: registry %s: %w", path, err)
	}
	if p.Fingerprint != fp {
		return nil, fmt.Errorf("plan: registry %s holds fingerprint %s", path, p.Fingerprint)
	}
	return p, nil
}

// Store writes a plan's file into the registry atomically, replacing
// any plan already stored under its fingerprint.
func (r *Registry) Store(p *Plan) error {
	data, err := p.Encode()
	if err != nil {
		return err
	}
	path, err := r.path(p.Fingerprint)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(r.dir, "."+p.Fingerprint+".*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	return os.Rename(tmpName, path)
}

// staleIndex is the shape-index sidecar older builds kept beside the
// plan files. It is not a plan, so List skips it.
const staleIndex = "index.json"

// List returns the fingerprints present in the registry, sorted.
func (r *Registry) List() ([]string, error) {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var fps []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") ||
			name == staleIndex {
			continue
		}
		fps = append(fps, strings.TrimSuffix(name, ".json"))
	}
	sort.Strings(fps)
	return fps, nil
}
