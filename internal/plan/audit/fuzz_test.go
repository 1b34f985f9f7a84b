package audit_test

import (
	"bytes"
	"testing"

	"autogemm/internal/core"
	"autogemm/internal/hw"
	"autogemm/internal/plan"
	"autogemm/internal/plan/audit"
)

// FuzzPlanDecode drives mutated plan JSON through the untrusted-load
// pipeline: Decode, then the static audit, then (when both accept)
// Attach. The invariant is the trust boundary itself — arbitrary bytes
// either get rejected with an error or produce a plan that round-trips
// and attaches cleanly; no input may panic, and no input may pass the
// audit while carrying out-of-bounds tiles, since Attach re-validates
// every tiling and would fail here.
func FuzzPlanDecode(f *testing.F) {
	chip, err := hw.ByName("Graviton3")
	if err != nil {
		f.Fatalf("ByName: %v", err)
	}
	rec, err := core.Produce(chip, 64, 64, 64, core.AutoOptions(chip))
	if err != nil {
		f.Fatalf("Produce: %v", err)
	}
	data, err := rec.Encode()
	if err != nil {
		f.Fatalf("Encode: %v", err)
	}
	f.Add(data)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"format":1}`))
	f.Add(bytes.Replace(data, []byte(`"row": 0`), []byte(`"row": 1000`), 1))
	f.Add(bytes.Replace(data, []byte(`"format": 2`), []byte(`"format": 3`), 1))
	f.Add(bytes.Replace(data, []byte(`"mr": `), []byte(`"mr": -`), 1))
	f.Add(bytes.Replace(data, []byte(`"kernelKeys": [`), []byte(`"kernelKeys": ["mk_bogus",`), 1))

	f.Fuzz(func(t *testing.T, in []byte) {
		p, err := plan.Decode(in)
		if err != nil {
			return // rejected at decode: the boundary held
		}
		if _, err := audit.Audit(chip, p, audit.Options{}); err != nil {
			return // rejected by the audit: the boundary held
		}
		// The audit accepted: the plan must be fully coherent. A failure
		// below means a mutation slipped through the static checks.
		if err := p.Validate(); err != nil {
			t.Fatalf("audit passed but Validate failed: %v", err)
		}
		if _, err := core.Attach(chip, p, core.Options{}); err != nil {
			t.Fatalf("audit passed but Attach failed: %v", err)
		}
		out, err := p.Encode()
		if err != nil {
			t.Fatalf("audit passed but Encode failed: %v", err)
		}
		q, err := plan.Decode(out)
		if err != nil {
			t.Fatalf("re-decode of audited plan failed: %v", err)
		}
		if q.Fingerprint != p.Fingerprint {
			t.Fatalf("round-trip changed fingerprint: %s -> %s", p.Fingerprint, q.Fingerprint)
		}
	})
}
