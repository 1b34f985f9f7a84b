package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
	"autogemm/internal/plan"
	"autogemm/internal/plan/audit"
	"autogemm/internal/sched"
	"autogemm/internal/tiling"
)

// TestProduceHeuristicAnswersSameRequest: the tier-0 plan carries the
// same fingerprint as the full plan (it answers the same request and
// lives under the same cache key), is tagged heuristic, and passes the
// same static audit gate an untrusted plan must clear.
func TestProduceHeuristicAnswersSameRequest(t *testing.T) {
	chip := hw.KP920()
	opts := AutoOptions(chip)
	for _, s := range [][3]int{{26, 36, 20}, {64, 3136, 576}, {512, 49, 1024}} {
		ph, err := ProduceHeuristic(chip, s[0], s[1], s[2], opts)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := Produce(chip, s[0], s[1], s[2], opts)
		if err != nil {
			t.Fatal(err)
		}
		if ph.Fingerprint != pf.Fingerprint {
			t.Fatalf("%v: heuristic fingerprint %s != full %s", s, ph.Fingerprint, pf.Fingerprint)
		}
		if ph.Source != plan.SourceHeuristic {
			t.Fatalf("%v: source %q, want %q", s, ph.Source, plan.SourceHeuristic)
		}
		if ph.MC != pf.MC || ph.NC != pf.NC || ph.KC != pf.KC {
			t.Fatalf("%v: heuristic blocking %dx%dx%d != full %dx%dx%d",
				s, ph.MC, ph.NC, ph.KC, pf.MC, pf.NC, pf.KC)
		}
		if _, err := audit.Audit(chip, ph, audit.Options{}); err != nil {
			t.Fatalf("%v: heuristic plan fails audit: %v", s, err)
		}
		// Untrusted attach (the path a registry-loaded plan takes).
		if _, err := Attach(chip, ph, Options{}); err != nil {
			t.Fatalf("%v: attach: %v", s, err)
		}
	}
}

// TestSubmitProduceMatchesProduce: the background producer must emit
// the plan Produce emits, bit for bit — same panels, same keys, same
// projected cost — since it hot-swaps into the same cache key.
func TestSubmitProduceMatchesProduce(t *testing.T) {
	chip := hw.KP920()
	opts := AutoOptions(chip)
	pool := sched.New(4, 0)
	defer pool.Close()
	for _, s := range [][3]int{{26, 36, 20}, {64, 300, 64}, {130, 70, 96}} {
		want, err := Produce(chip, s[0], s[1], s[2], opts)
		if err != nil {
			t.Fatal(err)
		}
		var (
			wg   sync.WaitGroup
			got  *plan.Plan
			gerr error
		)
		wg.Add(1)
		if err := SubmitProduce(pool, chip, s[0], s[1], s[2], opts, func(p *plan.Plan, err error) {
			got, gerr = p, err
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if gerr != nil {
			t.Fatal(gerr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: background plan differs from Produce\n got: %+v\nwant: %+v", s, got, want)
		}
	}
}

// TestSubmitProduceSeededKeepsFingerprint: a candidate seed passed via
// the runtime-only Strategy field narrows the search without touching
// the request fingerprint — the transfer-planning contract.
func TestSubmitProduceSeededKeepsFingerprint(t *testing.T) {
	chip := hw.KP920()
	opts := AutoOptions(chip)
	base := RequestOf(chip, 64, 300, 64, opts).Fingerprint()

	seeded := opts
	seeded.Strategy = &tiling.DMT{Candidates: mkernel.PreferredTiles(chip.Lanes)}
	pool := sched.New(2, 0)
	defer pool.Close()
	var (
		wg  sync.WaitGroup
		got *plan.Plan
	)
	wg.Add(1)
	if err := SubmitProduce(pool, chip, 64, 300, 64, seeded, func(p *plan.Plan, err error) {
		if err != nil {
			t.Error(err)
		}
		got = p
		wg.Done()
	}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got == nil || got.Fingerprint != base {
		t.Fatalf("seeded fingerprint differs from base request")
	}
}

// TestSubmitProduceBusy: a pool at depth refuses without blocking.
func TestSubmitProduceBusy(t *testing.T) {
	chip := hw.KP920()
	pool := sched.New(1, 1)
	defer pool.Close()
	release := make(chan struct{})
	fut, err := pool.Submit(1, 1, func(_ *sched.Worker, _ int) error {
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = SubmitProduce(pool, chip, 26, 36, 20, AutoOptions(chip), func(*plan.Plan, error) {})
	if !errors.Is(err, sched.ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	close(release)
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
}
