// autogemm-serve is the multi-tenant HTTP front door over an autogemm
// engine: internal/serve's handler mounted on a net/http server, with
// tenant → scheduling-class mapping, per-request deadlines, a runtime
// class-retune endpoint and Prometheus metrics.
//
//	autogemm-serve -addr :8097 -chip KP920 -workers 8 \
//	    -tenant interactive=latency:16:0:250 \
//	    -tenant analytics=batch:1:64 \
//	    -token s3cr3t=interactive
//
// Each -tenant is name=class:weight:depth[:deadlineMs]; weight <= 0
// keeps the class default, depth 0 means unbounded, deadlineMs is the
// tenant's default completion deadline. Requests carry the tenant in
// the X-Autogemm-Tenant header (or a -token bearer token). Admission
// sheds answer 429 + Retry-After, deadline misses 504, rejected plans
// 422 — the autogemm.HTTPStatus mapping.
//
// Shutdown: SIGINT/SIGTERM stops the listener, in-flight requests get
// -drain to finish, then the engine drains with the same bound; an
// expired drain is reported (autogemm.ErrDrainTimeout), not hung on.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"autogemm"
	"autogemm/internal/serve"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}

// parseTenant decodes one -tenant value: name=class:weight:depth[:deadlineMs].
func parseTenant(s string) (string, serve.TenantConfig, error) {
	name, spec, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return "", serve.TenantConfig{}, fmt.Errorf("want name=class:weight:depth[:deadlineMs], got %q", s)
	}
	parts := strings.Split(spec, ":")
	if len(parts) < 3 || len(parts) > 4 || parts[0] == "" {
		return "", serve.TenantConfig{}, fmt.Errorf("want name=class:weight:depth[:deadlineMs], got %q", s)
	}
	tc := serve.TenantConfig{Class: parts[0]}
	var err error
	if tc.Weight, err = strconv.Atoi(parts[1]); err != nil {
		return "", serve.TenantConfig{}, fmt.Errorf("bad weight in %q: %v", s, err)
	}
	if tc.Depth, err = strconv.Atoi(parts[2]); err != nil {
		return "", serve.TenantConfig{}, fmt.Errorf("bad depth in %q: %v", s, err)
	}
	if len(parts) == 4 {
		if tc.DeadlineMs, err = strconv.Atoi(parts[3]); err != nil {
			return "", serve.TenantConfig{}, fmt.Errorf("bad deadlineMs in %q: %v", s, err)
		}
	}
	return name, tc, nil
}

func main() {
	addr := flag.String("addr", ":8097", "listen address")
	chip := flag.String("chip", "KP920", "chip configuration (see autogemm.Chips)")
	workers := flag.Int("workers", 0, "scheduler worker count (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "engine-wide jobs-in-flight bound (0 = default)")
	planDir := flag.String("plan-dir", "", "on-disk plan registry for warm starts")
	planMode := flag.String("plan-mode", "", "cold-miss policy: full or tiered (default full)")
	maxDim := flag.Int("max-dim", 8192, "largest accepted problem extent")
	maxBatch := flag.Int("max-batch", 256, "largest accepted batch")
	requireTenant := flag.Bool("require-tenant", false, "refuse requests without a known tenant (401)")
	drain := flag.Duration("drain", 10*time.Second, "shutdown drain bound for the listener and the engine")
	var tenantSpecs, tokenSpecs multiFlag
	flag.Var(&tenantSpecs, "tenant", "tenant mapping name=class:weight:depth[:deadlineMs] (repeatable)")
	flag.Var(&tokenSpecs, "token", "bearer token mapping token=tenant (repeatable)")
	flag.Parse()

	tenants := map[string]serve.TenantConfig{}
	for _, s := range tenantSpecs {
		name, tc, err := parseTenant(s)
		if err != nil {
			log.Fatalf("autogemm-serve: -tenant: %v", err)
		}
		tenants[name] = tc
	}
	tokens := map[string]string{}
	for _, s := range tokenSpecs {
		tok, tenant, ok := strings.Cut(s, "=")
		if !ok || tok == "" || tenant == "" {
			log.Fatalf("autogemm-serve: -token: want token=tenant, got %q", s)
		}
		tokens[tok] = tenant
	}

	opts := []autogemm.EngineOption{}
	if *workers > 0 {
		opts = append(opts, autogemm.WithWorkers(*workers))
	}
	if *queueDepth > 0 {
		opts = append(opts, autogemm.WithQueueDepth(*queueDepth))
	}
	if *planDir != "" {
		opts = append(opts, autogemm.WithPlanDir(*planDir))
	}
	opts = append(opts, autogemm.WithPlanMode(autogemm.PlanMode(*planMode)))
	eng, err := autogemm.New(*chip, opts...)
	if err != nil {
		log.Fatalf("autogemm-serve: %v", err) // an unknown -plan-mode too
	}

	srv, err := serve.New(serve.Config{
		Engine:        eng,
		Tenants:       tenants,
		Tokens:        tokens,
		RequireTenant: *requireTenant,
		MaxDim:        *maxDim,
		MaxBatch:      *maxBatch,
	})
	if err != nil {
		log.Fatalf("autogemm-serve: %v", err)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Shutdown path without spawning goroutines of our own: the signal
	// context flips on SIGINT/SIGTERM and context.AfterFunc (stdlib-owned
	// goroutine) stops the listener with a bounded grace period.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	stopShutdown := context.AfterFunc(ctx, func() {
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		hs.Shutdown(sctx)
	})
	defer stopShutdown()

	log.Printf("autogemm-serve: listening on %s (chip %s, %d tenants)", *addr, *chip, len(tenants))
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("autogemm-serve: %v", err)
	}

	// Listener stopped: drain the engine with the same bound. A drain
	// timeout is reported, not hung on — some jobs were abandoned.
	if err := eng.CloseWithTimeout(*drain); err != nil {
		if errors.Is(err, autogemm.ErrDrainTimeout) {
			log.Printf("autogemm-serve: drain timeout: %v", err)
			return
		}
		log.Printf("autogemm-serve: close: %v", err)
		return
	}
	log.Printf("autogemm-serve: drained cleanly")
}
