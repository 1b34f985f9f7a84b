GO ?= go

# The staticcheck release CI pins. Bump deliberately: a floating
# @latest made CI results depend on the day's release.
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: check vet vet-custom staticcheck build test bench clean

# check is the tier-1 gate CI runs: vet (standard and custom passes),
# staticcheck, build, full test suite.
check: vet vet-custom staticcheck build test

vet:
	$(GO) vet ./...

# vet-custom runs the module's own invariant passes (cmd/autogemm-vet):
# plan immutability, unsafe confinement, context-first signatures,
# goroutine confinement to the scheduler.
vet-custom:
	$(GO) run ./cmd/autogemm-vet

# staticcheck runs when the binary is available; local environments
# without it skip with a notice. CI sets STATICCHECK_REQUIRED=1 so a
# missing binary fails the gate there instead of silently skipping.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ -n "$$STATICCHECK_REQUIRED" ]; then \
		echo "staticcheck required but not installed (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
		exit 1; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

build:
	$(GO) build ./...

# The explicit -timeout turns a reintroduced scheduler hang into a fast
# failure instead of a stalled CI job.
test:
	$(GO) test -timeout 10m ./...

# bench runs the repository benchmark (the bench module: every workload
# of BENCHMARK.json, built from this checkout) and the compiled
# executor's microbenchmarks.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/sim/compile/
	bash bench/run.sh --workload all

clean:
	$(GO) clean ./...
