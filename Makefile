GO ?= go

# The staticcheck release CI pins. Bump deliberately: a floating
# @latest made CI results depend on the day's release.
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: check vet vet-custom staticcheck build test lint audit bench clean

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

# lint sweeps every generatable kernel variant through the dataflow
# analyzer (internal/asm/analysis) and fails on any finding, then checks
# the analyzer still catches each injected defect class.
lint:
	$(GO) run ./cmd/autogemm-lint
	@for k in clobber use-before-def pressure rotation; do \
		if $(GO) run ./cmd/autogemm-lint -inject $$k >/dev/null; then \
			echo "analyzer missed injected $$k"; exit 1; \
		else echo "injected $$k: detected"; fi; \
	done

# audit deep-audits plans (internal/plan/audit) baked for every modeled
# chip — coverage, bounds composition, structure, and generation of
# every named kernel — then checks the auditor still rejects each
# injected plan corruption. Point it at a registry with
# `autogemm-lint -audit -plans <dir>` to vet baked plans instead.
audit:
	$(GO) run ./cmd/autogemm-lint -audit
	@for k in oob overlap gap fingerprint format kernelkey; do \
		if $(GO) run ./cmd/autogemm-lint -audit-inject $$k >/dev/null; then \
			echo "auditor missed injected $$k"; exit 1; \
		else echo "injected $$k: detected"; fi; \
	done

# bench runs the repository benchmark (the bench module: every workload
# of BENCHMARK.json, built from this checkout) and the compiled
# executor's microbenchmarks.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/sim/compile/
	bash bench/run.sh --workload all

clean:
	$(GO) clean ./...
