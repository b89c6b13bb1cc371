GO ?= go

# Pinned staticcheck release; CI installs exactly this version and
# `make lint` uses whatever matching binary is on PATH (skipping with a
# pointer when none is — the container image may be offline).
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: ci lint fmt vet staticcheck staticcheck-version build test race \
	bench bench-alloc bench-compare leakcheck smoke-service \
	smoke-fleet smoke-objstore perfbench-check

ci: lint build test race perfbench-check smoke-service smoke-fleet smoke-objstore bench-compare

# lint is the static gate CI's lint job runs: formatting, go vet,
# staticcheck, and the public-API leak check.
lint: fmt vet staticcheck leakcheck

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

staticcheck:
	@bin=""; \
	if command -v staticcheck >/dev/null 2>&1; then \
		bin=staticcheck; \
	elif [ -x "$$($(GO) env GOPATH)/bin/staticcheck" ]; then \
		bin="$$($(GO) env GOPATH)/bin/staticcheck"; \
	fi; \
	if [ -z "$$bin" ]; then \
		echo "staticcheck: not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	else \
		if ! "$$bin" -version 2>/dev/null | grep -qF "$(STATICCHECK_VERSION)"; then \
			echo "staticcheck: WARNING: $$("$$bin" -version 2>/dev/null) on PATH, CI pins $(STATICCHECK_VERSION) — results may differ"; \
		fi; \
		"$$bin" ./...; \
	fi

# staticcheck-version prints the pin so CI installs the same release the
# Makefile names (single source of truth).
staticcheck-version:
	@echo $(STATICCHECK_VERSION)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem .

# perfbench-check vets and tests the end-to-end benchmark, its own module
# (so the root `go test ./...` never compiles it) built against this
# checkout's pkg/dcsim API.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# leakcheck fails if any exported identifier in pkg/dcsim/... references a
# type from an internal/ package — the public API must speak only
# pkg/dcsim/model, so out-of-tree modules can implement every contract.
leakcheck:
	./scripts/leakcheck.sh

# smoke-service drives the real `dcsim serve` binary end to end on a
# loopback port: submit a grid over HTTP, poll to completion, assert the
# /metrics job counter moved, and require a clean drained exit on SIGINT.
smoke-service:
	./scripts/service_smoke.sh

# smoke-fleet drives the elastic fleet end to end: `dcsim serve -fleet`
# plus three registered workers, one killed -9 mid-job with a replacement
# joining, byte-identical completion against a local sweep, a positive
# dcsim_fleet_runs_stolen_total, and clean SIGINT exits all around.
smoke-fleet:
	./scripts/fleet_smoke.sh

# smoke-objstore drives the diskless workload path end to end: a recorded
# trace directory behind `dcsim objserve` (with injected 503s), swept as
# "trace-obj" through a coordinator and two diskless workers, CSV report
# byte-identical to a local trace-dir sweep, and a warm second pass served
# entirely from the chunk cache (0 fetches).
smoke-objstore:
	./scripts/objstore_smoke.sh

# bench-alloc records the allocator scaling trajectory (exact Fig.-2
# semantics up to 2k VMs, blocked evaluation at 1k/2k/10k) plus the
# per-phase attribution rows (matrix-update / fill-scoring /
# placement-total) in BENCH_alloc.json. Set
# ALLOC_CPUPROFILE=<path> to also capture a 2k-VM CPU profile.
bench-alloc:
	./scripts/bench_alloc.sh

# bench-compare fails when the freshly recorded BENCH_alloc.json regresses
# more than BENCH_REGRESS_PCT percent (default 100) against the committed
# baseline, printing the deltas either way. Rows are gated per phase
# (scale / matrix / fill / total), so one phase cannot silently regress
# behind another's improvement. Depends on the recorder so the comparison
# always reads a fresh record, even under `make -j`. End-to-end sweep wall
# time is measured by perfbench (the sweep-obj workload).
bench-compare: bench-alloc
	./scripts/bench_compare.sh
