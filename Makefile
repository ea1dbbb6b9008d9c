# Convenience targets for the gobd reproduction.

GO ?= go

.PHONY: all build vet obdcheck lint serve serve-smoke test test-race short bench repro artifacts fuzz fuzz-smoke kill-matrix clean

all: build test test-race

build:
	$(GO) build ./...
	$(GO) vet ./...

# Standard vet plus the obdcheck contract-enforcement suite (determinism,
# enum exhaustiveness, cross-package panic contract, context threading,
# hot-path allocations, error wrapping, facade delegation, suppression
# hygiene) over the whole module — see tools/analyzers/obdcheck. Exits
# non-zero on any unsuppressed finding or stale allow annotation.
vet: obdcheck
	$(GO) vet ./...
	$(GO) vet -vettool=$(CURDIR)/bin/obdcheck -staleallows ./...

obdcheck:
	$(GO) build -o bin/obdcheck ./tools/analyzers/obdcheck

# Static netlist analysis of the bench circuits (cmd/obdlint).
lint:
	$(GO) run ./cmd/obdlint -circuit fulladder -circuit c17 -circuit rca4 -circuit mux41

# The HTTP/JSON grading service (cmd/obdserve) on :8080.
serve:
	$(GO) run ./cmd/obdserve

# CI smoke: start obdserve, wait for /healthz, run one grade request,
# then drain it with SIGTERM. Fails on any non-2xx or if the server
# never comes up.
serve-smoke:
	./tools/serve_smoke.sh

# The root module's tests, then the benchmark module (obdbench/, its own
# go.mod) so an internal API change cannot silently break the benchmark.
test:
	$(GO) test ./...
	cd obdbench && $(GO) vet . && $(GO) test .

# The scheduler's determinism contract under the race detector.
test-race:
	$(GO) test -race ./...

# Skip the slow analog experiments (seconds instead of a minute).
short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# All 26 experiments with shape checks, paper-style text.
repro:
	$(GO) run ./cmd/obdrepro

# CSV curves, VCD trace and SPICE deck for the data figures.
artifacts:
	$(GO) run ./cmd/obdrepro -experiment sets -out artifacts

# Short fuzzing sessions on the parsers, validators and BIST generator.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/logic/
	$(GO) test -run '^$$' -fuzz '^FuzzParseBench$$' -fuzztime 30s ./internal/logic/
	$(GO) test -run '^$$' -fuzz '^FuzzCircuitValidate$$' -fuzztime 30s ./internal/logic/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePair$$' -fuzztime 30s ./internal/fault/
	$(GO) test -run '^$$' -fuzz '^FuzzLint$$' -fuzztime 30s ./internal/netcheck/
	$(GO) test -run '^$$' -fuzz '^FuzzLFSRPeriod$$' -fuzztime 30s ./internal/bist/
	$(GO) test -run '^$$' -fuzz '^FuzzStoreManifest$$' -fuzztime 30s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzSAT$$' -fuzztime 30s ./internal/sat/

# The CI smoke variant: every fuzz target for a few seconds, enough to
# catch a target that breaks on its own seed corpus or first mutations.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/logic/
	$(GO) test -run '^$$' -fuzz '^FuzzParseBench$$' -fuzztime 5s ./internal/logic/
	$(GO) test -run '^$$' -fuzz '^FuzzCircuitValidate$$' -fuzztime 5s ./internal/logic/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePair$$' -fuzztime 5s ./internal/fault/
	$(GO) test -run '^$$' -fuzz '^FuzzLint$$' -fuzztime 5s ./internal/netcheck/
	$(GO) test -run '^$$' -fuzz '^FuzzLFSRPeriod$$' -fuzztime 5s ./internal/bist/
	$(GO) test -run '^$$' -fuzz '^FuzzStoreManifest$$' -fuzztime 5s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzSAT$$' -fuzztime 5s ./internal/sat/

# The kill-injection robustness suite: crash the job runtime at every
# store/journal failpoint occurrence and require byte-identical recovery,
# under the race detector (see internal/jobs/kill_test.go, DESIGN.md §13).
kill-matrix:
	$(GO) test -race -run 'TestKillInjection|TestStore|TestJournal' ./internal/jobs/ ./internal/store/

clean:
	$(GO) clean -testcache
	rm -rf artifacts bin
