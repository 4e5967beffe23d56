# Developer entry points. `make check` is the tier-1 gate: vet, build,
# rlibm-lint, and the full test suite under the race detector (the parallel
# pipeline makes -race part of the contract, not an optional extra). Each
# stage announces itself and fails fast so a red gate names its stage.

GO ?= go

.PHONY: check check-fault check-store check-serve check-campaign check-bench test race bench vet build lint lint-json report loc fuzz

check:
	@echo '== vet =='
	@$(MAKE) --no-print-directory vet
	@echo '== build =='
	@$(MAKE) --no-print-directory build
	@echo '== lint =='
	@$(MAKE) --no-print-directory lint
	@echo '== check-fault =='
	@$(MAKE) --no-print-directory check-fault
	@echo '== check-store =='
	@$(MAKE) --no-print-directory check-store
	@echo '== check-serve =='
	@$(MAKE) --no-print-directory check-serve
	@echo '== check-campaign =='
	@$(MAKE) --no-print-directory check-campaign
	@echo '== check-bench =='
	@$(MAKE) --no-print-directory check-bench
	@echo '== race =='
	@$(MAKE) --no-print-directory race
	@echo '== check: all stages passed =='

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# rlibm-lint enforces the repo-specific determinism, precision and
# concurrency contracts that go vet cannot see (see internal/analysis).
lint:
	$(GO) run ./cmd/rlibm-lint ./...

# Machine-readable findings (including interprocedural witness paths) for
# CI artifact upload and external tooling. Exit status is the linter's, so
# a red tree still fails; the JSON lands in rlibm-lint.json either way.
lint-json:
	$(GO) run ./cmd/rlibm-lint -json ./... > rlibm-lint.json

# The fault-injection matrix: every site × occurrence × worker count must
# recover bit-identically or fail with a typed fault.Error, and never leave
# the artifact cache corrupt (see internal/fault and DESIGN.md §8).
check-fault:
	$(GO) test -race -run 'Fault|Plan|Sites|Panic|Corrupt|Cancel|Audit|Error' \
		./internal/fault/ ./internal/cli/ ./internal/pipeline/ ./internal/parallel/

# The store/distribution gate: every backend (disk, memory, remote
# loopback) must generate bit-identical coefficients, a two-process
# shard-claim run must assemble byte-identically to a solo run, and every
# injected remote/claim fault must recover or fail typed (DESIGN.md §12).
# STORE_WORKERS overrides the distribution scenarios' worker count and
# STORE_FAULTS=off restricts the run to the fault-free scenarios — the CI
# loopback matrix drives both; RLIBM_STORE_ARTIFACTS (a directory) makes
# each scenario dump its post-run audit verdict and store event log there.
STORE_WORKERS ?= 2
STORE_FAULTS ?= on
STORE_RUN_on  = TestBackend|TestTwoProcessShardClaim|TestShard|TestSolveShard|TestEvictingStore|TestRemote|TestWire|TestServe|TestEventLog|TestSetFaults|TestRunRejectsEmptyKey|TestRunThroughRemote
STORE_RUN_off = TestBackendBitIdentity|TestBackendMatrixColdWarm|TestTwoProcessShardClaim|TestShardHeartbeat|TestShardDeadPeer|TestShardLivePeer|TestSolveShardDeterminism|TestSolveShardDeadPeer|TestEvictingStoreBudgetAndLRUOrder|TestEvictingStoreNeverEvictsClaims|TestEventLogConcurrency|TestWireRoundTrip|TestRunThroughRemoteMatchesDisk
check-store:
	RLIBM_STORE_WORKERS=$(STORE_WORKERS) $(GO) test -race -timeout 15m \
		-run '$(STORE_RUN_$(STORE_FAULTS))' ./internal/pipeline/ ./internal/cli/ ./internal/gen/

# The serving gate, in two layers. First the in-process suite: drain
# completes admitted requests bit-identically, overload sheds typed 429s
# with no goroutine leaks, hot reload never serves a mixed generation, and
# both endpoints answer libm's exact bits (DESIGN.md §13). Then the real
# binary, race-instrumented: one /eval request must return the builtin
# tables' bits (log2 of 4 and 4.25 in F16,8 under rn), and SIGTERM must
# drain it to exit 0 with a "drained" line and a report.json that counts
# the request. Loopback only.
check-serve:
	$(GO) test -race -timeout 10m ./internal/serve/
	$(eval SERVE_DIR := $(shell mktemp -d))
	$(GO) build -race -o $(SERVE_DIR)/rlibm-serve ./cmd/rlibm-serve
	$(SERVE_DIR)/rlibm-serve -listen 127.0.0.1:8093 -store dir:$(SERVE_DIR) -report \
	    > $(SERVE_DIR)/serve.log 2>&1 & \
	  srv=$$!; \
	  curl -sf --retry 20 --retry-connrefused --retry-delay 1 127.0.0.1:8093/readyz > /dev/null; \
	  curl -sf -X POST 127.0.0.1:8093/eval \
	    -d '{"func":"log2","format":"F16,8","mode":"rn","inputs":[16512,16520]}' \
	    > $(SERVE_DIR)/eval.out; \
	  cat $(SERVE_DIR)/eval.out; \
	  grep -qF '{"outputs":[16384,16390]}' $(SERVE_DIR)/eval.out; evaled=$$?; \
	  kill -TERM $$srv; wait $$srv; exited=$$?; \
	  cat $(SERVE_DIR)/serve.log; \
	  grep -q 'drained' $(SERVE_DIR)/serve.log; drained=$$?; \
	  grep -q '"serve.requests"' $(SERVE_DIR)/report.json; reported=$$?; \
	  rm -rf $(SERVE_DIR); \
	  test $$evaled -eq 0 && test $$exited -eq 0 && test $$drained -eq 0 && test $$reported -eq 0

# The campaign gate, in two layers. First the in-process acceptance tests
# (peer-split byte-identity, killed-peer restart, warm resume, eviction
# pressure). Then the real thing: two rlibm-campaign worker processes
# against an rlibm-store peer with a deliberately tiny eviction budget —
# all race-instrumented — must report a CORRECT sweep, and rerunning the
# identical command against the still-warm store must report a resumed
# campaign — the store pins the manifest by default, so nothing has to
# ask it to. BENCH_campaign.json and campaign_report.json land in the
# gitignored $(CAMPAIGN_OUT) for CI to upload, leaving the checked-in copies
# in the repo root untouched (DESIGN.md §14).
CAMPAIGN_OUT ?= out/check-campaign
check-campaign:
	$(GO) test -race -timeout 10m ./internal/campaign/
	mkdir -p $(CAMPAIGN_OUT)
	$(eval CAMPAIGN_DIR := $(shell mktemp -d))
	$(GO) build -race -o $(CAMPAIGN_DIR)/rlibm-store ./cmd/rlibm-store
	$(GO) build -race -o $(CAMPAIGN_DIR)/rlibm-campaign ./cmd/rlibm-campaign
	$(CAMPAIGN_DIR)/rlibm-store -listen 127.0.0.1:8095 -store mem: -store-max-bytes 4096 & \
	  srv=$$!; \
	  sleep 1; \
	  $(CAMPAIGN_DIR)/rlibm-campaign -store tcp://127.0.0.1:8095 -peers 2 \
	    -funcs cospi -bits 12 -min-bits 10 -levels F10,8:F12,8 \
	    -out $(CAMPAIGN_OUT)/BENCH_campaign.json -campaign-report $(CAMPAIGN_OUT)/campaign_report.json; \
	  first=$$?; \
	  $(CAMPAIGN_DIR)/rlibm-campaign -store tcp://127.0.0.1:8095 -peers 2 \
	    -funcs cospi -bits 12 -min-bits 10 -levels F10,8:F12,8 \
	    -out '' -campaign-report '' > $(CAMPAIGN_DIR)/resume.out 2>&1; \
	  second=$$?; \
	  cat $(CAMPAIGN_DIR)/resume.out; \
	  grep -q 'campaign (resumed)' $(CAMPAIGN_DIR)/resume.out; resumed=$$?; \
	  kill -TERM $$srv; wait $$srv; drained=$$?; \
	  rm -rf $(CAMPAIGN_DIR); \
	  test $$first -eq 0 && test $$second -eq 0 && test $$resumed -eq 0 && test $$drained -eq 0

# The benchmark module's own tests under the race detector: a toy-size
# smoke run of every workload plus the harness's statistics. bench/ is a
# separate module (bench/go.mod) that ./... does not reach, and its
# gen-cold workload drives cli.GenerateVerified end to end.
check-bench:
	cd bench && $(GO) test -race ./...

test:
	$(GO) test ./...

# Every native fuzz target (the decoders of outside bytes and the kernel ≡
# reference contract) for 10 s each. go test -fuzz takes one target per
# run, so the targets are found in the test files and run one by one; the
# checked-in seeds under each package's testdata/fuzz run first.
fuzz:
	@set -e; for f in $$(grep -rl --include='*_test.go' '^func Fuzz' internal); do \
	  for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
	    echo "== $$t ($$(dirname $$f)) =="; \
	    $(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime 10s ./$$(dirname $$f); \
	  done; \
	done

# Hand-written non-test Go lines: tracked .go files minus tests, the
# generated zz_* tables and the separate bench/ module.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '\(^\|/\)zz_' | grep -v '^bench/' | xargs cat | wc -l

# The clarkson suite alone runs ~3-4 min under -race on one core; the
# whole tree's race run gets headroom over go test's 10-minute default so
# a loaded machine doesn't flake the gate.
race:
	$(GO) test -race -timeout 30m ./...

# The repository benchmark (bench/README.md): every workload, three
# untraced runs (seeds 1..3) and one traced run each, about 8 minutes. The
# result, BENCH_all.json, is the checked-in baseline later changes compare
# against. The paper-claim harnesses of bench_test.go run separately:
# go test -bench 'Table1Memory|Clarkson|MinimaxDegree' -run '^$' .
bench:
	bash bench/run.sh -repeat 3 -out BENCH_all.json

# Generate a small function with observability on and show the run report:
# the span tree renders to stderr (-v) and report.json lands next to the
# throwaway cache.
report:
	$(eval REPORT_DIR := $(shell mktemp -d))
	$(GO) run ./cmd/rlibm-gen -func cospi -levels F10,8:F12,8 \
		-store dir:$(REPORT_DIR) -report -v
	@echo '== report.json =='
	@cat $(REPORT_DIR)/report.json
	@rm -rf $(REPORT_DIR)
