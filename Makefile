GO ?= go

.PHONY: ci vet build test race faultsmoke servesmoke crashsmoke arenasmoke clustersmoke fuzz bench benchsmoke benchmod

## ci: the full verification gate — vet and the gofmt gate, build, unit
## tests, race detector, the fault-injection matrix, the admission-server
## smoke, the durability crash-recovery smoke, the policy arena smoke, the cluster suite with
## its full-stack oracle test (TestClusterOracle), short fuzz smokes of
## the partition invariants and the online replay, a one-iteration benchmark smoke (catches
## benchmarks whose setup asserts fail), and the benchmark module's own
## vet and tests.
ci: vet build test race faultsmoke servesmoke crashsmoke arenasmoke clustersmoke fuzz benchsmoke benchmod

## vet: go vet, plus a gofmt gate that fails on any unformatted file.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 300s ./...

race:
	$(GO) test -race -timeout 600s ./...

## faultsmoke: the robustness matrix under the race detector —
## deterministic fault injection (cancel-mid-search, panic-in-pool,
## interrupt-then-resume), degradation paths and checkpoint round-trips.
faultsmoke:
	$(GO) test -race -timeout 120s -count=1 \
		-run 'Cancel|Panic|Degrade|Checkpoint|FaultInjection|Budget|Leak|RunTrials|ForEachTrial|RunAllCtx|RunCtx|AnalyzeCtx' \
		./internal/exact ./internal/sim ./internal/experiments ./internal/faultinject ./internal/pipeline .

## servesmoke: the admission-control server end to end under the race
## detector — ephemeral port, concurrent clients byte-compared against
## direct library calls, mid-flight client hang-up, request metrics,
## graceful drain and goroutine-leak checks, plus the session/handler
## suites and the command's own SIGINT drain test.
servesmoke:
	$(GO) test -race -timeout 120s -count=1 ./internal/service ./cmd/serve

## crashsmoke: the durability matrix under the race detector, -short
## subset — WAL torn-write corpus, injected crash points in append /
## fsync / rotate / snapshot / replay, byte-identical recovery, degraded
## read-only mode and the clean-drain zero-replay check.
crashsmoke:
	$(GO) test -race -short -timeout 120s -count=1 \
		-run 'WAL|Torn|Snapshot|Injected|Durab|Crash|Degraded|Drain|Replay|Recovery' \
		./internal/oplog ./internal/service

## arenasmoke: race every canonical placement policy on the churn preset
## (tenant + machine churn) under the race detector — the worker-count
## determinism and lane-differential-replay tests run here — then drive
## the CLI once end to end.
arenasmoke:
	$(GO) test -race -timeout 120s -count=1 ./internal/arena ./cmd/arena
	$(GO) run ./cmd/arena -preset churn -workers 8

## clustersmoke: the sharded-cluster suite under the race detector — the
## consistent-hash ring properties (golden mapping, uniformity,
## bounded relocation), the epoch-fenced migration determinism and
## crash matrix, the coordinator's routing tests, and TestClusterOracle:
## seeded op scripts through a coordinator over 3 durable replicas, with
## forced migrations, a rebalance and replica crash-restarts between
## ops, every response byte-compared against a reference server that is
## never crashed or migrated, then a replica crash under concurrent load
## after which every session must still answer.
clustersmoke:
	$(GO) test -race -timeout 180s -count=1 \
		-run 'Ring|Cluster|Migrat' \
		./internal/cluster ./internal/service

## fuzz: short smokes of the partition-engine invariant fuzzer, the
## online engine's replay (fuzzed op sequences against SelfCheck and a
## fresh sorted solve), the exact EDF test's QPA against its checkpoint
## scan, the rational arithmetic differential fuzzer (covers the Add/Cmp
## fast paths) and the service's wire encoder against encoding/json.
fuzz:
	$(GO) test ./internal/partition -run Fuzz -fuzz=FuzzPartitionInvariants -fuzztime=10s
	$(GO) test ./internal/online -run FuzzEngineOps -fuzz=FuzzEngineOps -fuzztime=10s
	$(GO) test ./internal/dbf -run FuzzFeasibleEDF -fuzz=FuzzFeasibleEDF -fuzztime=10s
	$(GO) test ./internal/rational -run Fuzz -fuzz=FuzzArithmetic -fuzztime=5s
	$(GO) test ./internal/service -run Fuzz -fuzz=FuzzWireEncoding -fuzztime=5s

# Packages whose benchmarks make bench records and make benchsmoke runs.
BENCH_PKGS = ./internal/online ./internal/dbf ./internal/oplog ./internal/service ./internal/arena ./internal/cluster

## bench: record the engine, exact EDF test, WAL, service (handler
## ladder row L3), arena and cluster benchmark suites to the next results/BENCH_<n+1>.json,
## gated against the newest recorded results/BENCH_<n>.json — the gate
## fails if any recorded benchmark slows by more than 25%; new benchmarks
## pass through as additions.
bench:
	@last=$$(ls results/BENCH_*.json | sed 's/[^0-9]//g' | sort -n | tail -1); \
	$(GO) run ./cmd/benchjson -pkg "$(BENCH_PKGS)" \
		-benchtime 0.3s -baseline results/BENCH_$$last.json -max-regress 0.25 \
		-o results/BENCH_$$((last + 1)).json

## benchsmoke: run every benchmark of the root package and of make
## bench's packages exactly once — cheap assurance that benchmark setup
## assertions (acceptance, miss-free instances, warm-up round trips) hold.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x . $(BENCH_PKGS)

## benchmod: vet and test the benchmark module (bench/, its own go.mod).
## Root builds never compile it, so this is what catches a public-API
## change that would break the repository benchmark.
benchmod:
	cd bench && $(GO) vet ./... && $(GO) test ./...
