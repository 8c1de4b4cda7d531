GO ?= go

.PHONY: ci vet build test race faultsmoke servesmoke loadsmoke crashsmoke arenasmoke clustersmoke fuzz bench benchsmoke benchmod

## ci: the full verification gate — vet, build, unit tests, race detector,
## the fault-injection matrix, the admission-server smoke, an open-loop
## load-generator smoke, the durability crash-recovery smoke, the policy
## arena smoke, a short fuzz smoke of the partition invariants, a
## one-iteration benchmark smoke (catches benchmarks whose setup asserts
## fail), and the benchmark module's own vet and tests.
ci: vet build test race faultsmoke servesmoke loadsmoke crashsmoke arenasmoke clustersmoke fuzz benchsmoke benchmod

vet:
	$(GO) vet ./...

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
## direct library calls, mid-flight client hang-up, cache-hit metrics,
## graceful drain and goroutine-leak checks, plus the session/handler
## suites and the command's own SIGINT drain test.
servesmoke:
	$(GO) test -race -timeout 120s -count=1 ./internal/service ./cmd/serve

## loadsmoke: a short open-loop Poisson run against an in-process server.
## Every request in the mix answers 200 on a healthy server, so loadgen's
## default -max-errors 0 makes any error a nonzero exit.
loadsmoke:
	$(GO) run ./cmd/loadgen -rate 400 -duration 2s -clients 8

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
## crash matrix, and an in-process 3-replica cluster behind a
## coordinator with one forced migration and one replica crash + WAL
## restart.
clustersmoke:
	$(GO) test -race -timeout 180s -count=1 \
		-run 'Ring|Cluster|Migrat' \
		./internal/cluster ./internal/service

## fuzz: short smokes of the partition-engine invariant fuzzer, the
## rational arithmetic differential fuzzer (covers the Add/Cmp fast paths)
## and the service's wire encoder against encoding/json.
fuzz:
	$(GO) test ./internal/partition -run Fuzz -fuzz=FuzzPartitionInvariants -fuzztime=10s
	$(GO) test ./internal/rational -run Fuzz -fuzz=FuzzArithmetic -fuzztime=5s
	$(GO) test ./internal/service -run Fuzz -fuzz=FuzzWireEncoding -fuzztime=5s

## bench: record the engine, WAL, service (handler ladder row L3), arena
## and cluster benchmark suites to the next results/BENCH_<n+1>.json,
## gated against the newest recorded results/BENCH_<n>.json — the gate
## fails if any recorded benchmark slows by more than 25%; new benchmarks
## pass through as additions.
bench:
	@last=$$(ls results/BENCH_*.json | sed 's/[^0-9]//g' | sort -n | tail -1); \
	$(GO) run ./cmd/benchjson -pkg "./internal/online ./internal/oplog ./internal/service ./internal/arena ./internal/cluster" \
		-benchtime 0.3s -baseline results/BENCH_$$last.json -max-regress 0.25 \
		-o results/BENCH_$$((last + 1)).json

## benchsmoke: run every benchmark exactly once — cheap assurance that
## benchmark setup assertions (acceptance, miss-free instances) hold.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

## benchmod: vet and test the benchmark module (bench/, its own go.mod).
## Root builds never compile it, so this is what catches a public-API
## change that would break the repository benchmark.
benchmod:
	cd bench && $(GO) vet ./... && $(GO) test ./...
