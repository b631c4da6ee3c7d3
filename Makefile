GO ?= go

.PHONY: all build vet fmt test race stress check sweep-smoke crash-matrix oracle-smoke serve-smoke net-smoke kill9-smoke pipeline-smoke reshard-smoke group-smoke fuzz-smoke profile perf-smoke bless-golden clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails when gofmt -l lists any file.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# stress hunts flakes in the serving layer's and the network front-end's
# concurrent tests: each package under the race detector, 20 times
# over, on one and on two CPUs (an ordering bug such as
# TestBackpressure's old three-way submit race shows up only on some
# interleavings; the connection data path is mutex-plus-callback
# concurrency across reader, writer and shard workers). netserve runs
# -short, so the kill -9 tortures stay in net-smoke. About a quarter of
# an hour on a 2-core box, hence the explicit timeout.
stress:
	$(GO) test -race -count=20 -cpu 1,2 -timeout 60m ./internal/serve/
	$(GO) test -race -short -count=20 -cpu 1,2 -timeout 60m ./internal/netserve/

# check is the pre-commit gate: build, vet, the gofmt gate, the full
# suite under the race detector, the pipelining smoke (depth {1,4}
# through the serving oracle plus a crashing CLI run), the resharding
# smoke and the group-commit smoke. -short shrinks the sweep grid cells
# (see internal/sweep.testGrid) so the parallel engine is still
# exercised end-to-end without multi-minute cells.
check: build vet fmt
	$(GO) test -short -race ./...
	$(MAKE) pipeline-smoke
	$(MAKE) reshard-smoke
	$(MAKE) group-smoke

# sweep-smoke regenerates the acceptance grid (3 schemes x 2 workloads x
# 2 channel counts) through the CLI on 4 workers, printing the summary
# table and the achieved parallel speedup.
sweep-smoke: build
	$(GO) run ./cmd/psoram-sweep \
		-schemes Baseline,PS-ORAM,Naive-PS-ORAM \
		-workloads 401.bzip2,429.mcf \
		-channels 1,2 -accesses 400 -levels 10 -workers 4

# crash-matrix reproduces the crash-consistency verdict table
# (paper Table 5) through the parallel pool.
crash-matrix: build
	$(GO) run ./cmd/psoram-sweep -crash -workers 4

# oracle-smoke runs the differential oracle and the crash-linearizability
# torture harness over every scheme (see EXPERIMENTS.md, "Validating a
# refactor with psoram-oracle").
oracle-smoke: build
	$(GO) run ./cmd/psoram-oracle -crash

# serve-smoke proves the serving layer under the race detector: the
# differential oracle driven through a concurrent sharded pool, the
# kill-mid-batch crash torture, and a short CLI load run with -check.
serve-smoke: build
	$(GO) test -race -count=1 -run 'TestPoolOracle|TestPoolConcurrentOracle|TestCrashTorture' ./internal/serve
	$(GO) run -race ./cmd/psoram-serve -shards 4 -clients 4 -ops 200 -blocks 256 -levels 6 -check -crash-every 300

# net-smoke proves the TCP front-end under the race detector: the frame
# codec units, the N-connections-times-M-streams differential oracle
# over real sockets, slow-reader isolation, overload mapping, the
# cancellation edges with the goroutine-leak guard, the network kill -9
# torture (-short slice), and an in-process server + open-loop load run
# with every value diffed against the reference (-check).
net-smoke: build
	$(GO) test -race -short -count=1 ./internal/netserve
	$(GO) run -race ./cmd/psoram-server -self -shards 4 -blocks 256 -levels 6 \
		-conns 8 -rate 2000 -duration 2s -check

# kill9-smoke is the CI-budget slice of the crash-recovery torture: a
# few real SIGKILLs per scheme against the file-backed store plus the
# corruption table and the mutation check (a sabotaged persist barrier
# must be caught). The full 58-kill-point sweep runs in `make test` /
# `make race` (no -short).
kill9-smoke: build
	$(GO) test -race -short -count=1 -run 'TestKill9|TestCorruptionTable|TestFreshDirIsNoStore' ./internal/storage/filestore

# pipeline-smoke sweeps pipeline depth {1,4} through the serving-layer
# differential oracle, the Depth(1) byte-equivalence check against the
# bare serial controller, the read-combining suite, and the
# worker's round formation (TestRoundsForm: rounds, combined reads and
# per-caller fairness by exact counters at GOMAXPROCS 1 and 2),
# all under the race detector; then the kill -9 recovery torture
# (-short slice) and a crash-torture CLI run with the whole machinery
# armed.
pipeline-smoke: build
	$(GO) test -race -count=1 -run 'TestPipelineMatrixOracle|TestDepthOneByteIdenticalToSerial|TestReadCombining|TestWritesNeverCombine|TestPipelined|TestRoundsForm' ./internal/serve
	$(GO) test -race -short -count=1 -run 'TestKill9' ./internal/storage/filestore
	$(GO) run -race ./cmd/psoram-serve -shards 2 -clients 4 -ops 150 -blocks 256 -levels 6 \
		-check -crash-every 250 -pipeline-depth 4

# reshard-smoke proves elastic resharding under the race detector: the
# oracle-validated split-then-merge under concurrent load, durable
# adoption across restart, backpressure/busy semantics, the same
# migration driven over TCP while clients hammer the pool, the SIGKILL
# -mid-migration torture (-short slice), and an oracle-checked CLI run
# that re-stripes 4 -> 6 shards halfway through.
reshard-smoke: build
	$(GO) test -race -count=1 -run 'TestReshard' ./internal/serve
	$(GO) test -race -short -count=1 -run 'TestNetReshard' ./internal/netserve
	$(GO) run -race ./cmd/psoram-serve -shards 4 -clients 4 -ops 300 -blocks 512 -levels 6 \
		-check -reshard 6

# group-smoke proves group-commit durability under the race detector:
# the GroupCommit(1) on-disk byte-equivalence gate, the grouped commit
# ticket/equivalence suite, the async-barrier epoch turnover and stray
# sweep tests, the group kill -9 torture (acks only from commit
# callbacks; -short slice) plus its mutation check, the serve-layer
# group tests, and an oracle-checked CLI run with group commit armed on
# a durable pool.
group-smoke: build
	$(GO) test -race -count=1 -run 'TestGroupCommit|TestAsync' ./internal/core ./internal/storage/filestore
	$(GO) test -race -short -count=1 -run 'TestKill9Group' ./internal/storage/filestore
	$(GO) test -race -count=1 -run 'TestPoolGroupCommit' ./internal/serve
	rm -rf /tmp/psoram-group-smoke-store
	$(GO) run -race ./cmd/psoram-serve -shards 2 -clients 4 -ops 150 -blocks 256 -levels 6 \
		-check -store /tmp/psoram-group-smoke-store -group-commit 8 -group-delay 2ms && \
		rm -rf /tmp/psoram-group-smoke-store

# fuzz-smoke gives each oracle fuzz target a short coverage-guided run
# (the CI budget; raise FUZZTIME locally for a deeper session).
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzOracleAccessSequence$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzStashEviction$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzStashTable$$' -fuzztime $(FUZZTIME) ./internal/oram
	$(GO) test -run '^$$' -fuzz '^FuzzImageOverlay$$' -fuzztime $(FUZZTIME) ./internal/oram
	$(GO) test -run '^$$' -fuzz '^FuzzFilestoreRecovery$$' -fuzztime $(FUZZTIME) ./internal/storage/filestore
	$(GO) test -run '^$$' -fuzz '^FuzzFrameCodec$$' -fuzztime $(FUZZTIME) ./internal/netserve

# profile captures CPU + heap pprof for a representative sweep via the
# psoram-sweep -profile flag; inspect with `go tool pprof profiles/cpu.pprof`.
PROFILE_DIR ?= profiles
profile: build
	$(GO) run ./cmd/psoram-sweep \
		-schemes Baseline,PS-ORAM,Naive-PS-ORAM -workloads 401.bzip2,429.mcf \
		-channels 1 -accesses 2000 -levels 14 -workers 1 -quiet \
		-profile $(PROFILE_DIR)

# perf-smoke is the CI perf job: the zero-allocation guards (simulator,
# stash table, persistence domain, core controller, serving layer, and a
# loopback round trip through the network front-end), the checks that the
# write-back's work follows the occupied slots (a whole-bucket image
# write touches no dummy's entry; an untimed batch stores no
# function-less entry), the golden
# determinism regression, and one pass of the sim and serve benchmarks with
# -benchtime=1x (harness correctness, not timing).
perf-smoke:
	$(GO) test ./internal/sim -run 'TestSteadyStateZeroAllocs|TestGoldenDeterminismRegression' -v
	$(GO) test ./internal/oram -run 'TestStashSteadyStateAllocs|TestDenseBucketMatchesPerSlot' -v
	$(GO) test ./internal/mem -run 'TestFunctionlessEntriesAreCountedNotStoredWhenUntimed|TestAddDataRunTimesLikeSingleEntries' -v
	$(GO) test ./internal/core -run 'TestCoreSteadyStateAllocs|TestCoreUntimedSteadyStateAllocs|TestCoreEagerSealSteadyStateAllocs|TestCoreFileStoreSteadyStateAllocs' -short -v
	$(GO) test ./internal/serve -run 'TestServeSteadyStateAllocs|TestServePipelinedSteadyStateAllocs|TestServeFileStoreSteadyStateAllocs|TestServeGroupCommitRoundAllocs' -short -v
	$(GO) test ./internal/netserve -run 'TestNetRoundTripAllocs' -v
	$(GO) test -run '^$$' -bench BenchmarkSim -benchtime=1x -benchmem ./internal/sim
	$(GO) test -run '^$$' -bench 'BenchmarkPoolThroughput|^BenchmarkStoreAccess$$|^BenchmarkFileStoreAccess$$' -benchtime=1x -benchmem ./internal/serve .

# bless-golden re-pins the golden metrics after a deliberate behaviour
# change. Justify the new numbers in the commit that re-blesses.
bless-golden:
	$(GO) test ./internal/sweep -run TestGoldenMetrics -update

clean:
	$(GO) clean ./...
