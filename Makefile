GO ?= go

.PHONY: all build vet fmt cross test race stress check cli-smoke sweep-smoke crash-matrix oracle-smoke fuzz-smoke profile perf-smoke experiments-check bless-golden loc clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails when gofmt -l lists any file.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

# cross builds and vets every package but ./benchmark (Linux-only) for
# Windows and macOS: an image's region is an anonymous mmap on unix and a
# heap slice elsewhere, and both must keep compiling.
CROSS_PKGS = $$($(GO) list ./... | grep -v '^repro/benchmark')
cross:
	GOOS=windows $(GO) build $(CROSS_PKGS)
	GOOS=windows $(GO) vet $(CROSS_PKGS)
	GOOS=darwin $(GO) build $(CROSS_PKGS)
	GOOS=darwin $(GO) vet $(CROSS_PKGS)

test:
	$(GO) test ./...

# race is the CI race job: the whole suite under the race detector
# without -short, so the tests `make check` skips under -short (the L=23
# simulation in TestFullScaleTable3Geometry, the full sweep grids and
# kill -9 tortures) run too, and so does every oracle test. One and a
# half to two minutes of wall time on a 2-vCPU box.
race:
	$(GO) test -race ./...

# stress hunts flakes in the serving layer's, the network front-end's
# and the file store's concurrent tests: each package under the race
# detector, 20 times over, on one and on two CPUs (an ordering bug such
# as TestBackpressure's old three-way submit race shows up only on some
# interleavings; the connection data path is mutex-plus-callback
# concurrency across reader, writer and shard workers; every durable
# persist, serial or grouped, hands its epoch to the file store's
# persist worker). netserve and filestore run -short, so each pass takes
# the CI slice of the kill -9 tortures, as `make check` does. About a
# quarter of an hour on a 2-core box, hence the explicit timeout.
stress:
	$(GO) test -race -count=20 -cpu 1,2 -timeout 60m ./internal/serve/
	$(GO) test -race -short -count=20 -cpu 1,2 -timeout 60m ./internal/netserve/
	$(GO) test -race -short -count=20 -cpu 1,2 -timeout 60m ./internal/storage/filestore/

# check is the pre-commit gate: build, vet, the gofmt gate, the Windows
# and macOS builds, the full suite under the race detector, the crash
# matrix over three seeds (it exits 2 if a persistent scheme corrupts),
# the all-scheme differential oracle and crash torture (oracle-smoke; it
# exits 1 on any violation), the byte-identity pin on the paper's tables
# (experiments-check), and the two everything-armed CLI runs.
# -short shrinks the sweep grid cells (see internal/sweep.testGrid), the
# seam differential and the durable alloc guards' warm-ups, and takes the
# CI slice of the kill -9 tortures (a few real SIGKILLs per scheme; the
# full sweeps run in `make test` / `make race`); every other serving,
# pipelining, resharding and group-commit test runs whole.
check: build vet fmt cross
	$(GO) test -short -race ./...
	$(GO) run ./cmd/psoram crash -seeds 3 -workers 2
	$(MAKE) oracle-smoke
	$(MAKE) experiments-check
	$(MAKE) cli-smoke

# cli-smoke is the differential oracle driven through the command line,
# under the race detector, once per transport. In process: periodic
# power failures, a live 4 -> 6 re-stripe halfway through, and group
# commit on durable shards, all at once; the run ends with the pool's
# structural invariants. Over loopback TCP: power failures behind the
# wire, every value diffed on the client side.
cli-smoke: build
	rm -rf /tmp/psoram-cli-smoke-store
	$(GO) run -race ./cmd/psoram load -check -shards 4 -blocks 512 -levels 6 \
		-conns 4 -rate 300 -duration 3s -crash-every 300 -reshard 6 \
		-store /tmp/psoram-cli-smoke-store -group-commit 8 -group-delay 2ms
	rm -rf /tmp/psoram-cli-smoke-store
	$(GO) run -race ./cmd/psoram load -check -transport tcp -shards 4 -blocks 256 -levels 6 \
		-conns 8 -rate 2000 -duration 2s -crash-every 300

# sweep-smoke regenerates the acceptance grid (3 schemes x 2 workloads x
# 2 channel counts) through the CLI on 4 workers, printing the summary
# table and the achieved parallel speedup.
sweep-smoke: build
	$(GO) run ./cmd/psoram sweep \
		-schemes Baseline,PS-ORAM,Naive-PS-ORAM \
		-workloads 401.bzip2,429.mcf \
		-channels 1,2 -accesses 400 -levels 10 -workers 4

# crash-matrix reproduces the crash-consistency verdict table
# (paper Table 5) through the parallel pool.
crash-matrix: build
	$(GO) run ./cmd/psoram crash -workers 4

# oracle-smoke runs the differential oracle and the crash-linearizability
# torture harness over every scheme (see EXPERIMENTS.md, "Validating a
# refactor with psoram oracle").
oracle-smoke: build
	$(GO) run ./cmd/psoram oracle -crash

# fuzz-smoke gives every fuzz target in the repo a short coverage-guided
# run (the CI budget; raise FUZZTIME locally for a deeper session).
# FuzzLoadDurable's inputs are whole snapshots, hundreds of bytes each,
# and minimizing one takes a quadratic number of loads: its minimization
# is capped so that the budget goes to fuzzing.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzOracleAccessSequence$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzStashEviction$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzStoreOps$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzLoadRejectsOrRoundTrips$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzSealOpen$$' -fuzztime $(FUZZTIME) ./internal/cryptoeng
	$(GO) test -run '^$$' -fuzz '^FuzzStashTable$$' -fuzztime $(FUZZTIME) ./internal/oram
	$(GO) test -run '^$$' -fuzz '^FuzzImageOverlay$$' -fuzztime $(FUZZTIME) ./internal/oram
	$(GO) test -run '^$$' -fuzz '^FuzzFilestoreRecovery$$' -fuzztime $(FUZZTIME) ./internal/storage/filestore
	$(GO) test -run '^$$' -fuzz '^FuzzLoadDurable$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzFrameCodec$$' -fuzztime $(FUZZTIME) ./internal/netserve

# profile captures CPU + heap pprof for a representative sweep via the
# `psoram sweep -profile` flag; inspect with `go tool pprof profiles/cpu.pprof`.
PROFILE_DIR ?= profiles
profile: build
	$(GO) run ./cmd/psoram sweep \
		-schemes Baseline,PS-ORAM,Naive-PS-ORAM -workloads 401.bzip2,429.mcf \
		-channels 1 -accesses 2000 -levels 14 -workers 1 -quiet \
		-profile $(PROFILE_DIR)

# perf-smoke is the CI perf job: the zero-allocation guards (simulator,
# stash table, persistence domain, core controller, serving layer, and a
# loopback round trip through the network front-end; in the core, every
# scheme's write-back: single batch, posted, ordered small-WPQ, and both
# recursive ones), the checks that the write-back's work follows the
# occupied slots (a whole-bucket image write touches no cold per-slot
# entry; an untimed batch stores no untagged entry), the image layout
# the load walk relies on (one cache-line record per bucket) and the
# gather ahead of it (reads only, allocates nothing), the image's
# footprint (heap bytes per bucket, no cold page once written), the golden
# determinism regression, and one pass of the sim, serve and store
# benchmarks with -benchtime=1x (harness correctness, not timing; the deep
# store benchmark is the in-repo reproducer of the cache-missing L=16
# access).
perf-smoke:
	$(GO) test ./internal/sim -run 'TestSteadyStateZeroAllocs|TestGoldenDeterminismRegression' -v
	$(GO) test ./internal/oram -run 'TestStashSteadyStateAllocs|TestDenseBucketMatchesPerSlot|TestInitialPlacementsMatchPerSlot|TestRecordLayout|TestImageFootprint|TestImageFootprintAtBirth' -v
	$(GO) test ./internal/mem -run 'TestFunctionlessEntriesAreCountedNotStoredWhenUntimed|TestAddDataRunTimesLikeSingleEntries' -v
	$(GO) test ./internal/core -run 'TestCoreSteadyStateAllocs|TestCoreUntimedSteadyStateAllocs|TestCoreBaselineSteadyStateAllocs|TestCoreRcrPSORAMSteadyStateAllocs|TestCoreRcrBaselineSteadyStateAllocs|TestCorePSORAMWPQ4SteadyStateAllocs|TestCoreFileStoreSteadyStateAllocs|TestGatherChangesNothing' -short -v
	$(GO) test ./internal/serve -run 'TestServeSteadyStateAllocs|TestServePipelinedSteadyStateAllocs|TestServeFileStoreSteadyStateAllocs|TestServeGroupCommitRoundAllocs' -short -v
	$(GO) test ./internal/netserve -run 'TestNetRoundTripAllocs' -v
	$(GO) test -run '^$$' -bench BenchmarkSim -benchtime=1x -benchmem ./internal/sim
	$(GO) test -run '^$$' -bench 'BenchmarkPoolThroughput|^BenchmarkStoreAccess$$|^BenchmarkStoreAccessDeep$$|^BenchmarkFileStoreAccess$$' -benchtime=1x -benchmem ./internal/serve .

# experiments-check reruns `psoram experiments` and diffs its stdout
# against the recorded experiments_output.txt, ignoring the `==>` lines
# (they carry the simulation count, worker count and wall time). The run is deterministic, so any other
# difference is a behaviour change: regenerate the file in the commit
# that makes it, with `go run ./cmd/psoram experiments > experiments_output.txt`.
experiments-check:
	@out="$$(mktemp)"; $(GO) run ./cmd/psoram experiments > "$$out" && \
		diff -I '^==> ' experiments_output.txt "$$out"; rc=$$?; rm -f "$$out"; exit $$rc

# bless-golden re-pins the golden metrics after a deliberate behaviour
# change. Justify the new numbers in the commit that re-blesses.
bless-golden:
	$(GO) test ./internal/sweep -run TestGoldenMetrics -update

# loc prints the program's size: the line count of the non-test Go files
# outside benchmark/, the figure a simplification reports before and
# after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 cat | wc -l

clean:
	$(GO) clean ./...
