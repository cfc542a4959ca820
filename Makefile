GO ?= go

.PHONY: check build vet archgate detknobs test testdebug race allocgate chaos interop fuzz-short fleet-smoke fleet-chaos sussd-smoke sussd-faults identity loc locgate bench-smoke clean

# The full gate CI runs: build + vet + tests (including the
# AllocsPerRun zero-allocation gates in internal/netsim) + the
# sussdebug lifecycle-detector pass + race pass over the
# concurrency-bearing packages.
check: build vet test testdebug race

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite, so the CI
# vet + build + test step enforces formatting without a job of its own.
vet:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l . is not empty:"; echo "$$out"; exit 1; fi

# Bytes that do not depend on the process: the identity table
# (TestBehaviourDigest), the CLI's quick render (TestQuickRenderGolden)
# and netem's stage schedules (TestImpairGolden, whose Flaps and
# VariableRate draws go through math.Exp and math.Log) run unchanged
# once per runtime knob — FMA off, AVX2 off (the CPU
# features the runtime and the stdlib pick code by), one P, the collector
# off, and the collector at every turn. The test binaries are built
# first, so each knob acts on the test process only, never on the go
# command. A leg that fails is a determinism bug with a reproducer.
DETKNOBS = GODEBUG=cpu.fma=off GODEBUG=cpu.avx2=off GOMAXPROCS=1 GOGC=off GOGC=1

detknobs:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) test -c -o "$$dir/service.test" ./internal/service || exit 1; \
	$(GO) test -c -o "$$dir/sussbench.test" ./cmd/sussbench || exit 1; \
	$(GO) test -c -o "$$dir/netem.test" ./internal/netem || exit 1; \
	for knob in $(DETKNOBS); do \
		echo "detknobs: $$knob"; \
		(cd internal/service && env $$knob "$$dir/service.test" -test.count=1 -test.run '^TestBehaviourDigest$$') || exit 1; \
		(cd cmd/sussbench && env $$knob "$$dir/sussbench.test" -test.count=1 -test.run '^TestQuickRenderGolden$$') || exit 1; \
		(cd internal/netem && env $$knob "$$dir/netem.test" -test.count=1 -test.run '^TestImpairGolden$$') || exit 1; \
	done

# Bytes that do not depend on the CPU. The Go spec lets a compiler fuse
# x*y + z into one multiply-add that rounds once instead of twice;
# amd64 never does, arm64, ppc64le, s390x and riscv64 do. The gate
# cross-compiles every package for those four with the assembly listing
# on and fails on any fused multiply-add in a suss/... function
# (stdlib code inlined into one included). A site is fixed the spec's
# way: an explicit conversion, float64(x*y) + z, rounds the product and
# forbids the fusion, and changes no amd64 instruction. Fusion inside
# the standard library's own functions (math.Pow, math.Exp …) is not
# checked here.
archgate:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; fused=0; \
	for arch in arm64 ppc64le s390x riscv64; do \
		if ! GOOS=linux GOARCH=$$arch $(GO) build -gcflags='suss/...=-S' ./... 2>"$$dir/$$arch"; then \
			grep -v '^	' "$$dir/$$arch"; exit 1; \
		fi; \
		awk -v arch=$$arch '/ STEXT / { fn = $$1 } /\tV?FN?M(ADD|SUB)[A-Z0-9]*\t/ && fn ~ /^suss\// { print arch ": " fn ": " $$0; n++ } END { exit n > 0 }' "$$dir/$$arch" || fused=1; \
	done; \
	if [ $$fused = 1 ]; then echo "archgate: fused multiply-adds in suss/... functions; round each product with float64(x*y)"; exit 1; fi; \
	echo "archgate: no fused multiply-add in suss/... on arm64, ppc64le, s390x or riscv64"

# The runner's tests run a second time shuffled, twice over: Map keeps
# idle Scratches process-wide, so a test that passes only after (or
# before) another one fails here. The transport's run again under
# -short, whose smaller configurations must still cover what the
# differential test insists on.
test:
	$(GO) test ./...
	$(GO) test -shuffle=on -count=2 ./internal/runner
	$(GO) test -short ./internal/tcp

# The sussdebug build tag arms the packet-lifecycle detector
# (double-release and use-after-release panic; the pool sequesters
# instead of recycling). The pooled hot-path packages get a pass with
# it on, and so do the runner's reused-vs-fresh differentials: a packet
# or conn scratch segment a flow reset left behind panics there.
testdebug:
	$(GO) test -tags sussdebug ./internal/netsim ./internal/tcp ./internal/runner

# The worker pool, the experiment sweeps built on it, and the
# experiment service (concurrent batch executors, watchers, the shared
# persistent cache) get a dedicated race pass. internal/runner includes
# the reused-vs-fresh engine differential at two workers
# (TestReusedEngineTwoWorkers): each worker's scratch engine is its own;
# and two concurrent Map calls of two workers each, twice over
# (TestWarmScratchesConcurrentMaps), taking and returning Scratches on
# the process-wide idle list.
race:
	$(GO) test -race ./internal/runner ./internal/experiments ./internal/service

# Allocation gates, run explicitly and WITHOUT -race: race
# instrumentation inserts allocations of its own, so an alloc count is
# only meaningful on an uninstrumented build. Zero-alloc pins cover the
# flight recorder (internal/obs), the event/packet arenas and the
# scheduler (internal/netsim), a last hop's netem models re-applied in
# place with their RNG reseeded (internal/netem), the wire codec, the
# simulator backend's
# send/deliver path, and the transport in loss recovery (a
# SACK-recovery ACK with 2048 losses on the scoreboard, a receiver
# holding 4096 ranges), the cache keys (one allocation per JobKey, and
# a fixed count per matrix for JobKeys at any length,
# internal/service/confhash) and the fig11 cell record (no allocation
# to parse one or to append one to a sized buffer, internal/service).
# Six budget tests pin whole deterministic replays against a constant
# kept next to each test: the serial reduced fig11 sweep (.), which is a
# warm pass because Map's workers keep their scratch between calls; a
# cold pass of that sweep on a new scratch, a 400-flow fleet shard on a
# new and on a warm scratch, a warm pass of the sweep through one
# scratch (all four internal/runner); and a warm resubmission of the
# 252-cell fig11 matrix to the daemon (internal/service). All are exact
# counts; the per-scratch warm pass is 0, so one allocation in any cell
# fails. A warm scratch resets each slot's flow and controller, its
# path or tree, its spec and its RNG in place, so the warm shard's
# count has no per-flow term: one allocation added to a flow's or a
# controller's set-up shows ×400. The sweep and the two shard replays
# also pin their events fired (the behaviour) and timing-wheel
# placements (the scheduler's work) exactly. Map keeps idle Scratches
# process-wide, so the gates run shuffled, twice over: a pin that holds
# only in one test order fails.
allocgate:
	$(GO) test -run 'Alloc' -shuffle=on -count=2 -v . ./internal/obs ./internal/netem ./internal/netsim ./internal/wire ./internal/wire/simbackend ./internal/tcp ./internal/runner ./internal/service ./internal/service/confhash

# Chaos matrix under -race: every impairment × CC algo × seed must
# complete (or error cleanly) with a balanced loss ledger, and a wedged
# simulation is killed by the per-job wall-clock watchdog instead of
# hanging the suite. Set CHAOS_DUMP=<file> to capture the matrix
# summary (with flight-recorder stall tails) on failure — CI uploads it
# as an artifact.
chaos:
	$(GO) test -race -timeout 300s -v ./internal/chaos

# Wire-backend interop under -race: the same transport over the UDP
# loopback, wall-clock timers, real frames between goroutines
# (including a lossy cell recovering by retransmission). The timeout is
# a hang backstop — the lossy test polls with its own deadlines.
interop:
	$(GO) test -race -timeout 180s ./internal/wire/...

# Short fuzz passes over the strict segment decoder, the cache key
# (every scalar of a Job, explicit renderer against the reflective
# reference, alone and as a matrix's memoized keys), the strict
# fig11 cell-record parser (against encoding/json) and the fig11 CSV's
# fixed-precision float formatter (against strconv's 'f' form): enough
# iterations to catch regressions in CI without open-ended fuzzing.
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzDecodeSegment -fuzztime 30s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzJobKeyMatchesOracle -fuzztime 30s ./internal/service/confhash
	$(GO) test -run '^$$' -fuzz FuzzJobKeysMatchOracle -fuzztime 30s ./internal/service/confhash
	$(GO) test -run '^$$' -fuzz FuzzJobCellRecord -fuzztime 30s ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzAppendFixed -fuzztime 30s ./internal/experiments

# Population smoke under -race: a 10k-flow fleet over 4 shared
# bottleneck trees, SUSS off vs on over the identical population, run
# at two worker counts — the merged per-class FCT CDF CSV must be
# byte-identical (the sharding determinism contract) and the small-flow
# FCT delta is reported in the -v log.
fleet-smoke:
	$(GO) test -race -timeout 900s -run 'TestFleetSmoke' -v ./internal/experiments

# Chaos-on-the-fleet under -race: the population comparison with
# impairments composed onto the tree links (netem reordering on every
# aggregation downlink, a hard mid-run outage on the core bottleneck)
# under the wall-clock watchdog. Gates resilience: no stalls, no shard
# errors, >= 95% flow completion, and the impairments demonstrably
# engaged (outage drops in the per-cause link stats).
fleet-chaos:
	$(GO) test -race -timeout 600s -run 'TestFleetChaos' -v ./internal/experiments

# Experiment-service smoke under -race, two real processes: the sussd
# binary and a sussim -submit client sending the same fig11 matrix
# twice. The second pass must be 100% cache hits with zero additional
# simulator runs, and both passes' CSV must be byte-identical to the
# in-process sweep — the content-addressed caching contract end to end
# over the wire. The daemon is then sent SIGTERM and must drain and
# exit 0 inside its -draintimeout.
sussd-smoke:
	$(GO) test -race -timeout 300s -run 'TestSussdSmoke' -v ./cmd/sussim

# Daemon fault harness under -race, two real processes: SIGKILL a sussd
# mid-batch and restart it on the same cache file — the resubmission
# must be warm for every persisted cell, re-simulate only what was in
# flight, and produce byte-identical CSV; plus recovery from a cache
# file with a torn tail (the artifact a crash mid-append leaves).
sussd-faults:
	$(GO) test -race -timeout 600s -run 'TestSussdFaultRecovery|TestSussdCorruptCacheRecovery' -v ./cmd/sussim

# Rewrite the committed identity table (internal/service/testdata/
# behaviour.txt: one line per cell, label, cache key and the sha256 of
# its record) from what this tree computes. TestBehaviourDigest, part of
# `make test`, compares against it and names every cell that moved; run
# this only for a change that moves results on purpose.
identity:
	$(GO) test -count=1 -run TestBehaviourDigest ./internal/service -update

# Non-test, non-bench/ Go lines per package plus a total: the number
# the ROADMAP design-diet item tracks. Record the total in CHANGES.md
# with every PR.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# The ceiling on loc's total. locgate fails when the tree has more
# non-test lines than this; a PR may raise it only with a CHANGES.md
# line that gives the rise and the reason.
LOC_CEILING = 17293

locgate:
	@total=$$($(MAKE) -s loc | awk '$$2 == "total" { print $$1 }'); \
	echo "locgate: $$total non-test lines, ceiling $(LOC_CEILING)"; \
	if [ "$$total" -gt $(LOC_CEILING) ]; then echo "locgate: $$((total - $(LOC_CEILING))) lines over the ceiling"; exit 1; fi

# The repo's one benchmark (BENCHMARK.json) at smoke size, plus the
# bench module's own tests: proves bench/ still builds and runs
# against this tree. Paired runs for a perf claim are two checkouts and
# `bash bench/run.sh` in each (see bench/README.md).
bench-smoke:
	bash bench/run.sh -smoke
	cd bench && $(GO) test ./...

clean:
	$(GO) clean ./...
