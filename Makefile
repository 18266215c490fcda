# Developer entry points. `make ci` is what the GitHub Actions workflow
# runs; keep the two in sync.

GO ?= go

.PHONY: build vet fmt-check staticcheck test race portable scenario-smoke churn-smoke serve-smoke fuzz-smoke bench-smoke bench-kernel bench-routing bench-dataplane bench bench-record bench-ab mutate ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt cleanliness: fail (and name the files) if anything is not
# canonically formatted. gofmt -l prints nothing on a clean tree.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# staticcheck when available: the tool is not vendored, so environments
# without it (fresh containers) skip the target instead of failing ci.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

test:
	$(GO) test ./...

# Race-detector pass over the parallel experiment engine and everything
# that schedules work on it; mirrors the ci.yml race job. The Behavioural
# Analyzer (internal/core) fans its ensembles out on the engine; the
# scenario registry sweeps and compares protocols on it (-short trims its
# 20-seed property suite to keep the race pass quick), and its catalogue ×
# AllProtocols matrix covers GPSR and the urban street-grid workloads.
# The serve daemon (admission gate, cache, stream broadcast, drain) is
# the most concurrent code in the tree; it and the CLI that hosts it run
# here in full.
race:
	$(GO) test -race ./internal/exp/ ./internal/stats/ ./internal/rng/ ./internal/core/
	$(GO) test -race -short ./internal/scenario/...
	$(GO) test -race ./internal/serve/ ./cmd/cavenet/

# Word size must not reach the results: the golden-bearing packages build,
# vet and pass — every golden byte-identical — as a 32-bit program.
# (Fused multiply-add on arm64 and friends is the open half: ROADMAP item 6.)
portable:
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test ./internal/netsim/ ./cmd/cavenet/

# The scenario catalogue end to end: list the registry, then run one ring
# and one urban workload under the invariant harness (non-zero exit on any
# violation). manhattan exercises the street-grid mobility substrate and
# GPSR geographic forwarding; downtown covers the OLSR HNA V2I uplink.
scenario-smoke:
	$(GO) run ./cmd/cavenet scenario list
	$(GO) run ./cmd/cavenet scenario run signalized -time 15 -seed 3
	$(GO) run ./cmd/cavenet scenario run manhattan -time 15 -seed 3
	$(GO) run ./cmd/cavenet scenario run downtown -time 15 -seed 3

# The fault-injection substrate end to end: the churn workload under the
# invariant harness for every protocol (non-zero exit on any conservation
# or custody violation), plus an ad-hoc fault plan through the CLI parser.
churn-smoke:
	$(GO) run ./cmd/cavenet scenario run churn -protocol aodv -time 20 -seed 2
	$(GO) run ./cmd/cavenet scenario run churn -protocol olsr -time 20 -seed 2
	$(GO) run ./cmd/cavenet scenario run churn -protocol dymo -time 20 -seed 2
	$(GO) run ./cmd/cavenet scenario run churn -protocol gpsr -time 20 -seed 2
	$(GO) run ./cmd/cavenet scenario run highway -time 20 -seed 2 -faults "blackout:6,4,0.5;impair:0-1,2,10,0.3,3"

# The experiment service end to end: start the daemon, submit the golden
# grid, require the fetched CSV byte-identical to the CLI sweep output,
# and require a resubmitted grid served wholly from the content-addressed
# cache (zero new kernel runs by the job counters).
serve-smoke:
	$(GO) test ./cmd/cavenet/ -run TestServeSmoke -count=1

# A few seconds of each parser fuzz target: keeps the fuzz harnesses
# compiling and catches shallow parser regressions in CI. Open-ended
# hunting: go test ./internal/trace -fuzz FuzzParseNS2
fuzz-smoke:
	$(GO) test ./internal/trace/ -fuzz FuzzParseNS2 -fuzztime 5s -run XXX
	$(GO) test ./internal/trace/ -fuzz FuzzParseBonnMotion -fuzztime 5s -run XXX
	$(GO) test ./internal/fault/ -fuzz FuzzParseSpec -fuzztime 5s -run XXX
	$(GO) test ./internal/scenario/ -fuzz FuzzUrbanSpec -fuzztime 5s -run XXX
	$(GO) test ./internal/sim/ -fuzz FuzzKernelDifferential -fuzztime 5s -run XXX
	$(GO) test ./internal/mac/ -fuzz FuzzBackoffDifferential -fuzztime 5s -run XXX
	$(GO) test ./internal/ca/ -fuzz FuzzLaneDifferential -fuzztime 5s -run XXX

# One iteration of each micro-benchmark family: keeps the benches
# compiling and catches a fast path silently degrading, in seconds, without
# the minutes-long tables from PERF.md.
#  - phy: the broadcast scaling bench (e.g. the culling silently disabled).
#  - olsr: the control plane (e.g. the dense kernels silently allocating).
#  - mobility: the N=1k benches — the streaming path silently
#    re-materializing shows in B/op, the whole point of the streaming
#    table in PERF.md. The CA benches ride along: kernel/reference
#    pairs in ns/vehicle-step, the ledger's unit, show at a glance whether
#    Lane.Step and Road.Step are still the array kernel.
#  - sim: the 10k-ticker bench on the calendar queue and on the heap
#    reference (in-package only: the bench builds it through newHeapKernel)
#    catches the calendar losing its O(1) behavior; the fan-out bench's
#    batch/each pair shows whether a sim.Batch still costs one queue entry
#    per transmission rather than one requeue per member.
#  - aodv/dymo: the table-level Forward benches run the dense table against
#    the map reference from reference_test.go (0 allocs/op dense is the
#    point); the RREQ-storm world runs the one table routers hold.
bench-smoke:
	$(GO) test ./internal/phy/ -bench ChannelBroadcast -benchtime=1x -benchmem -run XXX
	$(GO) test ./internal/routing/olsr/ -bench OLSRControlPlane -benchtime=1x -benchmem -run XXX
	$(GO) test ./internal/mobility/ -bench 'MobilityRecordRoadN1k|MobilityStreamRoadN1k' -benchtime=1x -benchmem -run XXX
	$(GO) test ./internal/ca/ -bench 'LaneStep|FundamentalPoint|RoadStepCoupled' -benchtime=1x -benchmem -run XXX
	$(GO) test ./internal/sim/ -bench 'PeriodicTickers10k|FanOutBatch' -benchtime=1x -benchmem -run XXX
	$(GO) test ./internal/routing/aodv/ -bench 'AODVForward|AODVRREQStorm' -benchtime=1x -benchmem -run XXX
	$(GO) test ./internal/routing/dymo/ -bench 'DYMOForward|DYMORREQStorm' -benchtime=1x -benchmem -run XXX

# Full AODV/DYMO data-plane table (per-packet forwarding work, dense vs
# the map reference, and the RREQ-storm world); see "Micro-benchmarks" in
# PERF.md.
bench-dataplane:
	$(GO) test ./internal/routing/aodv/ -bench AODVForward -benchmem -benchtime=2s -run XXX
	$(GO) test ./internal/routing/aodv/ -bench AODVRREQStorm -benchmem -benchtime=20x -run XXX
	$(GO) test ./internal/routing/dymo/ -bench DYMOForward -benchmem -benchtime=2s -run XXX
	$(GO) test ./internal/routing/dymo/ -bench DYMORREQStorm -benchmem -benchtime=20x -run XXX

# Full event-kernel table (mixed workloads, schedule/pop at 1k/10k/100k
# pending, and the batched vs per-member fan-out, calendar vs heap
# reference); see "Micro-benchmarks" in PERF.md.
bench-kernel:
	$(GO) test ./internal/sim/ -bench 'PeriodicTickers10k|CancelHeavy|FarFutureOverflow|MetroArrivals|SchedulePopPending|FanOutBatch' -benchmem -benchtime=2s -run XXX

# Full routing control-plane table (dense vs oracle at N=100/1k plus the
# steady-state purge); see "Micro-benchmarks" in PERF.md.
bench-routing:
	$(GO) test ./internal/routing/olsr/ -bench 'OLSRControlPlane|OLSRPurge' -benchmem -benchtime=50x -run XXX
	$(GO) test ./internal/scenario/ -bench 'ScenarioOLSRN1000' -benchmem -benchtime=1x -run XXX

# Full benchmark tables; see PERF.md for interpretation.
bench:
	$(GO) test ./internal/phy/ -bench 'ChannelBroadcast|MobilityTick' -benchmem -benchtime=2000x -run XXX
	$(GO) test ./internal/netsim/ -bench 'Connectivity|Components' -benchmem -benchtime=20x -run XXX
	$(GO) test ./internal/sim/ -bench . -benchmem -run XXX

# The end-to-end benchmark ledger (bench/README.md): every workload ×
# every metric into one record; diff two records of one seed with
# `go run ./bench -compare a.json b.json`. Takes several minutes.
bench-record:
	$(GO) run ./bench -o bench/out/record.json

# bench/README.md's A/B protocol as one command: export BASE's committed
# files and a snapshot of the working tree to a temporary directory,
# alternate `bench/run.sh --workload $(W) --trace 0` parent/change for
# PAIRS pairs at seed 1 and at the held-out seed, print medians,
# quartiles, pair wins and whether the result digests agree. E.g.
# `make bench-ab W=urban_olsr BASE=HEAD~1` (≈ 9 minutes).
PAIRS ?= 10
HELDOUT ?= 47
bench-ab:
	@test -n "$(W)" -a -n "$(BASE)" || { echo "usage: make bench-ab W=<workload> BASE=<rev> [PAIRS=10] [HELDOUT=47]"; exit 2; }
	bash scripts/bench-ab.sh $(W) $(BASE) $(PAIRS) $(HELDOUT)

# The mutation gate (scripts/mutate.sh): apply each one-line mutant of a
# lemma clause to a fresh copy of the tree and require the tests that claim
# to watch it to fail; prints survivors, exits non-zero on any. Not in ci:
# it is the acceptance test of a PR that touches a lemma or retires a test,
# not of every push. `make mutate REV=HEAD~1` runs this tree's table
# against another revision's source.
mutate:
	bash scripts/mutate.sh $(REV)

ci: build vet fmt-check staticcheck test portable bench-smoke scenario-smoke churn-smoke serve-smoke fuzz-smoke
