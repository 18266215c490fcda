# Developer entry points. `make ci` is what the GitHub Actions workflow
# runs; keep the two in sync.

GO ?= go

.PHONY: build vet fmt-check staticcheck test race scenario-smoke churn-smoke serve-smoke fuzz-smoke bench-smoke bench-routing-smoke bench-mobility-smoke bench-kernel-smoke bench-dataplane-smoke bench-kernel bench-routing bench-dataplane bench bench-record bench-ab ci

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

# One iteration of the broadcast scaling bench: catches gross perf
# regressions (e.g. the culling silently disabled) without the minutes-long
# full table from PERF.md.
bench-smoke:
	$(GO) test ./internal/phy/ -bench ChannelBroadcast -benchtime=1x -benchmem -run XXX

# One iteration of the routing control-plane bench: catches gross
# regressions (e.g. the dense kernels silently allocating) in seconds,
# mirroring the ChannelBroadcast smoke.
bench-routing-smoke:
	$(GO) test ./internal/routing/olsr/ -bench OLSRControlPlane -benchtime=1x -benchmem -run XXX

# One iteration of the N=1k mobility benches: catches the streaming path
# silently re-materializing (its B/op is the whole point — see the
# "Streaming mobility" section of PERF.md). The CA benches under them ride
# along: kernel/reference pairs in ns/vehicle-step, the ledger's unit, show
# at a glance whether Lane.Step and Road.Step are still the array kernel.
bench-mobility-smoke:
	$(GO) test ./internal/mobility/ -bench 'MobilityRecordRoadN1k|MobilityStreamRoadN1k' -benchtime=1x -benchmem -run XXX
	$(GO) test ./internal/ca/ -bench 'LaneStep|FundamentalPoint|RoadStepCoupled' -benchtime=1x -benchmem -run XXX

# One iteration of the 10k-ticker kernel bench on both queue paths:
# catches the calendar queue silently losing its O(1) behavior (or
# sim.KernelConfig.HeapOracle, the switch the bench selects the heap
# with, breaking) without the full depth table from PERF.md. The fan-out
# bench rides along: its batch/each pair shows at a glance whether a
# sim.Batch still costs one queue entry per transmission rather than one
# requeue per member.
bench-kernel-smoke:
	$(GO) test ./internal/sim/ -bench 'PeriodicTickers10k|FanOutBatch' -benchtime=1x -benchmem -run XXX

# One iteration of the AODV/DYMO data-plane benches on both table paths:
# catches the dense tables silently allocating (their 0 allocs/op is the
# point) or aodv/dymo Config.Oracle, the switch the benches select the
# map tables with, breaking, in seconds.
bench-dataplane-smoke:
	$(GO) test ./internal/routing/aodv/ -bench 'AODVForward|AODVRREQStorm' -benchtime=1x -benchmem -run XXX
	$(GO) test ./internal/routing/dymo/ -bench 'DYMOForward|DYMORREQStorm' -benchtime=1x -benchmem -run XXX

# Full AODV/DYMO data-plane table (per-packet forwarding work and the
# RREQ-storm world, dense vs map oracle); see the "Routing data plane"
# section of PERF.md.
bench-dataplane:
	$(GO) test ./internal/routing/aodv/ -bench AODVForward -benchmem -benchtime=2s -run XXX
	$(GO) test ./internal/routing/aodv/ -bench AODVRREQStorm -benchmem -benchtime=20x -run XXX
	$(GO) test ./internal/routing/dymo/ -bench DYMOForward -benchmem -benchtime=2s -run XXX
	$(GO) test ./internal/routing/dymo/ -bench DYMORREQStorm -benchmem -benchtime=20x -run XXX

# Full event-kernel table (mixed workloads, schedule/pop at 1k/10k/100k
# pending, and the batched vs per-member fan-out, calendar vs heap
# oracle); see the "Event kernel" and "Batched signal fan-out" sections of
# PERF.md.
bench-kernel:
	$(GO) test ./internal/sim/ -bench 'PeriodicTickers10k|CancelHeavy|FarFutureOverflow|MetroArrivals|SchedulePopPending|FanOutBatch' -benchmem -benchtime=2s -run XXX

# Full routing control-plane table (dense vs oracle at N=100/1k plus the
# steady-state purge); see the "Routing control plane" section of PERF.md.
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

ci: build vet fmt-check staticcheck test bench-smoke bench-routing-smoke bench-mobility-smoke bench-kernel-smoke bench-dataplane-smoke scenario-smoke churn-smoke serve-smoke fuzz-smoke
