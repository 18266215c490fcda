#!/usr/bin/env bash
# The mutation gate: every exactness lemma in the tree names the tests that
# are supposed to notice when one of its clauses is broken; this re-runs
# that claim instead of trusting "mutation-checked by hand".
#
#   scripts/mutate.sh [rev]      (default: the working tree)
#   make mutate                  (not in ci; under a minute on a warm build cache)
#
# The table at the bottom is rows of
#
#   mutant <name> <file> <one-line sed edit> <packages> <go test -run regex>
#
# Each row is applied to a fresh copy of the source — exported the way
# scripts/bench-ab.sh makes its sides: `git archive <rev>`, or a snapshot of
# this working tree's tracked and unignored files, under $TMPDIR — and the
# named tests must then FAIL (the tests that did are printed beside the
# verdict). A mutant whose tests still pass has survived: it is printed, and
# the script exits non-zero. A row whose file is missing, whose edit no
# longer changes its file, whose mutant does not compile, or whose tests do not
# pass on the unmutated copy is reported as BROKEN (also non-zero): the
# table has rotted, not the code. With a revision the table of *this*
# script runs against that revision's source, which is how a PR that moves
# or retires a test shows it kills the same mutants before and after.
set -euo pipefail

rev=${1:-}
if [ ! -f go.mod ] || [ ! -d internal/sim ]; then
	echo "mutate: run from the root of a cavenet checkout" >&2
	exit 2
fi
tmp=$(mktemp -d "${TMPDIR:-/tmp}/mutate.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
if [ -n "$rev" ]; then
	git archive "$rev" | tar -x -C "$tmp/src"
	echo "mutate: source $(git rev-parse --short "$rev")"
else
	git ls-files -z --cached --others --exclude-standard |
		while IFS= read -r -d '' f; do [ ! -e "$f" ] || printf '%s\0' "$f"; done |
		xargs -0 cp --parents -t "$tmp/src"
	echo "mutate: source working tree"
fi

killed=0 survived=0 broken=0

# tests <dir> <packages> <regex>: run the named tests in dir; output to
# $tmp/log. A hang (a mutant that loops) counts as a failure.
tests() {
	# shellcheck disable=SC2086 # packages is a word list
	(cd "$1" && go test -timeout 120s -run "$3" $2) >"$tmp/log" 2>&1
}

mutant() {
	local name=$1 file=$2 edit=$3 pkgs=$4 regex=$5 by
	if [ ! -f "$tmp/src/$file" ]; then
		echo "BROKEN    $name: there is no $file"
		broken=$((broken + 1))
		return
	fi
	if ! tests "$tmp/src" "$pkgs" "$regex"; then
		echo "BROKEN    $name: $regex fails on the unmutated source"
		broken=$((broken + 1))
		return
	fi
	rm -rf "$tmp/m"
	cp -a "$tmp/src" "$tmp/m"
	sed -i "$edit" "$tmp/m/$file"
	if cmp -s "$tmp/src/$file" "$tmp/m/$file"; then
		echo "BROKEN    $name: the edit does not change $file"
		broken=$((broken + 1))
		return
	fi
	if ! tests "$tmp/m" "$pkgs" '^$'; then
		echo "BROKEN    $name: the mutant does not compile"
		sed 's/^/            /' "$tmp/log" | head -n 5
		broken=$((broken + 1))
		return
	fi
	if tests "$tmp/m" "$pkgs" "$regex"; then
		echo "SURVIVED  $name  ($file: $edit)"
		survived=$((survived + 1))
	else
		# Top-level tests that failed; a panic or a hang names none (and
		# grep's finding none must not end the script under pipefail).
		by=$({ grep -o '^--- FAIL: [A-Za-z0-9_]*' "$tmp/log" || true; } | cut -d' ' -f3 | sort -u | tr '\n' ' ')
		echo "killed    $name  [${by:-panic or timeout }]"
		killed=$((killed + 1))
	fi
}

# ---- PR 15: Kernel.drain, lemma L2 (ROADMAP "Sorted event batches") ----
sim=./internal/sim
mutant "sim drain: further members fire without the bound" internal/sim/kernel.go \
	's|!keyLess(next.at, next.seq, k.boundAt, k.boundSeq) {|false {|' \
	$sim 'TestBatchMatchesScheduleArg'
mutant "sim drain: bound not seeded by a peek after the pop" internal/sim/kernel.go \
	's|if min := k.peek(); min != nil {|if min := k.peek(); false \&\& min != nil {|' \
	$sim 'TestBatchMatchesScheduleArg'
mutant "sim push: a callback's push does not lower the bound" internal/sim/kernel.go \
	's|if keyLess(ev.at, ev.seq, k.boundAt, k.boundSeq) {|if false \&\& keyLess(ev.at, ev.seq, k.boundAt, k.boundSeq) {|' \
	$sim 'TestBatchMatchesScheduleArg'

# ---- PR 16: DCF.freeze, lemma (a) (ROADMAP "Per-backoff DCF timer") ----
mac=./internal/mac
# (Slot time is d.cfg.SlotTime before PR 25 and the constant slotTime after;
# the edit matches both, so REV= runs of the parent read the same.)
mutant "mac freeze: a boundary shared with the freezer does not count" internal/mac/dcf.go \
	's#int((left+\(d\.cfg\.SlotTime\|slotTime\)-1)/\1)#int(left/\1+1)#' \
	$mac 'TestBackoff'
mutant "mac freeze: no max(1, ...) for a still-pending expiry" internal/mac/dcf.go \
	's|d.backoff = max(1, int(\(.*\)))$|d.backoff = int(\1)|' \
	$mac 'TestBackoff'
mutant "mac freeze: elapsed slots are not subtracted" internal/mac/dcf.go \
	's|d.backoff = max(1, int(.*|_ = left|' \
	$mac 'TestBackoff'

# ---- PR 19: Lane.Step (ROADMAP "Branch-free NaS lane kernel") ----
ca=./internal/ca
caTests='TestLaneMatchesReference|TestRoadMatchesReference|TestGapsMaterialiseAtTheRightStep'
mutant "ca step: pass 1 walks from slot 0, not from head" internal/ca/lane.go \
	's|l.rules(l.head, len(l.pos), 0)|l.rules(0, len(l.pos), 0)|;s|c = l.rules(0, l.head, c)|c = l.rules(0, 0, c)|' \
	$ca "$caTests"
mutant "ca gaps: the seam difference is not lifted by L" internal/ca/lane.go \
	's|g + length&(g>>31)|g + 0*length\&(g>>31)|' \
	$ca "$caTests"
mutant "ca AddSignal: appends without materialising the gaps first" internal/ca/signal.go \
	'/^\tl.readGaps()$/d' \
	$ca "$caTests"
mutant "ca step: does not mark the gaps stale" internal/ca/lane.go \
	'/^\tl.gapSigs = -1$/d' \
	$ca "$caTests"
mutant "ca step: ignores a signal added since the gaps were computed" internal/ca/lane.go \
	's|^\tl.ruleGaps()$|\tl.readGaps()|' \
	$ca "$caTests"
mutant "ca NewLane: the placement's Perm loop drops the displaced site" internal/ca/lane.go \
	's|^\t\t\tm\[i\] = m\[j\]$|\t\t\tm[i] = int32(j)|' \
	$ca "$caTests"

# ---- PR 13: olsr flush evaluates at τ (ROADMAP "Stamp / materialize") ----
mutant "olsr materialize: kernels evaluated at now instead of τ" internal/routing/olsr/olsr.go \
	's#r.recomputeDense(r.lastRecompute\(, run\)\{0,1\})#r.recomputeDense(r.now()\1)#' \
	./internal/routing/olsr 'TestDeferredMatchesEagerTrajectory'

# ---- PR 25: parameters that became constants, pinned by behaviour ----
# Each edit also matches the normalize() default it replaced; before PR 25 the
# MAC tests compared against DCF.Config() and no AODV test timed the ring
# search, so at REV=<parent> these three survive.
mutant "mac: long retry limit 4 -> 5" internal/mac/dcf.go \
	's/\(c\.LongRetry = \|longRetryLimit *= \)4/\15/' \
	$mac 'TestCTSTimeoutRetriesWithLongLimit'
mutant "mac: short retry limit 7 -> 8" internal/mac/dcf.go \
	's/\(c\.RetryLimit = \|shortRetryLimit *= \)7/\18/' \
	$mac 'TestRetryExhaustionReportsFailure'
mutant "aodv ring search: TTL threshold 7 -> 9" internal/routing/aodv/aodv.go \
	's/\(c\.TTLThreshold = \|ttlThreshold *= \)7$/\19/' \
	./internal/routing/aodv 'TestNoRouteDropsAfterRetries'

# ---- PR 26: packets are counted where they cross the node (ROADMAP
# "Packets are counted at the node"). Before PR 26 node.go has neither
# clause, so at REV=<parent> both rows read BROKEN. ----
mutant "netsim SendFrame: forward counted at the originator" internal/netsim/node.go \
	's|} else if p.Hops > 0 {|} else if p.Hops >= 0 {|' \
	./internal/netsim 'TestEndToEndFloodDelivery'
mutant "netsim SendFrame: control not counted for unicasts" internal/netsim/node.go \
	's|if p.Kind == KindControl {|if p.Kind == KindControl \&\& next == BroadcastID {|' \
	'./cmd/cavenet ./internal/fault' 'TestGolden|TestCrashKeepsControlOverhead'

# ---- math/rand's source seeded by powers (ROADMAP "Streams seeded by
# powers"), one row per lemma clause of lagged.Seed. A revision without
# internal/rng/lagged.go reads BROKEN on all three rows. ----
rng=./internal/rng
mutant "rng seed: power index off by one" internal/rng/lagged.go \
	's|k := 20 + 3\*i|k := 19 + 3*i|' \
	$rng 'TestStreamMatchesMathRand'
mutant "rng mulmod: the fold's final - m dropped" internal/rng/lagged.go \
	'/^\t\tr -= lfMod$/d' \
	$rng 'TestStreamMatchesMathRand'
mutant "rng init: the cooked recovery's undo steps the pointers forward" internal/rng/lagged.go \
	's|(l.tap+1)%lfLen, (l.feed+1)%lfLen|(l.tap+lfLen-1)%lfLen, (l.feed+lfLen-1)%lfLen|' \
	$rng 'TestStreamMatchesMathRand'

# ---- the register built at the draw after the prefix (ROADMAP "Streams
# build their register at the 129th draw"): the prefix lemma, the build's
# replay, Seed's reset and the lemma's bound. A revision whose lagged source
# seeds the register in Seed reads BROKEN on every row. Serving one draw
# more from the prefix (a < made <=) is an equivalent mutant below the
# bound, so it has no row. ----
mutant "rng prefix: the feed slot off by one" internal/rng/lagged.go \
	's|word(x, lfLen-lfTap-k) + |word(x, lfLen-lfTap-k-1) + |' \
	$rng 'TestStreamMatchesMathRand'
mutant "rng build: the prefix's draws not replayed" internal/rng/lagged.go \
	's|^\tfor range l.n {$|\tfor range 0 {|' \
	$rng 'TestStreamMatchesMathRand'
mutant "rng Seed: a built register kept" internal/rng/lagged.go \
	'/^\tl.vec = nil$/d' \
	$rng 'TestSeedResetsRegister'
mutant "rng prefix: lfLazy raised past the tap, to 300" internal/rng/lagged.go \
	's|^\tlfLazy = 128$|\tlfLazy = 300|' \
	$rng 'TestStreamMatchesMathRand'

# ---- the event queue (ROADMAP "One event queue"): the heap's (time, seq)
# order, the scan over a node's four children, the drop of stale entries
# and the compaction that bounds them. A revision with the calendar queue
# reads BROKEN on all four rows. ----
queueTests='^(TestQueue[A-Za-z]*|TestKernelCancelChurnMemoryStable)$'
mutant "sim queue: the sift compares time only" internal/sim/queue.go \
	's|_, borrow := bits.Sub64(a.seq, b.seq, 0)|borrow := uint64(0)|' \
	$sim "$queueTests"
mutant "sim queue: the child scan stops one child short" internal/sim/queue.go \
	's|min(c+4, n)|min(c+3, n)|' \
	$sim "$queueTests"
mutant "sim queue: a stale entry fires" internal/sim/queue.go \
	's|for len(q.es) > 0 \&\& !q.es\[0\].h.live() {|for false \&\& len(q.es) > 0 {|' \
	$sim "$queueTests"
mutant "sim queue: compaction never runs" internal/sim/queue.go \
	's|if q.stale > q.live()+deadSlack {|if false \&\& q.stale > q.live()+deadSlack {|' \
	$sim "$queueTests"

# ---- sim.TimerSet, the clauses at Kernel.popDue (ROADMAP "Neighbour
# liveness is one queue entry per router"): the list kept in key order, the
# entry settled against the head, and Stop's unlink. A revision whose set
# keeps a registration heap reads BROKEN on the list rows. The "inserting
# at the head" edit mirrors link (head <-> tail, prev <-> next), now in the
# list TimerSet shares with sim.HoldList (internal/sim/holdlist.go; a
# revision before the shared list reads BROKEN on that row); an item's key
# is .val. ----
setTests='TestTimerSetMatchesTimers|FuzzKernelDifferential'
mutant "sim timer set: a stale pop fires" internal/sim/timerset.go \
	's#h != noItem \&\& s.items\(\[h\]\|\.At(h)\)\(\.val\)\?\.at == s.ev.at \&\& s.items\(\[h\]\|\.At(h)\)\(\.val\)\?\.seq == s.ev.seq {#h != noItem {#' \
	$sim "$setTests"
mutant "sim timer set: Reset stops drawing k.seq" internal/sim/timerset.go \
	'/^\tk.seq++$/d' \
	$sim "$setTests"
mutant "sim timer set: a Reset inserts at the head" internal/sim/holdlist.go \
	'/^func (l \*holdList\[T\]) link/,/^}/{s/tail/@/g;s/head/tail/g;s/@/head/g;s/prev/@/g;s/next/prev/g;s/@/next/g}' \
	$sim "$setTests"
mutant "sim timer set: due() ignores seq" internal/sim/timerset.go \
	's# \&\& s.items\(\[h\]\|\.At(h)\)\(\.val\)\?\.seq == s.ev.seq {# {#' \
	$sim "$setTests"
mutant "sim timer set: a requeue keeps the popped key, not the head's" internal/sim/timerset.go \
	'/^\ts.ev.at, s.ev.seq = s.items\(\[s.head\]\|\.At(s.head)\)\(\.val\)\?\.at, s.items\(\[s.head\]\|\.At(s.head)\)\(\.val\)\?\.seq$/d' \
	$sim "$setTests"
mutant "sim timer set: Stop does not unlink" internal/sim/timerset.go \
	'/^func (s \*TimerSet) Stop/,/^}/{/s.unlink(i)/d}' \
	$sim "$setTests"
mutant "sim timer set: a stale pop advances Now()" internal/sim/kernel.go \
	's/if ev.set == nil || ev.set.due() {/if k.now = ev.at; ev.set == nil || ev.set.due() {/' \
	$sim "$setTests"

# ---- per-index state in pages (ROADMAP "Per-index state lives in pages"):
# the page and the offset At computes, and the page Append opens. The
# timer-set and route-table differentials kill them beside the Pages tests.
# A revision without internal/sim/pages.go reads BROKEN on all three rows. ----
pageTests='TestPages|TestTimerSetMatchesTimers|TestTableLazyPurgeMatchesEager'
pagePkgs="$sim ./internal/routing/aodv ./internal/routing/dymo"
mutant "sim Pages.At: the page shift off by one" internal/sim/pages.go \
	's|\[i>>pageShift\]|[i>>(pageShift+1)]|' \
	"$pagePkgs" "$pageTests"
mutant "sim Pages.At: the offset mask off by one" internal/sim/pages.go \
	's|\[i\&pageMask\]|[i\&(pageMask-1)]|' \
	"$pagePkgs" "$pageTests"
mutant "sim Pages.Append: a page opened one element late" internal/sim/pages.go \
	's|if p.n == int32(len(p.pages))\*pageLen {|if p.n == int32(len(p.pages))*pageLen+1 {|' \
	"$pagePkgs" "$pageTests"

# ---- the kernel's work counts (ROADMAP item 15(b)-(c)): two changes that
# keep every result byte and cost more queue work. TestWorkCounts sees them
# only through its kernel line, so at a revision without that line both rows
# read SURVIVED. ----
mutant "sim Batch.Append: always refuses" internal/sim/batch.go \
	's#if b == nil || at < b.members#if true || b == nil || at < b.members#' \
	./internal/scenario '^TestWorkCounts$'
mutant "sim TimerSet.Reset: cancels and re-pushes the entry on every Reset" internal/sim/timerset.go \
	'/^func (s \*TimerSet) Reset/,/^}/s#^\tif s.ev == nil {$#\tif s.ev != nil {\n\t\ts.ev.set = nil\n\t\tk.Cancel(Handle{ev: s.ev, gen: s.ev.gen})\n\t\ts.ev = nil\n\t\tk.extra++\n\t}\n\t{#' \
	./internal/scenario '^TestWorkCounts$'

# ---- the batch sort, the clauses at sim.radixSort (ROADMAP "Fan-out
# batches sort by radix"). A revision without insertionSort and radixSort
# reads BROKEN on every row. An insertion sort comparing time only with a
# strict < is an equivalent mutant (clause 2: members arrive in seq order,
# so keeping ties in place is the seq order); the row's time-only
# comparison lets ties shift past each other instead. ----
sortTests='TestSortMembersMatchesReference|TestBatchMatchesScheduleArg|FuzzKernelDifferential'
mutant "sim radixSort: the pass loop stops one digit short" internal/sim/batch.go \
	's|for shift := 0; shift < keyBits; shift += width {|for shift := 0; shift < keyBits-width; shift += width {|' \
	$sim "$sortTests"
mutant "sim radixSort: the scatter walks backwards, unstable" internal/sim/batch.go \
	's|^\t\tfor i := range src {$|\t\tfor i := len(src) - 1; i >= 0; i-- {|' \
	$sim "$sortTests"
mutant "sim insertionSort: compares time only" internal/sim/batch.go \
	'/^func insertionSort/,/^}/s|keyLess(m.at, m.seq, ms\[j-1\].at, ms\[j-1\].seq)|m.at <= ms[j-1].at|' \
	$sim "$sortTests"

# ---- one connectivity analysis (ROADMAP "One connectivity analysis").
# A revision without internal/metrics/components.go reads BROKEN on every
# row. The seen check dropped is the outer one: without the inner one the
# flood fill never ends. ----
metrics=./internal/metrics
mutant "metrics Components: a pair exactly at range is not linked" internal/metrics/components.go \
	's|positions\[u\]) <= rangeMeters|positions[u]) < rangeMeters|' \
	$metrics 'TestComponents'
mutant "metrics Components: the seen check dropped, a visited node starts a component" internal/metrics/components.go \
	's|if seen\[i\] {|if false {|' \
	$metrics 'TestComponents'
mutant "metrics linkGrid: query radius not padded" internal/metrics/components.go \
	's|const linkMargin = 1.001|const linkMargin = 1|' \
	$metrics 'TestComponents'

# ---- the invariant harness itself, and the drop causes its ledger and the
# metrics collector compare (ROADMAP "One packet event stream"). A revision
# with string drop reasons reads BROKEN on the cause rows. ----
check=./internal/scenario/check
mutant "check ledger: node:down forgotten as a fork witness" internal/scenario/check/ledger.go \
	's/ || e.Cause == netsim.CauseNodeDown//' \
	$check 'TestLedgerNodeDown'
mutant "check ledger: a link-failure drop is not a fork witness" internal/scenario/check/ledger.go \
	's/e.Cause == netsim.CauseLinkFailure || //' \
	$check 'TestLedgerCleanLifecycles|TestLedgerCompactsSettledEntries'
mutant "check ledger: the TTL-drop check tests the wrong cause" internal/scenario/check/ledger.go \
	's/if e.Cause == netsim.CauseTTL {/if e.Cause == netsim.CauseNoRoute {/' \
	$check 'TestLedgerCleanLifecycles|TestLedgerCatchesTTLAnomalies'
mutant "metrics collector: a no-forward-route drop is not unreachable" internal/metrics/collector.go \
	's/ || e.Cause == netsim.CauseNoForwardRoute//' \
	./internal/metrics 'TestCollectorUnreachable'
mutant "metrics collector: a drop renders its reason string" internal/metrics/collector.go \
	's|c.drops\[dropKey{e.Node.Router().Name(), e.Cause}\]++|c.drops[dropKey{e.Cause.Reason(e.Node.Router().Name()), e.Cause}]++|' \
	./internal/metrics 'TestEventCycleAllocFree'
mutant "check loops: the walk stops one hop early, on returning to its origin" internal/scenario/check/loops.go \
	's/if int(next) == dst {/if int(next) == dst || int(next) == src {/' \
	$check 'TestLoopsCatchesCrossNodeCycle'

# ---- the references PR 24 moved behind their in-package differentials,
# each row killed by its package's own tests. ----
mutant "spatial Nearest: a distance tie goes to the larger id" internal/spatial/grid.go \
	's|int(cand) < bestID|int(cand) > bestID|' \
	'./internal/spatial ./internal/routing/gpsr' 'TestGridNearestMatchesBruteForce|TestGreedyDifferential'
mutant "gpsr dropNeighbor: the id stays in the spatial index" internal/routing/gpsr/gpsr.go \
	'/^\tr.grid.Remove(int(id))$/d' \
	./internal/routing/gpsr 'TestGreedyDifferential'
mutant "phy cullMargin below 1" internal/phy/channel.go \
	's|const cullMargin = 1.001|const cullMargin = 0.9|' \
	./internal/phy 'TestChannelGridMatchesBruteForce|TestChannelCullReachesCellEdge'

# ---- exported means reached (ROADMAP "Exported means reached"): make rules
# checks the written rules. A revision without scripts/rules reads BROKEN on
# every row. ----
rules=./scripts/rules
mutant "rules reach: an exported func in internal/stats with no caller" internal/stats/summary.go \
	'$a func Unreached() {}' \
	$rules 'TestRules'
mutant "rules map order: a range over a map loses its order-free reason" internal/metrics/collector.go \
	's|for k, v := range c.drops { // order-free: an integer sum per reason|for k, v := range c.drops {|' \
	$rules 'TestRules'
mutant "rules rand: rand.New in internal/ca" internal/ca/lane.go \
	'$a var _ = rand.New(nil)' \
	$rules 'TestRules'
mutant "rules timers: a map[int]*sim.Timer field" internal/netsim/reactive.go \
	's|^\tneighbours  *\*sim.TimerSet|\tlost map[int]*sim.Timer\n&|' \
	$rules 'TestRules'
mutant "rules counters: a router reads its node's NodeCounters" internal/routing/gpsr/gpsr.go \
	's|^func (r \*Router) sendBeacon() {$|&\n\t_ = r.node.Counters()|' \
	$rules 'TestRules'
mutant "rules config: an exported aodv.Config field nobody sets" internal/routing/aodv/aodv.go \
	's|^\tNoExpandingRing bool$|&\n\tUnset bool|' \
	$rules 'TestRules'

# ---- the node-id interner (ROADMAP "Interning is O(ids heard)"): one
# open-addressing table. A revision with the direct slice reads BROKEN on
# both rows. ----
internTests='^(TestInterner|FuzzInterner)$'
mutant "netsim Interner: the probe matches any occupied slot" internal/netsim/interner.go \
	's|^\t\tif s.id == k {$|\t\tif true {|' \
	./internal/netsim "$internTests"
mutant "netsim Interner: the rehash numbers ids by slot, not by the index they hold" internal/netsim/interner.go \
	's|^\tfor _, s := range old {$|\tfor j, s := range old {|;s|^\t\t\tin.put(s)$|\t\t\tin.put(internSlot{s.id, int32(j) + 1})|' \
	./internal/netsim "$internTests"

# ---- frames die at their last hearing (ROADMAP "Frames die at their last
# hearing"): the PHY frame's live count, and the MAC's payload hand-back
# behind it. A revision without the count reads BROKEN on all three rows. ----
frameTests='^(TestFrameDiesOnceAtLastHearing|TestShortFrameEndsBeforeLaterStarts)$'
mutant "phy frame: the live count starts at 0, not 1 for the transmission" internal/phy/channel.go \
	's|, src: r, live: 1})$|, src: r, live: 0})|' \
	./internal/phy "$frameTests"
mutant "phy frame: a signal is not counted, so the frame is recycled before its far receiver's end" internal/phy/channel.go \
	'/^\tf.live++$/d' \
	./internal/phy "$frameTests"
mutant "mac broadcast: the payload is handed back at tx-done" internal/mac/dcf.go \
	'0,/d.handBack(Upper.MACSendDone, d.finishJob())/s//job := d.finishJob(); d.upper.MACSendDone(job.to, job.payload)/' \
	'./internal/mac ./internal/netsim' '^(TestPayloadHandedBackAfterLastReceiver|TestCrashMidBroadcastReplays)$'

# ---- OLSR's ANSN moves only when the MPR selector set does (RFC 3626 §9.3,
# ROADMAP item 1(b)). A revision without the test runs nothing here and
# reads SURVIVED. ----
mutant "olsr handleHello: every selecting HELLO bumps the ANSN again" internal/routing/olsr/olsr.go \
	's#^\t\tr.selectors\[from\] = \(now + neighborHold\|s\)$#\t\tr.selectors[from] = \1; r.ansn++#' \
	./internal/routing/olsr '^TestANSNBumpsOnlyWhenSelectorsChange$'

# ---- the last two references with an exported switch moved into their
# packages' tests (ROADMAP "No exported reference switches"): one row per
# clause of PR 13's deferral lemma at recomputeNow and of PR 16's freeze
# arithmetic. A revision before the move reads SURVIVED on the hello-window,
# ETX and purge rows: its tests did not kill them in-package. The ETX row is
# out of any differential's reach (both sides run the same handler and skip
# the same stamp), hence its own test. ----
olsr=./internal/routing/olsr
mutant "olsr sendHello: the hello windows close before the read" internal/routing/olsr/olsr.go \
	'/^func (r \*Router) sendHello() {$/,/^}$/{s#^\tr.\(flush()\|materialize(want)\)$#\tfor _, fi := range r.linkList {\n\t\tif lt := \&r.slot(fi).link; r.cfg.ETX \&\& lt.lq != nil {\n\t\t\tlt.lq.tick()\n\t\t}\n\t}\n\tr.\1#;s|^\t\t\t\tlt.lq.tick()$|\t\t\t\t_ = lt|}' \
	$olsr 'TestDeferredMatchesEagerTrajectory|FuzzDeferredMatchesEager'
mutant "olsr handleHello: an ETX quality move left unreported" internal/routing/olsr/olsr.go \
	's/r.noteChange(material || r.cfg.ETX)/r.noteChange(material)/' \
	$olsr 'TestETXQualityMoveReroutesAtNextRead'
mutant "olsr LinkFailure: the failed link left unreported" internal/routing/olsr/olsr.go \
	'/^func (r \*Router) LinkFailure/,/^}/s|r.noteChange(material)|r.noteChange(material \&\& false)|' \
	$olsr 'TestLinkFailureFailsOverSameRecompute|TestDeferredMatchesEagerTrajectory|FuzzDeferredMatchesEager'
mutant "olsr purge: an expiry left unreported" internal/routing/olsr/olsr.go \
	'/^func (r \*Router) purge()/,/^}/s|r.noteChange(material)|r.noteChange(material \&\& false)|' \
	$olsr 'TestExpiryPurgesDeadNeighbor|TestDeferredMatchesEagerTrajectory|FuzzDeferredMatchesEager'
mutant "olsr handleTC: a topology change left unreported" internal/routing/olsr/olsr.go \
	's|r.noteChange(r.processTC(msg, now))|r.processTC(msg, now); r.noteChange(false)|' \
	$olsr 'TestRecomputeCoalescedPerTimestamp|TestRoutesViaTopology|TestDeferredMatchesEagerTrajectory|FuzzDeferredMatchesEager'
mutant "olsr markDirty: no nudge past a timestamp a read already stamped" internal/routing/olsr/olsr.go \
	's|at = r.lastRecompute + 1|at = r.lastRecompute|' \
	$olsr 'TestRecomputeCoalescedPerTimestamp'

# ---- OLSR's per-part reads: a stamp leaves the MPR set and the routing
# table pending apart, and each reader builds only its own part (ROADMAP
# "MPR and routes materialise on demand, separately"). A revision before
# the split reads BROKEN on every row. ----
mutant "olsr sendHello: under ETX the emission builds only the MPR set" internal/routing/olsr/olsr.go \
	's#^\t\twant |= partRoutes$#\t\twant |= 0#' \
	$olsr 'TestETXQualityMoveReroutesAtNextRead|FuzzDeferredMatchesEager'
mutant "olsr recomputeNow: a stamp leaves only the routes pending" internal/routing/olsr/olsr.go \
	's#r.pending = partMPR | partRoutes#r.pending = partRoutes#' \
	$olsr 'TestDenseMatchesOracle|TestDeferredMatchesEagerTrajectory|TestRecomputeCoalescedPerTimestamp'
mutant "olsr GatewayFor: reads the MPR set instead of the routes" internal/routing/olsr/hna.go \
	'/^func (r \*Router) GatewayFor/,/^}/s#r.materialize(partRoutes)#r.materialize(partMPR)#' \
	$olsr '^TestHNA'
mutant "olsr denseNeighbors: an MPR-only run writes distance-1 routes" internal/routing/olsr/dense.go \
	'/^func (r \*Router) denseNeighbors/,/^}/s#if routes {#if true {#' \
	$olsr 'TestRecomputeCoalescedPerTimestamp|TestDeferredMatchesEagerTrajectory|FuzzDeferredMatchesEager'
mutant "mac freeze: the slots owed round down" internal/mac/dcf.go \
	's#int((left+\(d\.cfg\.SlotTime\|slotTime\)-1)/\1)#int(left/\1)#' \
	$mac 'TestBackoff'

# ---- one discovery buffer for AODV and DYMO (ROADMAP "Reactive routers
# share one discovery buffer"): the walk a crash drains, the shared try count
# and the record pool. A revision without internal/netsim/discovery.go reads
# BROKEN on every row. ----
reactive='./internal/routing/aodv ./internal/routing/dymo'
mutant "netsim Discoveries.Each: searches walked in map order" internal/netsim/discovery.go \
	's|slices.Sort(dsts)|slices.Sort(dsts[:0])|' \
	"$reactive" 'TestEachBufferedAscendingDestinations'
mutant "netsim Discoveries.retry: one try more than RREQ_RETRIES/RREQ_TRIES allow" internal/netsim/discovery.go \
	's|if d.Tries >= discoveryTries {|if d.Tries > discoveryTries {|' \
	"$reactive" 'TestNoRouteDropsAfterRetries|TestUnreachableDropsAfterTries'
mutant "netsim Discoveries.Park: a recycled record keeps its last TTL" internal/netsim/discovery.go \
	's|d.Dst, d.Tries, d.TTL = p.Dst, 0, 0|d.Dst, d.Tries = p.Dst, 0|' \
	./internal/routing/aodv 'TestRecycledSearchRestartsRing'
# A router's Start resumes the searches a graceful shutdown halted; before
# PR 38 none did, and before the shared reactive machine the row reads
# BROKEN. A crashed node's fresh router opens searches for data originated
# while the node is down; they are armed, and the resume must leave them be.
mutant "netsim Reactive.Start: the searches a graceful shutdown halted are not resumed" internal/netsim/reactive.go \
	'/^\tm.discoveries.Resume()$/d' \
	"$reactive" 'TestGracefulRestartResumesSearch'
# Since the reboot wait a crashed router's extra request is silent, so the
# graceful case in netsim kills this row; before it, TestCrashKeepsControlOverhead.
mutant "netsim Discoveries.Resume: an armed search takes a second decision" internal/netsim/discovery.go \
	's|if d := ds.open\[dst\]; d != nil \&\& !d.timer.Active() {|if d := ds.open[dst]; d != nil {|' \
	'./internal/fault ./internal/netsim' 'TestCrashKeepsControlOverhead|TestResumeLeavesSearchOpenedWhileDown'

# ---- one route table for AODV and DYMO (ROADMAP "One route table for AODV
# and DYMO"): the lazy purge's two clauses and the max lifetimes the
# constant-lifetime lemma rests on. A revision without
# internal/netsim/routes.go reads BROKEN on every row. ----
mutant "netsim Routes.stateValid: the lastPurge flip ignored" internal/netsim/routes.go \
	's|e.valid \&\& e.expiresAt <= t.lastPurge \&\& |e.valid \&\& false \&\& |' \
	"$reactive" 'TestTableLazyPurgeMatchesEager'
mutant "netsim Routes.stateValid: no write guard, a purge at the accept's instant flips it" internal/netsim/routes.go \
	's| \&\& e.accepted != t.purges {$| {|' \
	./internal/routing/aodv 'TestTableZeroLifetimeAtPurge'
mutant "netsim Routes.Update: the accept branch assigns the lifetime instead of taking the max" internal/netsim/routes.go \
	's|^\tt.extend(e, lifetime)$|\te.expiresAt = t.kernel.Now() + lifetime|' \
	./internal/routing/aodv 'TestTableLazyPurgeMatchesEager'

# ---- the side-effect-free table read (ROADMAP item 19(a)): Reactive.Table reads
# through Routes.Peek. A revision without Peek reads BROKEN. ----
mutant "netsim Routes.Peek: the expiry flip restored" internal/netsim/routes.go \
	's/^\tif !e.valid || t.kernel.Now() >= e.expiresAt {$/\tif e.valid = e.valid \&\& t.kernel.Now() < e.expiresAt; !e.valid {/' \
	./internal/netsim '^TestTableReadLeavesRunAlone$'

# ---- the unknown-sequence-number clause of RFC 3561 §6.2 (ROADMAP "One
# reactive router"): a previous-hop install keeps the entry's sequence
# number. A revision before the clause reads BROKEN. ----
mutant "netsim Routes.Update: information without a sequence number overwrites a known one" internal/netsim/routes.go \
	's|^\tif !isNew \&\& !seqKnown {$|\tif false \&\& !isNew \&\& !seqKnown {|' \
	./internal/netsim '^TestUnknownSeqKeepsKnownSeq$'

# ---- one reactive router (ROADMAP "One reactive router"): the machine's
# own clauses in internal/netsim/reactive.go and each protocol's dedup
# hold. A revision without reactive.go reads BROKEN on the machine rows. ----
mutant "netsim Reactive.Forward: the previous-hop route is not refreshed" internal/netsim/reactive.go \
	'/^\tm.Routes.Refresh(from, m.proto.RouteLifetime)$/d' \
	./internal/netsim '^TestForwardRefreshesEveryRouteItUses$'
mutant "netsim Reactive.ApplyRERR: AODV passes on routes without precursors" internal/netsim/reactive.go \
	's/(propagate || !m.proto.Precursors)/(propagate || true)/' \
	./internal/scenario '^TestWorkCounts$'
mutant "netsim Reactive.purge: flood dedup entries never expire" internal/netsim/reactive.go \
	's|^\tm.expireFloods(m.Node.Kernel().Now())$|\t_ = m.seen|' \
	./internal/netsim '^TestSeenTableSteadyOverLongRun$'
mutant "aodv: DYMO's 10 s dedup hold instead of PATH_DISCOVERY_TIME" internal/routing/aodv/aodv.go \
	's|SeenHold:      2 \* netTraversalTime,|SeenHold:      10 * sim.Second,|' \
	./internal/routing/aodv '^TestSeenEntriesExpire$'
mutant "dymo: AODV's 2.8 s PATH_DISCOVERY_TIME instead of its dedup hold" internal/routing/dymo/dymo.go \
	's|SeenHold:      seenHold,|SeenHold:      2800 * sim.Millisecond,|' \
	./internal/routing/dymo '^TestSeenEntriesExpire$'

# A router rebuilt by a crash waits out RFC 3561 §6.13's DELETE_PERIOD
# (draft-14's ROUTE_DELETE_TIMEOUT) before it sends; data it is handed
# meanwhile restarts the wait.
mutant "netsim Reactive.Start: a rebuilt router does not wait before it sends" internal/netsim/reactive.go \
	'/^func (m \*Reactive) Start() {$/,/^}$/{/m.quietUntil = /d}' \
	"$reactive" 'TestRebootWaits'
mutant "netsim Reactive.Forward: data in the reboot wait does not restart it" internal/netsim/reactive.go \
	'/^func (m \*Reactive) Forward(/,/^}$/{/m.quietUntil = /d}' \
	"$reactive" 'TestRebootWaits'

# ---- constant-hold soft state expires from lists (ROADMAP "Constant-hold
# soft state expires from lists"): the 2-hop merge's cursor, a refresh's
# move to the tail, the purge's boundary and the selector list's refresh.
# A revision without mergeTwoHop or the selector list reads BROKEN. ----
twoHopTests='TestTwoHopMatchesReference|FuzzTwoHopMatchesReference'
mutant "olsr mergeTwoHop: a refresh does not move its tuple to the tail" internal/routing/olsr/olsr.go \
	'/^\t\t\tr.twoHopExp.Refresh(i)$/d' \
	$olsr "$twoHopTests"
mutant "olsr mergeTwoHop: the merge restarts only on th < prev" internal/routing/olsr/olsr.go \
	's|^\t\tif th <= prev {$|\t\tif th < prev {|' \
	$olsr "$twoHopTests"
mutant "olsr expireTwoHop: purge stops at until < now" internal/routing/olsr/olsr.go \
	'/^func (r \*Router) expireTwoHop(/,/^}/s|^\t\tif t.until > now {$|\t\tif t.until >= now {|' \
	$olsr "$twoHopTests"
mutant "olsr handleHello: a selector's refresh does not move it to the tail" internal/routing/olsr/olsr.go \
	'/^\t\t\tr.selExp.Refresh(s.item)$/d' \
	$olsr '^TestANSNBumpsOnlyWhenSelectorsChange$'

# ---- OLSR's 2-hop and topology tuples are hold-list items chained per key
# (ROADMAP "OLSR's tuples are hold-list items"): where a chain insert lands,
# the unlink at expiry, an ANSN discard's removal and the TC merge's
# restart. A revision without the chains reads BROKEN. ----
topoTests='TestTopologyMatchesReference|FuzzTopologyMatchesReference'
mutant "olsr mergeTwoHop: a new tuple lands one position late in its chain" internal/routing/olsr/olsr.go \
	's|^\t\t\t\*at = r.twoHopExp.Add(|\t\t\tif i != noTuple {\n\t\t\t\tat, i = \&r.twoHopExp.At(i).next, r.twoHopExp.At(i).next\n\t\t\t}\n&|' \
	$olsr "$twoHopTests"
mutant "olsr expireTwoHop: the unlink walk stops one tuple early" internal/routing/olsr/olsr.go \
	'/^func (r \*Router) expireTwoHop(/,/^}/s|^\t\tfor \*at != i {$|\t\tfor *at != i \&\& r.twoHopExp.At(*at).next != i {|' \
	$olsr "$twoHopTests"
mutant "olsr seekTopo: an ANSN discard unlinks its tuple but skips Remove" internal/routing/olsr/olsr.go \
	'/^func (r \*Router) seekTopo(/,/^}/{/^\t\t\tr.topoExp.Remove(i)$/d}' \
	$olsr "$topoTests"
mutant "olsr processTC: the merge restarts only on dest < prev" internal/routing/olsr/olsr.go \
	's|^\t\tif dest <= prev {$|\t\tif dest < prev {|' \
	$olsr "$topoTests"

# ---- OLSR's duplicate tuples are hold-list items chained per originator
# (ROADMAP "Duplicate tuples are chained per originator"): the lookup's
# walk and its tail-first check, the tail a chain keeps when expiry
# empties it, where a new tuple is linked, and the purge's boundary. A
# revision without the chains reads BROKEN. ----
dupTests='TestDupsMatchReference|FuzzDupsMatchReference'
mutant "olsr isDup: the lookup starts at the chain's second tuple" internal/routing/olsr/olsr.go \
	'/^func (r \*Router) isDup(/,/^}/s|^\t\tif r.dups.At(i).seq == seq {$|\t\tif i != s.dup \&\& r.dups.At(i).seq == seq {|' \
	$olsr "$dupTests"
mutant "olsr isDup: the newest tuple is not tried before the walk, which stops short of it" internal/routing/olsr/olsr.go \
	'/^func (r \*Router) isDup(/,/^}/s|^\tif r.dups.At(s.dupTail).seq == seq {$|\tif false {|' \
	$olsr "$dupTests"
mutant "olsr expireDups: a chain emptied by expiry keeps its dupTail" internal/routing/olsr/olsr.go \
	'/^func (r \*Router) expireDups(/,/^}/{/^\t\t\ts.dupTail = noTuple$/d}' \
	$olsr "$dupTests"
mutant "olsr recordDup: a new tuple is linked at its chain's head" internal/routing/olsr/olsr.go \
	'/^func (r \*Router) recordDup(/,/^}/{s|^\t\tr.dups.At(s.dupTail).next = i$|\t\tr.dups.At(i).next, s.dup = s.dup, i|;s|^\ts.dupTail = i$|\tif s.dupTail == noTuple {\n\t\ts.dupTail = i\n\t}|}' \
	$olsr "$dupTests"
mutant "olsr expireDups: purge stops at until < now" internal/routing/olsr/olsr.go \
	'/^func (r \*Router) expireDups(/,/^}/s|^\t\tif t.until > now {$|\t\tif t.until >= now {|' \
	$olsr "$dupTests"

# ---- loop freedom at every route write (ROADMAP item 19): Update tells
# the watcher of a keep-branch write too, and the walk goes all the way to
# the writer. A revision without the write-time check reads BROKEN. ----
mutant "netsim Routes.Update: the keep branch tells no write watcher" internal/netsim/routes.go \
	'/^func (t \*Routes) Update(/,/^}/{/^\t\t\tt.wrote(e)$/d}' \
	$check '^TestWriteLoopsCatchesKeepBranch$'
mutant "check WriteLoops: the walk stops one hop short of the writer" internal/scenario/check/loops.go \
	's/if cur, _, ok = q.Table(dst); !ok {/if cur, _, ok = q.Table(dst); !ok || cur == writer {/' \
	$check '^TestWriteLoopsCatchesCycleAtWrite$'

# ---- all soft state is one hold list (ROADMAP "All soft state is one hold
# list"): an early end of a lifetime is a Remove of every item the entry
# holds (OLSR's link failure, its link and symmetric items, GPSR's
# eviction), the RREQ flood set's purge boundary and the extent of its
# walk, and the live count OLSR's TableStats.Items is built from. A
# revision before the lists reads BROKEN. ----
linkTests='TestLinkSetMatchesReference|FuzzLinkSetMatchesReference'
mutant "olsr LinkFailure: the deadlines are zeroed and the link left present" internal/routing/olsr/olsr.go \
	'/^func (r \*Router) LinkFailure(/,/^}/s|^\t\tr.removeLink(fi)$|\t\tlt := \&r.slot(fi).link\n\t\tlt.symUntil, lt.asymUntil, lt.until = 0, 0, 0|' \
	$olsr "$linkTests"
mutant "olsr removeLink: the symmetric item stays linked" internal/routing/olsr/olsr.go \
	'/^func (r \*Router) removeLink(/,/^}/{/^\t\tr.symExp.Remove(lt.symItem)$/d}' \
	$olsr "$linkTests"
mutant "gpsr dropNeighbor: an evicted neighbor's item stays in the list" internal/routing/gpsr/gpsr.go \
	's|^\tr.expiry.Remove(nb.item)$|\t_ = nb|' \
	./internal/routing/gpsr '^TestNeighborExpiryMatchesReference$'
mutant "netsim expireFloods: purge stops at until < now" internal/netsim/reactive.go \
	'/^func (m \*Reactive) expireFloods(/,/^}/s|^\t\tif m.seen.At(i).until > now {$|\t\tif m.seen.At(i).until >= now {|' \
	./internal/netsim '^TestFloodSetMatchesReference$'
mutant "netsim Seen: the walk stops one flood short of the oldest" internal/netsim/reactive.go \
	'/^func (m \*Reactive) Seen(/,/^}/s|n < m.nSeen;|n < m.nSeen-1;|' \
	./internal/netsim '^TestFloodSetMatchesReference$'
mutant "sim HoldList.Remove: a removed item stays counted" internal/sim/holdlist.go \
	'/^\tl.live--$/d' \
	$sim '^TestHoldListMatchesOrder$'

# ---- serve cache keys (ROADMAP "A grid hashes each scenario once"): a
# run's key is its scenario's digest, which leaves out the seed and the
# protocol, plus the protocol, the cell seed and the checked flag; each
# scenario's runs take that scenario's digest. A revision without runKeys
# reads BROKEN. ----
serve=./internal/serve
keyTests='TestCacheKeyPartition|TestCheckedRunsKeySeparately|TestProtocolAxisMissesCache'
mutant "serve cacheKey: the key omits checked" internal/serve/cache.go \
	'/strconv.AppendBool(append(b, .|.), checked)$/d' \
	$serve "$keyTests"
mutant "serve cacheKey: the key omits the protocol" internal/serve/cache.go \
	'/^\tb = append(append(b, .|.), p...)$/d' \
	$serve "$keyTests"
mutant "serve runKeys: the digest is not refreshed per scenario" internal/serve/cache.go \
	's|if j%grid.Trials == 0 {|if j == 0 {|' \
	$serve "$keyTests"

echo "mutate: $killed killed, $survived survived, $broken broken"
[ "$survived" -eq 0 ] && [ "$broken" -eq 0 ]
