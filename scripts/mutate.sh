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
# the script exits non-zero. A row whose edit no longer
# changes its file, whose mutant does not compile, or whose tests do not
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
		# Top-level tests that failed; a panic or a hang names none.
		by=$(grep -o '^--- FAIL: [A-Za-z0-9_]*' "$tmp/log" | cut -d' ' -f3 | sort -u | tr '\n' ' ')
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
mutant "mac freeze: a boundary shared with the freezer does not count" internal/mac/dcf.go \
	's|int((left+d.cfg.SlotTime-1)/d.cfg.SlotTime)|int(left/d.cfg.SlotTime+1)|' \
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

# ---- PR 13: olsr flush evaluates at τ (ROADMAP "Stamp / materialize") ----
mutant "olsr flush: kernels evaluated at now instead of τ" internal/routing/olsr/olsr.go \
	's|r.recomputeDense(r.lastRecompute)|r.recomputeDense(r.now())|' \
	./internal/routing/olsr 'TestDeferredMatchesEagerTrajectory'

# ---- the invariant harness itself ----
check=./internal/scenario/check
mutant "check ledger: node:down forgotten as a fork witness" internal/scenario/check/ledger.go \
	's/ || reason == "node:down"//' \
	$check 'TestLedgerNodeDown'
mutant "check loops: the walk stops one hop early, on returning to its origin" internal/scenario/check/loops.go \
	's/if int(next) == dst {/if int(next) == dst || int(next) == src {/' \
	$check 'TestLoopsCatchesCrossNodeCycle'

# ---- the references this PR moved behind their in-package differentials.
# The run-level identity tests in ./internal/scenario exist only before it:
# there a row may be killed by either; after, by the differential alone.
mutant "aodv dense update: entry not registered in the ExpiryHeap" internal/routing/aodv/dense.go \
	's|t.exp.Push(x, e.expiresAt)|_ = x|' \
	'./internal/routing/aodv ./internal/scenario' 'TestTableLazyPurgeMatchesEager|TestDataPlaneOracleRunIdentity'
mutant "dymo stateValid: ignores lastPurge" internal/routing/dymo/dense.go \
	's|if e.expiresAt <= t.lastPurge {|if false {|' \
	'./internal/routing/dymo ./internal/scenario' 'TestTableLazyPurgeMatchesEager|TestDataPlaneOracleRunIdentity'
mutant "spatial Nearest: a distance tie goes to the larger id" internal/spatial/grid.go \
	's|int(cand) < bestID|int(cand) > bestID|' \
	'./internal/spatial ./internal/routing/gpsr ./internal/scenario' 'TestGridNearestMatchesBruteForce|TestGreedyDifferential|TestOracleRunsIdentical|TestGPSROracleRunIdentity'
mutant "gpsr dropNeighbor: the id stays in the spatial index" internal/routing/gpsr/gpsr.go \
	'/^\tr.grid.Remove(int(id))$/d' \
	'./internal/routing/gpsr ./internal/scenario' 'TestGreedyDifferential|TestOracleRunsIdentical|TestGPSROracleRunIdentity'
mutant "sim calendar: positional insert compares time only" internal/sim/calendar.go \
	's|return eventLess(ev, act\[i\])|return ev.at < act[i].at|' \
	"$sim ./internal/scenario" 'TestCalendarMatchesHeapOracle|TestBatchMatchesScheduleArg|TestKernelOracleRunIdentity'
mutant "phy cullMargin below 1" internal/phy/channel.go \
	's|const cullMargin = 1.001|const cullMargin = 0.9|' \
	./internal/phy 'TestChannelGridMatchesBruteForce|TestChannelCullReachesCellEdge'

echo "mutate: $killed killed, $survived survived, $broken broken"
[ "$survived" -eq 0 ] && [ "$broken" -eq 0 ]
