#!/usr/bin/env bash
# bench/README.md's A/B protocol ("Claiming a gain") as one command:
#
#   scripts/bench-ab.sh <workload> <base-rev> [pairs] [held-out-seed] [record.json]
#   make bench-ab W=urban_olsr BASE=HEAD~1 [OUT=docs/ab/NN-urban_olsr.json]
#
# Exports both sides into a temporary directory — <base-rev>'s committed
# files, and as the change a snapshot of this working tree's tracked and
# unignored files — so each builds in a fresh directory without VCS
# stamping, as the benchmark contract's driver does. (serve.CodeVersion,
# part of every cache key and submit response, would otherwise differ in
# length between the sides.) Then alternates
# `bench/run.sh --workload W --trace 0` parent/change for `pairs` pairs
# (default 10) at seed 1 and again at a held-out seed (default 47),
# swapping which side runs first every pair; edits made while it runs do
# not reach it. Prints every run, then per seed and end-to-end metric both
# sides' medians and quartiles, the pair wins, a verdict, and whether the
# result digests of the `-detail` reports agree. The verdict calls a side
# better only as bench/README.md's claim rule does: "lower" (or "HIGHER")
# when the median gap exceeds the parent's own quartile spread (IQR) AND
# the better side wins at least nine tenths of the pairs, ties counting
# for neither; "unresolved" when the gap exceeds the IQR but the wins fall
# short; "within" otherwise. With a record file it also writes the
# same evidence there as JSON: both revisions, and per seed and metric each
# side's summary (the bench record's n/min/q1/median/q3/max/values), the
# pair wins and losses, and each side's result digests. Exits non-zero when
# a run fails or digests differ; the verdict on the timings is the reader's.
#
# Every run first relinks its side with -ldflags=-randlayout=<n> added to
# GOFLAGS: the parent's run of pair p takes n = 2p-1 and the change's
# n = 2p, at both seeds, so a re-run repeats the layouts and no two runs of
# one pair share one. Function placement is then noise the pair statistics
# see instead of a fixed bias of one build per side; `bench-ab.sh <w> HEAD`
# compares a tree with itself and measures that noise. The run lines name
# each layout and the record lists them. Only the link re-runs, before the
# timed phase.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,36p' "$0" >&2
	exit 2
fi
workload=$1 base=$2 pairs=${3:-10} heldout=${4:-47} record=${5:-}
seconds=10
metrics="wall_s cpu_s setup_s alloc_mb peak_rss_mb"

if [ ! -f bench/run.sh ]; then
	echo "bench-ab: run from the root of a cavenet checkout" >&2
	exit 2
fi
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/change"
git archive "$base" | tar -x -C "$tmp/parent"
git ls-files -z --cached --others --exclude-standard |
	while IFS= read -r -d '' f; do [ ! -e "$f" ] || printf '%s\0' "$f"; done |
	xargs -0 cp --parents -t "$tmp/change"
# The change's name is the tree the snapshot was taken from, not whatever
# HEAD is by the time the record is written.
change=$(git rev-parse HEAD)
if [ -n "$(git status --porcelain)" ]; then
	change="$change+dirty"
fi

# layout <side> <pair>: the -randlayout seed of side's run in pair (see
# above).
layout() {
	if [ "$1" = parent ]; then echo $((2 * $2 - 1)); else echo $((2 * $2)); fi
}

# run <side> <dir> <seed> <pair>: one benchmark process; appends
# "side seed pair digest metric..." to $tmp/runs.
run() {
	local side=$1 dir=$2 seed=$3 pair=$4 out detail line digest vals="" n
	detail="$tmp/$side.$seed.$pair.json"
	n=$(layout "$side" "$pair")
	out=$(cd "$dir" && GOFLAGS="${GOFLAGS:+$GOFLAGS }-ldflags=-randlayout=$n" bash bench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0 --detail "$detail") || {
		echo "bench-ab: $side run of $workload at seed $seed exited non-zero" >&2
		exit 1
	}
	line=$(printf '%s\n' "$out" | tail -n 1)
	case $line in
	*'"correct":true'*) ;;
	*)
		echo "bench-ab: $side run failed verification: $line" >&2
		exit 1
		;;
	esac
	for m in $metrics; do
		vals="$vals $(printf '%s' "$line" | sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p")"
	done
	digest=$(grep -o '"digest": *"[0-9a-f]*"' "$detail" | grep -o '[0-9a-f]\{64\}')
	echo "$side $seed $pair $digest$vals" >>"$tmp/runs"
	echo "seed $seed pair $pair $side:$vals  digest ${digest:0:12}  layout $n"
}

echo "bench-ab: $workload, parent $(git rev-parse --short "$base") vs working tree, $pairs pairs at seeds 1 and $heldout ($metrics), randomized layouts"
for seed in 1 "$heldout"; do
	for pair in $(seq 1 "$pairs"); do
		if [ $((pair % 2)) -eq 1 ]; then
			run parent "$tmp/parent" "$seed" "$pair"
			run change "$tmp/change" "$seed" "$pair"
		else
			run change "$tmp/change" "$seed" "$pair"
			run parent "$tmp/parent" "$seed" "$pair"
		fi
	done
done

# Quartiles as Python's statistics.quantiles(values, n=4), the definition
# bench/README.md calibrates its spreads with.
stats='
	function quart(x, n, k,    pos, lo, f) {
		pos = k * (n + 1) / 4; lo = int(pos); f = pos - lo
		if (lo < 1) return x[1]
		if (lo >= n) return x[n]
		return x[lo] + f * (x[lo + 1] - x[lo])
	}
	function sorted(src, n, dst,    i, j, t) {
		for (i = 1; i <= n; i++) dst[i] = src[i]
		for (i = 2; i <= n; i++) {
			t = dst[i]
			for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]
			dst[j + 1] = t
		}
	}'
status=0
for seed in 1 "$heldout"; do
	echo
	echo "seed $seed"
	col=5
	for m in $metrics; do
		awk -v seed="$seed" -v col="$col" -v m="$m" "$stats"'
			$2 == seed && $1 == "parent" { p[$3] = $col; n = $3 > n ? $3 : n }
			$2 == seed && $1 == "change" { c[$3] = $col }
			END {
				for (i = 1; i <= n; i++) { if (c[i] < p[i]) wins++; else if (c[i] > p[i]) losses++ }
				sorted(p, n, ps); sorted(c, n, cs)
				pm = quart(ps, n, 2); cm = quart(cs, n, 2)
				iqr = quart(ps, n, 3) - quart(ps, n, 1)
				gap = pm - cm
				if (gap > iqr) verdict = 10 * wins >= 9 * n ? "lower: median gap beyond" : "unresolved: median lower beyond"
				else if (-gap > iqr) verdict = 10 * losses >= 9 * n ? "HIGHER: median gap beyond" : "unresolved: median higher beyond"
				else verdict = "within: median gap inside"
				printf "  %-12s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  %+.1f%%  change wins %d/%d (loses %d)  %s parent IQR %.3g\n",
					m, pm, quart(ps, n, 1), quart(ps, n, 3), cm, quart(cs, n, 1), quart(cs, n, 3),
					pm ? 100 * (cm - pm) / pm : 0, wins, n, losses, verdict, iqr
			}' "$tmp/runs"
		col=$((col + 1))
	done
	digests=$(awk -v seed="$seed" '$2 == seed { print $4 }' "$tmp/runs" | sort -u | wc -l)
	if [ "$digests" -eq 1 ]; then
		echo "  result digests: identical on all $((2 * pairs)) runs"
	else
		echo "  result digests: $digests DIFFERENT values across parent and change — the change moves results"
		status=1
	fi
done

# The record: the runs file summarised per seed and metric, in the bench
# record's field names where they overlap (commit, seed, end_to_end, n,
# min, q1, median, q3, max, values, digest), and each side's -randlayout
# seeds in pair order.
if [ -n "$record" ]; then
	awk -v workload="$workload" -v parent="$(git rev-parse "$base")" -v change="$change" \
		-v seeds="1 $heldout" -v metrics="$metrics" -v pairs="$pairs" -v seconds="$seconds" "$stats"'
		function side(x, n,    s, i, out) {
			sorted(x, n, s)
			out = sprintf("{\"n\": %d, \"min\": %.10g, \"q1\": %.10g, \"median\": %.10g, \"q3\": %.10g, \"max\": %.10g, \"values\": [",
				n, s[1], quart(s, n, 1), quart(s, n, 2), quart(s, n, 3), s[n])
			for (i = 1; i <= n; i++) out = out (i > 1 ? ", " : "") sprintf("%.10g", x[i])
			return out "]}"
		}
		function digests(sd, seed,    i, out, seen) {
			out = ""
			for (i = 1; i <= NR; i++)
				if (rs[i] == sd && rseed[i] == seed && !((rd[i]) in seen)) {
					seen[rd[i]] = 1
					out = out (out == "" ? "" : ", ") "\"" rd[i] "\""
				}
			return "[" out "]"
		}
		{ rs[NR] = $1; rseed[NR] = $2; rpair[NR] = $3; rd[NR] = $4; for (f = 5; f <= NF; f++) rv[NR, f] = $f + 0 }
		END {
			ns = split(seeds, sv, " "); nm = split(metrics, mv, " ")
			printf "{\n  \"workload\": \"%s\",\n  \"seconds\": %s,\n  \"pairs\": %d,\n", workload, seconds, pairs
			lp = ""; lc = ""
			for (i = 1; i <= pairs; i++) { lp = lp (i > 1 ? ", " : "") (2 * i - 1); lc = lc (i > 1 ? ", " : "") (2 * i) }
			printf "  \"layouts\": {\"parent\": [%s], \"change\": [%s]},\n", lp, lc
			printf "  \"parent\": {\"commit\": \"%s\"},\n  \"change\": {\"commit\": \"%s\"},\n  \"sets\": [\n", parent, change
			for (si = 1; si <= ns; si++) {
				printf "    {\n      \"seed\": %d,\n      \"end_to_end\": {\n", sv[si]
				for (mi = 1; mi <= nm; mi++) {
					delete p; delete c; n = 0; wins = 0; losses = 0
					for (i = 1; i <= NR; i++) {
						if (rseed[i] != sv[si]) continue
						if (rs[i] == "parent") { p[rpair[i]] = rv[i, 4 + mi]; n = rpair[i] > n ? rpair[i] : n }
						else c[rpair[i]] = rv[i, 4 + mi]
					}
					for (i = 1; i <= n; i++) { if (c[i] < p[i]) wins++; else if (c[i] > p[i]) losses++ }
					printf "        \"%s\": {\"parent\": %s, \"change\": %s, \"change_wins\": %d, \"change_losses\": %d}%s\n",
						mv[mi], side(p, n), side(c, n), wins, losses, mi < nm ? "," : ""
				}
				printf "      },\n      \"digest\": {\"parent\": %s, \"change\": %s}\n    }%s\n",
					digests("parent", sv[si]), digests("change", sv[si]), si < ns ? "," : ""
			}
			printf "  ]\n}\n"
		}' "$tmp/runs" >"$record"
	echo "bench-ab: record written to $record"
fi
exit $status
