#!/usr/bin/env bash
# The fused multiply-add ratchet (ROADMAP open item 6(b), first half).
#
# On arm64, ppc64le, s390x and riscv64 the Go compiler may fuse x*y + z into
# one instruction whose result can differ from amd64's in the last bit —
# enough to flip a threshold test and move a golden. An explicit
# float64(x*y) + z forbids the fusion. This cross-compiles the root package
# (the facade and the Behavioural Analyzer's studies) and ./internal/...
# for arm64, counts the fused instructions per package of the source line
# they come from (a geometry helper inlined into gpsr counts for geometry),
# and fails when any package exceeds its allowance below. A change may
# remove fused sites — then lower the allowance — but never add one
# unnoticed; a constant that folds into a new multiply-add shows up here.
#
#   scripts/fma-audit.sh        (make fma-audit; part of make portable)
set -euo pipefail

# package (under internal/; "root" is the module's root package) and its
# fused sites at PR 31 (root: PR 34).
allowance='
root 0
ca 3
geometry 20
mobility 12
phy 1
routing/gpsr 5
scenario 1
spatial 4
stats 20
'

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "fma-audit: run from the root of a cavenet checkout" >&2
	exit 2
fi
asm=$(mktemp "${TMPDIR:-/tmp}/fma-audit.XXXXXX")
trap 'rm -f "$asm"' EXIT
if ! GOARCH=arm64 go build -gcflags=-S . ./internal/... >"$asm" 2>&1; then
	cat "$asm" >&2
	exit 2
fi

# An assembly line reads "\t0x0024 00036 (/path/internal/geometry/geometry.go:45)\tFMADDD\t…".
{ grep -E $'\t(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\t' "$asm" || true; } |
	sed -E 's|^[^(]*\(([^:]*)/[^/]*\.go:[0-9]+\).*|\1|' |
	sed -e "s|^$PWD/internal/||" -e "s|^$PWD\$|root|" |
	awk -v allowance="$allowance" '
		BEGIN {
			n = split(allowance, lines, "\n")
			for (i = 1; i <= n; i++)
				if (split(lines[i], f, " ") == 2) { limit[f[1]] = f[2]; pkg[f[1]] = 1 }
		}
		{ got[$0]++; pkg[$0] = 1 }
		END {
			over = 0
			for (p in pkg) {
				g = got[p] + 0; l = limit[p] + 0; total += g; allowed += l
				verdict = g > l ? "OVER" : (g < l ? "under: lower the allowance" : "")
				if (g > l) over = 1
				printf "  %-14s %3d / %3d  %s\n", p, g, l, verdict | "sort"
			}
			close("sort")
			printf "fma-audit: %d fused multiply-add sites, allowance %d\n", total, allowed
			exit over
		}'
