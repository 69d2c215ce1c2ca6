#!/usr/bin/env bash
# gatecheck runs every REPRO_PERF_ASSERT gate RUNS times (default 10), each
# run in its own process (go test -count=1 -run '^Name$'), reads the ratio
# the gate logs, and prints per reading the least, the greatest and the
# median of the runs against the gate's bound. A gate whose least reading is below its
# bound fails now and then in CI: it is noise, not a gate (docs/ci.md,
# "make gatecheck"). The exit status is 1 when any reading fell below its
# bound, or a run logged no reading.
#
#   make gatecheck            # ten runs of every gate
#   RUNS=3 make gatecheck     # a quicker look
set -euo pipefail
runs="${RUNS:-10}"
go="${GO:-go}"
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# One line per gate: package, test, then label=bound for every ratio the
# gate logs (the text its t.Logf line starts with, and the floor it
# asserts). Keep in step with docs/ci.md's REPRO_PERF_ASSERT table.
gates=(
	"./internal/quake/ TestSpMVSpeedupGate SpMV:=1.5"
	"./internal/compositor/ TestCompositeStripSpeedupGate compositeStrip_raw:=1.3 compositeStrip_rle:=1.5"
	"./internal/core/ TestDecodeChainSpeedupGate decode_chain_(enhanced_false):=1.2 decode_chain_(enhanced_true):=1.2"
	"./internal/core/ TestStripCompressionGate compressed_strips:=4"
	"./internal/render/ TestCastRayLeapSpeedupGate castRay_over_a_sparse_block:=1.5"
	"./internal/render/ TestCastRayClipSpeedupGate castRows_over_a_surface-layer_block:=1.5"
	"./internal/lic/ TestLICStepSpeedupGate LIC_step_at_128x128:=2"
	"./internal/mpiio/ TestCollectiveReplaySpeedupGate collective_round:=1.5"
	"./internal/experiments/ TestFig3AdaptiveFasterAndClose full_figure,_two_levels_coarser:=1.5"
)

log="$(mktemp)"
trap 'rm -f "$log"' EXIT
status=0
printf '%-34s %-42s %8s %8s %8s %6s %s\n' gate reading least most median bound "runs at or above"
for g in "${gates[@]}"; do
	read -r pkg name readings <<<"$g"
	: >"$log"
	for ((i = 0; i < runs; i++)); do
		REPRO_PERF_ASSERT=1 "$go" test -count=1 -run "^${name}\$" -v "$pkg" >>"$log" 2>&1 || true
	done
	for r in $readings; do
		label="${r%=*}"
		label="${label//_/ }"
		bound="${r##*=}"
		# The ratio is the first "N.NNx" after the label on its log line.
		vals="$(grep -F -- "$label" "$log" | grep -v -e 'regressed' -e 'want at most' |
			sed -nE 's/.*[ (]([0-9]+(\.[0-9]+)?)x[ )].*/\1/p' | sort -g)"
		n="$(printf '%s\n' "$vals" | grep -c . || true)"
		if [ "$n" -ne "$runs" ]; then
			# A run that failed its gate logged no ratio (or its Errorf did):
			# count it as below the bound.
			status=1
		fi
		if [ "$n" -eq 0 ]; then
			printf '%-34s %-42s %8s %8s %8s %5sx 0/%d\n' "$name" "$label" - - - "$bound" "$runs"
			continue
		fi
		read -r least most median above < <(printf '%s\n' "$vals" | awk -v b="$bound" '
			{ v[NR] = $1; if ($1 >= b) a++ }
			END { m = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
			      printf "%.2f %.2f %.2f %d\n", v[1], v[NR], m, a }')
		if [ "$above" -ne "$runs" ]; then
			status=1
		fi
		printf '%-34s %-42s %7sx %7sx %7sx %5sx %d/%d\n' "$name" "$label" "$least" "$most" "$median" "$bound" "$above" "$runs"
	done
done
exit "$status"
