#!/usr/bin/env bash
# Compare two checkouts on one benchmark workload in alternating pairs.
#
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS] [SECONDS] [-- RUN_ARGS...]
#
# Runs `bash benchmark/run.sh --workload WORKLOAD --seconds SECONDS
# --trace 0 RUN_ARGS...` in each checkout PAIRS times (default 10 pairs,
# 12 s), the parent first in odd pairs and the change first in even
# ones, and keeps only each run's last line (the JSON result).  Prints
# one line per run as it finishes, then per end-to-end metric each
# side's median and quartiles, the change of the median in %, and how
# many pairs the change won (ties count for neither side).  The metric
# directions come from CHANGE_DIR/BENCHMARK.json.  A median can hide a
# moved simulated number, so it then lists every metric that reads the
# same in all runs of each side as parent -> change, and exits 1 when
# sim_cycles, vmm_share or availability differ between the runs (within
# or across the sides) or any run failed an operation.  Needs jq.
set -euo pipefail

usage() {
  echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS] [SECONDS] [-- RUN_ARGS...]" >&2
  exit 2
}
[ $# -ge 3 ] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
shift 3
pairs=10
seconds=12
if [ $# -gt 0 ] && [ "$1" != "--" ]; then pairs=$1; shift; fi
if [ $# -gt 0 ] && [ "$1" != "--" ]; then seconds=$1; shift; fi
if [ $# -gt 0 ]; then [ "$1" = "--" ] || usage; shift; fi
extra=("$@")

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run SIDE DIR PAIR: one benchmark run, its last line saved as SIDE.PAIR
run() {
  local line
  line=$(cd "$2" && bash benchmark/run.sh --workload "$workload" --seconds "$seconds" \
    --trace 0 ${extra[@]+"${extra[@]}"} | tail -n 1)
  echo "$line" >"$out/$1.$3"
  printf 'pair %2d %-6s %s\n' "$3" "$1" \
    "$(echo "$line" | jq -r '[.metrics | to_entries[] | "\(.key)=\(.value.value)"]
      + ["failed=\(.failed)/\(.attempted)"] | join(" ")')"
}

for p in $(seq 1 "$pairs"); do
  if [ $((p % 2)) -eq 1 ]; then
    run parent "$parent" "$p"
    run change "$change" "$p"
  else
    run change "$change" "$p"
    run parent "$parent" "$p"
  fi
done

# values SIDE METRIC: that metric over all pairs, one per line, pair order
values() {
  for p in $(seq 1 "$pairs"); do jq -r ".metrics.\"$2\".value" "$out/$1.$p"; done
}

# stats: median and quartiles (linear interpolation) of stdin's numbers
stats() {
  sort -g | awk '
    { v[NR] = $1 }
    function q(f,  h, lo) { h = (NR - 1) * f + 1; lo = int(h);
      return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
    END { printf "%.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75) }'
}

printf '\n%s: %d pairs, --seconds %s --trace 0 %s\n' "$workload" "$pairs" "$seconds" \
  "${extra[*]+${extra[*]}}"
printf '%-14s %-34s %-34s %9s %6s\n' metric "parent median [q1, q3]" "change median [q1, q3]" \
  change won
for m in $(jq -r '.metrics | keys_unsorted[]' "$out/parent.1"); do
  better=$(jq -r --arg m "$m" '.end_to_end[] | select(.name == $m) | .better' \
    "$change/BENCHMARK.json")
  read -r pm pq1 pq3 < <(values parent "$m" | stats)
  read -r cm cq1 cq3 < <(values change "$m" | stats)
  won=$(paste <(values parent "$m") <(values change "$m") | awk -v b="$better" '
    ($1 != $2) && ((b == "lower") == ($2 < $1)) { n++ } END { print n + 0 }')
  pct=$(awk -v a="$pm" -v b="$cm" 'BEGIN { if (a == 0) print "n/a"; else printf "%+.1f%%", 100 * (b - a) / a }')
  printf '%-14s %-34s %-34s %9s %6s\n' "$m" "$pm [$pq1, $pq3]" "$cm [$cq1, $cq3]" "$pct" \
    "$won/$pairs"
done

status=0
printf '\nsame in every run of a side (parent -> change):\n'
for m in $(jq -r '.metrics | keys_unsorted[]' "$out/parent.1"); do
  pv=$(values parent "$m" | sort -u)
  cv=$(values change "$m" | sort -u)
  if [ "$(wc -l <<<"$pv")" -eq 1 ] && [ "$(wc -l <<<"$cv")" -eq 1 ]; then
    printf '  %-14s %s -> %s%s\n' "$m" "$pv" "$cv" "$([ "$pv" = "$cv" ] && echo ' (same)')"
  fi
done
for m in sim_cycles vmm_share availability; do
  seen=$( (values parent "$m"; values change "$m") | sort -u)
  if [ "$(wc -l <<<"$seen")" -ne 1 ]; then
    echo "FAIL: $m differs between runs:" $seen
    status=1
  fi
done
failed=$(cat "$out"/parent.* "$out"/change.* | jq -s 'map(.failed) | add')
if [ "$failed" -gt 0 ]; then
  echo "FAIL: $failed failed operations over all runs"
  status=1
fi
exit $status
