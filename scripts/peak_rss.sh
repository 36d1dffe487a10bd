#!/usr/bin/env bash
# Compare peak RSS of two checkouts on every benchmark workload.
#
#   scripts/peak_rss.sh PARENT_DIR CHANGE_DIR
#
# Runs `bash benchmark/run.sh --workload W --seconds 0.5 --trace 0`
# three times per checkout for each workload
# named in CHANGE_DIR/BENCHMARK.json, alternating the sides, and prints
# each side's median `peak_rss_mb`, its range and the ratio of the
# medians.  The reading is set inside the benchmark's speed probe and
# moves between runs of one binary (a few percent: GC pacing decides
# how large the heap is when the probe reads it), so one run per side
# proves nothing.  Exits 1 when a ratio exceeds 1 + the `peak_rss_mb`
# bound in BENCHMARK.json.  Needs jq.
set -euo pipefail

[ $# -eq 2 ] || { echo "usage: $0 PARENT_DIR CHANGE_DIR" >&2; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
spec="$change/BENCHMARK.json"
bound=$(jq -r '.end_to_end[] | select(.name == "peak_rss_mb") | .bound' "$spec")

# rss DIR WORKLOAD: that checkout's peak_rss_mb on one short run
rss() {
  (cd "$1" && bash benchmark/run.sh --workload "$2" --seconds 0.5 --trace 0) | tail -n 1 \
    | jq -r '.metrics.peak_rss_mb.value'
}

# median, min and max of the numbers on stdin, one a line
summary() {
  sort -g | awk '{ v[NR] = $1 } END {
    m = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
    printf "%s %s %s\n", m, v[1], v[NR] }'
}

status=0
printf '%-12s %10s %17s %10s %17s %8s\n' workload parent_mb range change_mb range ratio
for w in $(jq -r '.workloads[].name' "$spec"); do
  ps=() cs=()
  for i in 1 2 3; do
    if [ $((i % 2)) -eq 1 ]; then
      ps+=("$(rss "$parent" "$w")"); cs+=("$(rss "$change" "$w")")
    else
      cs+=("$(rss "$change" "$w")"); ps+=("$(rss "$parent" "$w")")
    fi
  done
  read -r p plo phi < <(printf '%s\n' "${ps[@]}" | summary)
  read -r c clo chi < <(printf '%s\n' "${cs[@]}" | summary)
  ratio=$(awk -v a="$p" -v b="$c" 'BEGIN { printf "%.4f", b / a }')
  over=$(awk -v r="$ratio" -v b="$bound" 'BEGIN { print (r > 1 + b) ? "over" : "" }')
  printf '%-12s %10.2f %8.2f-%-8.2f %10.2f %8.2f-%-8.2f %8s %s\n' \
    "$w" "$p" "$plo" "$phi" "$c" "$clo" "$chi" "$ratio" "$over"
  [ -z "$over" ] || status=1
done
[ "$status" -eq 0 ] || echo "median peak_rss_mb above its bound (+$bound) on a workload" >&2
exit "$status"
