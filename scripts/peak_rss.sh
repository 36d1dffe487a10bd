#!/usr/bin/env bash
# Compare peak RSS of two checkouts on every benchmark workload.
#
#   scripts/peak_rss.sh PARENT_DIR CHANGE_DIR
#
# Runs `bash benchmark/run.sh --workload W --seconds 0.5 --trace 0` once
# per checkout for each workload named in CHANGE_DIR/BENCHMARK.json and
# prints each side's `peak_rss_mb` and their ratio.  The reading is set
# inside the benchmark's speed probe and is deterministic per build, so
# one run per side is enough.  Exits 1 when a ratio exceeds 1 + the
# `peak_rss_mb` bound in BENCHMARK.json.  Needs jq.
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

status=0
printf '%-12s %10s %10s %8s\n' workload parent_mb change_mb ratio
for w in $(jq -r '.workloads[].name' "$spec"); do
  p=$(rss "$parent" "$w")
  c=$(rss "$change" "$w")
  ratio=$(awk -v a="$p" -v b="$c" 'BEGIN { printf "%.4f", b / a }')
  over=$(awk -v r="$ratio" -v b="$bound" 'BEGIN { print (r > 1 + b) ? "over" : "" }')
  printf '%-12s %10.2f %10.2f %8s %s\n' "$w" "$p" "$c" "$ratio" "$over"
  [ -z "$over" ] || status=1
done
[ "$status" -eq 0 ] || echo "peak_rss_mb above its bound (+$bound) on a workload" >&2
exit "$status"
