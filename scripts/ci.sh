#!/bin/sh
# Tier-1 gate: build, full test suite, and (when ocamlformat is
# available) formatting.  Run from the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt =="
  dune build @fmt
else
  echo "== skipping @fmt (ocamlformat not installed) =="
fi

echo "== fault-matrix smoke (determinism under injected faults) =="
# Identical seeds must give byte-identical behaviour: any diff below is
# nondeterminism in the fault plan, the link, or the recovery layers.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# pin EXPERIMENT FILE: FILE holds only simulated numbers, so a full run
# of EXPERIMENT must regenerate the committed copy byte for byte.
pin() {
  cp "$2" "$tmp/$2.ref"
  dune exec bench/main.exe -- --only "$1" >"$tmp/$1.txt"
  diff "$tmp/$2.ref" "$2" || {
    echo "FAIL: $2 diverged from the committed copy"; exit 1; }
}

# twice EXPERIMENT FILE: two quick runs of EXPERIMENT with identical
# seeds must write byte-identical FILEs and print identical output.
# The committed FILE is restored afterwards.
twice() {
  cp "$2" "$tmp/$2.committed"
  dune exec bench/main.exe -- --quick "$1" >"$tmp/$1.a.txt"
  cp "$2" "$tmp/$2.a"
  dune exec bench/main.exe -- --quick "$1" >"$tmp/$1.b.txt"
  diff "$tmp/$2.a" "$2" || {
    echo "FAIL: $2 diverged between identical-seed runs"; exit 1; }
  diff "$tmp/$1.a.txt" "$tmp/$1.b.txt" || {
    echo "FAIL: $1 output diverged between identical-seed runs ($2)"; exit 1; }
  cp "$tmp/$2.committed" "$2"
}

dune exec bin/velum.exe -- migrate --faults "seed=42,drop=0.05" >"$tmp/mig1.txt"
dune exec bin/velum.exe -- migrate --faults "seed=42,drop=0.05" >"$tmp/mig2.txt"
diff "$tmp/mig1.txt" "$tmp/mig2.txt" || {
  echo "FAIL: lossy migration diverged between identical-seed runs"; exit 1; }
grep -q "retransmits" "$tmp/mig1.txt" || {
  echo "FAIL: lossy migration reported no retransmit accounting"; exit 1; }

echo "== engine equivalence (interp vs block) =="
# The block engine must be observationally identical to the reference
# interpreter: same console bytes, same outcome, same guest/VMM cycles
# and retired-instruction counts, same per-kind exit accounting, same
# TLB misses, evictions and full flushes.  Only the engine-local gauges
# may differ — tlb.hits, dtlb.* and engine.* lines: the block engine
# exists to skip translations that would be TLB hits — so those are
# filtered out before the diff.  The virtualized legs run
# hot enough that the superblock trace tier kicks in (promotion
# threshold is a handful of dispatches), so this diff also certifies
# trace execution against the interpreter; the engine.trace.built gauge
# is checked below to prove traces really formed.  The two binary-
# translation legs (paravirtual, and shadow paging) run the same diff
# through the translated sensitive sites.
engine_local='^(engine\.|dtlb\.|tlb\.hits:)'
for w in hello spin syscalls memwalk pt-churn blk vblk; do
  for cfg in "--native" "--paging nested" "--paging shadow" "--pv --exec bt" \
    "--paging shadow --exec bt"; do
    for eng in interp block; do
      dune exec bin/velum.exe -- run -w "$w" -n 24 $cfg --engine "$eng" \
        >"$tmp/$w.$eng.raw.txt"
      grep -v -E "$engine_local" <"$tmp/$w.$eng.raw.txt" >"$tmp/$w.$eng.txt"
    done
    diff "$tmp/$w.interp.txt" "$tmp/$w.block.txt" || {
      echo "FAIL: interp/block divergence on $w ($cfg)"; exit 1; }
    case "$w/$cfg" in
      spin/--paging*|syscalls/--paging*|memwalk/--paging*|pt-churn/--paging*)
        built=$(awk -F': ' '/^engine\.trace\.built/ { print $2 }' "$tmp/$w.block.raw.txt")
        [ "${built:-0}" -gt 0 ] || {
          echo "FAIL: no superblock traces formed on $w ($cfg)"; exit 1; }
        ;;
      *) ;;
    esac
  done
done

# -n 24 fits memwalk in the 64-entry TLB.  At -n 96 every pass evicts
# for capacity, so the block engine's micro-TLB entries, for fetches
# and data alike, survive other pages' evictions only through their
# per-slot TLB certificates.
for cfg in "--paging nested" "--paging shadow"; do
  for eng in interp block; do
    dune exec bin/velum.exe -- run -w memwalk -n 96 $cfg --engine "$eng" \
      >"$tmp/memwalk96.$eng.raw.txt"
    grep -v -E "$engine_local" <"$tmp/memwalk96.$eng.raw.txt" >"$tmp/memwalk96.$eng.txt"
  done
  diff "$tmp/memwalk96.interp.txt" "$tmp/memwalk96.block.txt" || {
    echo "FAIL: interp/block divergence on memwalk -n 96 ($cfg)"; exit 1; }
done

# Under --ha the HA supervisor's dirty tracker and the block engine's
# cache listener share the host memory's per-frame write watch: the
# tracker stops wanting a frame once it has stamped it, the cache wants
# every frame it holds code from.  These legs run both on one frame
# byte.  dirty loops forever, so --budget bounds it; memwalk at -n 96
# adds capacity evictions under the supervisor; vblk and blk checkpoint
# a guest that drives a block device.
for leg in "memwalk 24" "dirty 24" "memwalk 96" "vblk 3" "blk 3"; do
  set -- $leg
  for eng in interp block; do
    dune exec bin/velum.exe -- run -w "$1" -n "$2" --ha --budget 50000000 --engine "$eng" \
      >"$tmp/ha.$1.$2.$eng.raw.txt"
    grep -v -E "$engine_local" <"$tmp/ha.$1.$2.$eng.raw.txt" >"$tmp/ha.$1.$2.$eng.txt"
  done
  diff "$tmp/ha.$1.$2.interp.txt" "$tmp/ha.$1.$2.block.txt" || {
    echo "FAIL: interp/block divergence on $1 -n $2 (--ha)"; exit 1; }
done

echo "== engine throughput gate (cpu-spin: block >= 60 MIPS, interp/probe >= 70% of committed) =="
# Re-measure the engine suite (it also re-asserts cycle/instret
# lockstep internally) and gate each engine on its own throughput: the
# block engine with the superblock trace tier must hold 60 MIPS on
# cpu-spin, and the reference interpreter must keep at least 70% of the
# interp_probe committed in BENCH_engine.json: its MIPS times the CPU
# time of a fixed host workload run beside it in the same process, so
# that a host running slower than when the file was committed does not
# fail the gate with no interpreter code changed (six runs of one build
# read raw interp_mips 12.70 to 19.52, interp_probe 0.340 to 0.414).
# The block/interp ratio is printed for information only — a faster
# reference interpreter lowers it without anything getting slower.  The committed BENCH_engine.json
# is restored afterwards so the gate never dirties the tree with
# machine-local wall-clock numbers.  Each row's sim_cycles is simulated
# and deterministic, and so is its trace_follows (engine-local, but the
# same on every run of one build), so both must match the committed
# row: a change that moves them regenerates BENCH_engine.json.
cp BENCH_engine.json "$tmp/BENCH_engine.ref.json"
dune exec bench/main.exe -- --only ENGINE >"$tmp/engine_bench.txt"
engine_sim() {
  grep -o '"name": "[^"]*"\|"trace_follows": [0-9]*\|"sim_cycles": [0-9]*' \
    "$1" | paste -d' ' - - -
}
engine_sim BENCH_engine.json >"$tmp/engine_sim.txt"
engine_sim "$tmp/BENCH_engine.ref.json" >"$tmp/engine_sim.ref.txt"
spin_field() {
  awk -F"\"$1\": " '/"name": "engine\/cpu-spin"/ { split($2, a, ","); print a[1] }' "$2"
}
spin=$(spin_field speedup BENCH_engine.json)
mips=$(spin_field block_mips BENCH_engine.json)
imips=$(spin_field interp_mips BENCH_engine.json)
iprobe=$(spin_field interp_probe BENCH_engine.json)
iprobe_ref=$(spin_field interp_probe "$tmp/BENCH_engine.ref.json")
traces=$(spin_field trace_follows BENCH_engine.json)
cp "$tmp/BENCH_engine.ref.json" BENCH_engine.json
[ -n "$spin" ] || { echo "FAIL: no cpu-spin row in BENCH_engine.json"; exit 1; }
[ -s "$tmp/engine_sim.ref.txt" ] || {
  echo "FAIL: committed BENCH_engine.json has no sim_cycles rows"; exit 1; }
diff "$tmp/engine_sim.ref.txt" "$tmp/engine_sim.txt" || {
  echo "FAIL: ENGINE sim_cycles or trace follows diverged from the committed" \
    "BENCH_engine.json"; exit 1; }
[ -n "$iprobe_ref" ] || { echo "FAIL: committed BENCH_engine.json has no interp_probe"; exit 1; }
awk -v m="$mips" 'BEGIN { exit !(m + 0 >= 60.0) }' || {
  echo "FAIL: cpu-spin block-engine MIPS $mips regressed below 60"; exit 1; }
awk -v m="$iprobe" -v r="$iprobe_ref" 'BEGIN { exit !(m + 0 >= 0.7 * r) }' || {
  echo "FAIL: cpu-spin interpreter $iprobe MIPS x probe s below 70% of the committed" \
    "$iprobe_ref"; exit 1; }
[ "${traces:-0}" -gt 0 ] || {
  echo "FAIL: cpu-spin bench ran without trace-tier dispatches"; exit 1; }
echo "cpu-spin: block ${mips} MIPS (${traces} trace dispatches), interp ${imips} MIPS," \
  "interp x probe ${iprobe} (committed ${iprobe_ref}); block/interp ${spin}x; $(nproc) cores"

echo "== simulated-only bench sections (E1-E15, A1-A5) =="
# These sections print only simulated numbers and write no JSON, so
# their stdout is the artifact: it must regenerate the committed
# BENCH_sim.txt byte for byte.
sim_sections="E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 E11 E12 E13 E14 E15 A1 A2 A3 A4 A5"
dune exec bench/main.exe -- $sim_sections >"$tmp/sim.txt"
diff BENCH_sim.txt "$tmp/sim.txt" || {
  echo "FAIL: simulated bench sections diverged from BENCH_sim.txt"; exit 1; }

twice E16 BENCH_fault.json

# The quick runs above only prove determinism.  The full E16 is all
# simulated numbers (retransmits, rollback, failover epochs), so it must
# regenerate the committed BENCH_fault.json byte for byte.
pin E16 BENCH_fault.json

echo "== crash-recovery matrix (EVERY power-failure offset) =="
# Cut the write stream at EVERY byte offset — of a delta commit and of
# a GC compaction — and verify each cut recovers the newest complete
# generation.  Synthetic patterned images keep the streams small enough
# to sweep exhaustively (stride 1); the commands exit nonzero on any
# torn, hybrid, or dangling-chunk recovery.
dune exec bin/velum.exe -- recover --sweep --pages 8 --stride 1 \
  >"$tmp/sweep_delta.txt" || {
  echo "FAIL: delta-commit crash sweep recovered a torn image"; exit 1; }
grep -q "0 failures" "$tmp/sweep_delta.txt" || {
  echo "FAIL: delta-commit crash sweep reported failures"; exit 1; }
dune exec bin/velum.exe -- recover --sweep --gc --pages 8 --stride 1 \
  >"$tmp/sweep_gc.txt" || {
  echo "FAIL: GC-compaction crash sweep lost a live generation"; exit 1; }
grep -q "0 failures" "$tmp/sweep_gc.txt" || {
  echo "FAIL: GC-compaction crash sweep reported failures"; exit 1; }

# A coarser lattice over a real VM snapshot delta keeps the end-to-end
# path (capture -> chunk -> commit -> recover) honest, and two
# identical-seed sweeps must report byte-identical results.  The delta
# generation is committed from the live VM through the dirty-set hint,
# as the HA supervisor does, so no hinted chunk may fail its verify.
dune exec bin/velum.exe -- recover --sweep --stride 4099 >"$tmp/sweep1.txt" || {
  echo "FAIL: crash sweep recovered a torn image"; exit 1; }
dune exec bin/velum.exe -- recover --sweep --stride 4099 >"$tmp/sweep2.txt" || {
  echo "FAIL: crash sweep recovered a torn image"; exit 1; }
diff "$tmp/sweep1.txt" "$tmp/sweep2.txt" || {
  echo "FAIL: crash sweep diverged between identical runs"; exit 1; }
grep -q "0 failures" "$tmp/sweep1.txt" || {
  echo "FAIL: crash sweep reported failures"; exit 1; }
grep -q "hint_misses=0" "$tmp/sweep1.txt" || {
  echo "FAIL: hinted delta commit refused a clean chunk"; exit 1; }

# Faulted supervised runs must also be deterministic end to end.
dune exec bin/velum.exe -- run -w spin --ha --faults "seed=7,store.torn=0.5" \
  >"$tmp/ha1.txt"
dune exec bin/velum.exe -- run -w spin --ha --faults "seed=7,store.torn=0.5" \
  >"$tmp/ha2.txt"
diff "$tmp/ha1.txt" "$tmp/ha2.txt" || {
  echo "FAIL: supervised run diverged between identical-seed runs"; exit 1; }
# Rotted chunk records and reference rows: a commit's verify of a shared
# chunk must refuse a rotted copy and rehash, the same way twice.  Rot
# lands only in a commit's own new records, so the window rots the first
# commits, whose chunks later commits re-reference (with seed 7, rot at
# 0.2 alone refused none of the run's 36,563 verifies).
rot="run -w dirty -n 24 --ha --budget 30000000 --checkpoint-every 200000 \
  --faults seed=7,store.csum=0.2,store.csum@0-2,store.ref=0.2"
dune exec bin/velum.exe -- $rot >"$tmp/rot1.txt"
dune exec bin/velum.exe -- $rot >"$tmp/rot2.txt"
diff "$tmp/rot1.txt" "$tmp/rot2.txt" || {
  echo "FAIL: supervised run under store rot diverged between identical-seed runs"; exit 1; }
grep "^store:" "$tmp/rot1.txt"
grep -q "^store: .* hint_misses=[1-9]" "$tmp/rot1.txt" || {
  echo "FAIL: no commit refused a rotted chunk"; exit 1; }
# A refused verify that finds a rotted payload counts as observed rot.
grep -q "fault.store.csum .* observed *[1-9]" "$tmp/rot1.txt" || {
  echo "FAIL: a refused verify of rotted chunks observed no store.csum fault"; exit 1; }

twice E17 BENCH_ha.json

# The quick runs above only prove determinism.  The full E17 is all
# simulated numbers (failover_at, mttr_cycles, pause tax...), so it must
# regenerate the committed BENCH_ha.json byte for byte.
pin E17 BENCH_ha.json

# The committed BENCH_ha.json must carry the incremental-store columns
# and show a checkpoint pause tax under 20% at the 100k-cycle cadence —
# the delta commits are the point of the content-addressed store.
grep -q '"name": "ha/crash_sweep_gc"' BENCH_ha.json || {
  echo "FAIL: BENCH_ha.json missing the GC crash-sweep row"; exit 1; }
grep -q '"dedup_ratio"' BENCH_ha.json || {
  echo "FAIL: BENCH_ha.json missing the dedup_ratio column"; exit 1; }
grep -q '"bytes_written"' BENCH_ha.json || {
  echo "FAIL: BENCH_ha.json missing the bytes_written column"; exit 1; }
overhead=$(awk -F'"checkpoint_overhead": ' '/"name": "ha\/supervisor\/cadence_100000"/ \
  { split($2, a, "}"); print a[1] }' BENCH_ha.json)
[ -n "$overhead" ] || {
  echo "FAIL: BENCH_ha.json missing the cadence_100000 row"; exit 1; }
awk -v o="$overhead" 'BEGIN { exit !(o + 0 < 0.20) }' || {
  echo "FAIL: cadence_100000 checkpoint overhead $overhead >= 0.20"; exit 1; }
echo "cadence_100000 checkpoint overhead: $overhead"

# E22's BENCH_store.json is all deterministic byte counts (no wall
# clock), so the regenerated file must match the committed one exactly.
pin E22 BENCH_store.json

echo "== trace determinism and zero-overhead gate =="
# Tracing is host-side observation only: two identical seeded runs must
# export byte-identical JSONL, and a traced run must print exactly the
# same simulated results (cycles, exits, console) as an untraced one.
dune exec bin/velum.exe -- run -w syscalls -n 64 --trace="$tmp/t1.jsonl" \
  >"$tmp/traced1.txt"
dune exec bin/velum.exe -- run -w syscalls -n 64 --trace="$tmp/t2.jsonl" \
  >"$tmp/traced2.txt"
diff "$tmp/t1.jsonl" "$tmp/t2.jsonl" || {
  echo "FAIL: trace export diverged between identical-seed runs"; exit 1; }
dune exec bin/velum.exe -- run -w syscalls -n 64 >"$tmp/untraced.txt"
grep -v '^trace:' "$tmp/traced1.txt" >"$tmp/traced1.filtered.txt"
diff "$tmp/untraced.txt" "$tmp/traced1.filtered.txt" || {
  echo "FAIL: tracing changed simulated behaviour (cycles or exits)"; exit 1; }
dune exec bin/velum.exe -- trace "$tmp/t1.jsonl" >"$tmp/report.txt"
grep -q "cycle attribution" "$tmp/report.txt" || {
  echo "FAIL: trace report missing attribution table"; exit 1; }
grep -q "p99" "$tmp/report.txt" || {
  echo "FAIL: trace report missing latency percentiles"; exit 1; }

echo "== parallel hosts: domain-count invariance (round barrier) =="
# The acceptance gate for the cluster runner: a 4-host fleet executed on
# 4 domains must print a byte-identical report (simulated cycles, exits,
# monitor counters, migration accounting, the fleet detector's verdicts)
# to the same fleet on 1 domain, and per-host trace exports must match
# byte for byte.
dune exec bin/velum.exe -- run -w syscalls -n 200 --hosts 4 --domains 1 \
  --rounds 6 --trace "$tmp/par1.jsonl" >"$tmp/par1.txt"
dune exec bin/velum.exe -- run -w syscalls -n 200 --hosts 4 --domains 4 \
  --rounds 6 --trace "$tmp/par4.jsonl" >"$tmp/par4.txt"
diff "$tmp/par1.txt" "$tmp/par4.txt" || {
  echo "FAIL: fleet report diverged between 1 and 4 domains"; exit 1; }
for i in 0 1 2 3; do
  diff "$tmp/par1.jsonl.$i" "$tmp/par4.jsonl.$i" || {
    echo "FAIL: host $i trace export diverged between 1 and 4 domains"; exit 1; }
done
grep -q "^detector: hb_sent=" "$tmp/par1.txt" || {
  echo "FAIL: fleet report carries no detector line"; exit 1; }

# And under chaos: faults on the migration link and the detector's
# spokes, heartbeat loss, a mid-run host failure and periodic live
# migrations at the barrier must stay domain-invariant.
chaos="--hosts 4 --rounds 8 --migrate-every 3 --fail-host 4,2 \
  --faults seed=9,drop=0.1,corrupt=0.05,cluster.hb=0.2 --seed 31"
dune exec bin/velum.exe -- run -w dirty -n 16 $chaos --domains 1 >"$tmp/chaos1.txt"
dune exec bin/velum.exe -- run -w dirty -n 16 $chaos --domains 4 >"$tmp/chaos4.txt"
diff "$tmp/chaos1.txt" "$tmp/chaos4.txt" || {
  echo "FAIL: chaotic fleet diverged between 1 and 4 domains"; exit 1; }
grep -q "^detector: host 2 dead at round" "$tmp/chaos1.txt" || {
  echo "FAIL: injected failure of host 2 was never detected"; exit 1; }
grep -q "migrations=" "$tmp/chaos1.txt" || {
  echo "FAIL: fleet report carries no migration accounting"; exit 1; }

# BENCH_par.json is regenerated by 'bench/main.exe --only E19' (wall
# clock is machine-local, so the committed file is not re-checked for
# equality — only for shape).
grep -q '"name": "par/domains-4"' BENCH_par.json || {
  echo "FAIL: BENCH_par.json missing the 4-domain row"; exit 1; }

echo "== cluster control plane: chaos determinism and availability gate =="
# The self-healing control plane under scripted chaos — two host kills,
# a rolling drain, an overload burst, plus heartbeat/evacuation/drain
# faults — must print a byte-identical report at 2 and 4 domains vs 1,
# keep fleet availability >= 0.95, and record zero split-brain epochs.
cchaos="--hosts 16 --kill 5,1 --kill 8,9 --burst 6 --drain 12,3 --rounds 24 \
  --seed 11 --faults seed=7,cluster.hb=0.05,cluster.evac=0.1,cluster.drain=0.1,drop=0.02"
dune exec bin/velum.exe -- cluster $cchaos --domains 1 >"$tmp/cluster1.txt" 2>"$tmp/cluster1.err" || {
  cat "$tmp/cluster1.err"; exit 1; }
# At 2 and 4 domains the checkpoints are planned on every stripe and
# committed by the coordinator: the report and the host: lines — the
# store's resident bytes and the digest of their contents — must match
# the 1-domain run.
grep '^host:' "$tmp/cluster1.err" >"$tmp/cluster1.host"
grep -q '^host: store digest=' "$tmp/cluster1.host" || {
  echo "FAIL: velum cluster reported no store digest line"; exit 1; }
for d in 2 4; do
  dune exec bin/velum.exe -- cluster $cchaos --domains $d >"$tmp/cluster$d.txt" 2>"$tmp/cluster$d.err"
  diff "$tmp/cluster1.txt" "$tmp/cluster$d.txt" || {
    echo "FAIL: cluster report diverged between 1 and $d domains"; exit 1; }
  grep '^host:' "$tmp/cluster$d.err" >"$tmp/cluster$d.host"
  diff "$tmp/cluster1.host" "$tmp/cluster$d.host" || {
    echo "FAIL: cluster host: lines diverged between 1 and $d domains"; exit 1; }
done
avail=$(sed -n 's/^metrics availability=\([0-9.]*\).*/\1/p' "$tmp/cluster1.txt")
[ -n "$avail" ] || { echo "FAIL: cluster report carries no availability metric"; exit 1; }
awk -v a="$avail" 'BEGIN { exit !(a + 0 >= 0.95) }' || {
  echo "FAIL: fleet availability $avail below the 0.95 gate"; exit 1; }
echo "fleet availability under chaos: $avail"
grep -q "split_brain=0" "$tmp/cluster1.txt" || {
  echo "FAIL: split-brain epoch observed"; exit 1; }
# Heavy heartbeat loss declares live hosts dead: each must be fenced
# before any of its VMs is restored elsewhere, so the report counts
# false positives and still no VM running twice.
dune exec bin/velum.exe -- cluster --hosts 8 --rounds 16 --seed 11 \
  --faults seed=7,cluster.hb=0.62 --domains 2 >"$tmp/fenced.txt" 2>/dev/null
grep -q "fenced_alive=[1-9]" "$tmp/fenced.txt" || {
  echo "FAIL: heartbeat loss fenced no live host"; exit 1; }
grep -q "split_brain=0" "$tmp/fenced.txt" || {
  echo "FAIL: split-brain epoch observed after a false positive"; exit 1; }
grep -q "state=shed" "$tmp/cluster1.txt" || {
  echo "FAIL: overload burst shed nothing"; exit 1; }
# The fleet checkpoint store keeps only the extents its commits wrote in
# memory.  'velum cluster' reports them on stderr (stdout is diffed
# above); they depend only on the simulated writes, and must stay under
# an eighth of the device, so a change that makes the store dense again
# (a whole-device read_back or load on a hot path) fails here.
resident=$(sed -n 's/^host: store resident_bytes=\([0-9]*\) capacity_bytes=.*/\1/p' "$tmp/cluster1.err")
capacity=$(sed -n 's/^host: store resident_bytes=[0-9]* capacity_bytes=\([0-9]*\)$/\1/p' "$tmp/cluster1.err")
[ -n "$resident" ] && [ -n "$capacity" ] || {
  echo "FAIL: velum cluster reported no store resident_bytes line"; exit 1; }
[ $((8 * resident)) -le "$capacity" ] || {
  echo "FAIL: fleet store holds $resident of $capacity bytes in memory (more than 1/8)"; exit 1; }
echo "fleet store resident: $resident of $capacity bytes"
# Host RAM is backed per frame on first write: the fleet's hosts must
# hold at most a quarter of their frames, so a change that touches every
# frame (a dense RAM, or a zero fill that writes unbacked frames) fails.
ram_resident=$(sed -n 's/^host: ram resident_bytes=\([0-9]*\) capacity_bytes=.*/\1/p' "$tmp/cluster1.err")
ram_capacity=$(sed -n 's/^host: ram resident_bytes=[0-9]* capacity_bytes=\([0-9]*\)$/\1/p' "$tmp/cluster1.err")
[ -n "$ram_resident" ] && [ -n "$ram_capacity" ] || {
  echo "FAIL: velum cluster reported no host ram resident_bytes line"; exit 1; }
[ $((4 * ram_resident)) -le "$ram_capacity" ] || {
  echo "FAIL: fleet hosts back $ram_resident of $ram_capacity bytes of RAM (more than 1/4)"; exit 1; }
echo "fleet host ram resident: $ram_resident of $ram_capacity bytes"

# E20's BENCH_cluster.json is all simulated metrics (no wall clock), so
# the regenerated file must be byte-identical to the committed one.
pin E20 BENCH_cluster.json

echo "== network fabric: domain invariance, tail latency, conservation =="
# A switched virtio-net fleet (LB fan-out over backends, open-loop
# clients) under link faults must print a byte-identical report and
# per-host latency digest at 4 domains vs 1.  'velum net' fails hard on
# any conservation violation, so a clean diff also certifies that every
# frame landed in a named counter on both runs.
nfab="--hosts 2 --requests 16 \
  --faults seed=9,drop=0.02,corrupt=0.01,delay=0.05,dup=0.01"
dune exec bin/velum.exe -- net $nfab --domains 1 >"$tmp/net1.txt"
dune exec bin/velum.exe -- net $nfab --domains 4 >"$tmp/net4.txt"
diff "$tmp/net1.txt" "$tmp/net4.txt" || {
  echo "FAIL: net fabric diverged between 1 and 4 domains"; exit 1; }
p50=$(sed -n 's/^fabric: .*p50=\([0-9.]*\).*/\1/p' "$tmp/net1.txt")
p99=$(sed -n 's/^fabric: .*p99=\([0-9.]*\).*/\1/p' "$tmp/net1.txt")
[ -n "$p99" ] || { echo "FAIL: net fabric printed no p99"; exit 1; }
awk -v a="$p50" -v b="$p99" 'BEGIN { exit !(b + 0 >= a + 0 && b + 0 > 0) }' || {
  echo "FAIL: nonsensical fabric percentiles (p50=$p50 p99=$p99)"; exit 1; }
echo "fabric p99 under link faults: $p99 cycles"
grep -q "net.kicks" "$tmp/net1.txt" || {
  echo "FAIL: fleet report carries no net.* gauges"; exit 1; }

# E23's BENCH_net.json is all simulated counters and percentiles (no
# wall clock), so the regenerated file must match the committed copy
# byte for byte; E23 itself asserts 1-vs-4-domain byte identity, frame
# conservation, and reply completeness across a mid-benchmark live
# migration of a backend.
pin E23 BENCH_net.json

echo "CI gate passed."
