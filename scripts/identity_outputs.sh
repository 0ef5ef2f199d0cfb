#!/usr/bin/env bash
# Writes every deterministic output of a build into one directory, so that
# two builds of the same behaviour (a parent commit and a change) compare
# with `diff -r`.
#
# Usage: scripts/identity_outputs.sh BUILD_DIR OUT_DIR
#   BUILD_DIR  a built tree (Release: cmake -DCMAKE_BUILD_TYPE=Release)
#   OUT_DIR    created when missing; must be empty
#
# Writes, one file each:
#   * the 18 deterministic benches under BUILD_DIR/bench (micro_components,
#     engine_events_per_sec and tab5_monitoring_overhead print wall time);
#   * the 24 chaos, RM-chaos, explicit-strategy and autotuned-chaos
#     `qopt_cli --json` reports of seeds 1-6;
#   * the seed-7 explicit-strategy report and the two autotuned sweeps;
#   * the six examples, each run in its own directory (some write files);
#   * a `--profile` export with its wall-clock fields (wall_ns,
#     wall_samples) removed;
#   * the interleave gate's schedule count and set hash;
#   * exit_codes.txt, every run's exit status (qopt_cli exits 1 on a
#     consistency violation).
# Everything runs from OUT_DIR/run, so the corpus cache that the corpus
# benches share starts cold (~3 min in all).
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
B=$(cd "$1" && pwd)
mkdir -p "$2"
O=$(cd "$2" && pwd)
if [[ -n "$(ls -A "$O")" ]]; then
  echo "$0: $O is not empty" >&2
  exit 2
fi
mkdir "$O/run"
cd "$O/run"

# run NAME CMD...: CMD's stdout and stderr go to OUT_DIR/NAME, its exit
# status to exit_codes.txt.
run() {
  local name=$1
  shift
  local status=0
  "$@" > "$O/$name" 2>&1 || status=$?
  echo "$name $status" >> "$O/exit_codes.txt"
}

for bench in "$B"/bench/*; do
  name=$(basename "$bench")
  [[ -f "$bench" && -x "$bench" ]] || continue
  case "$name" in
    micro_components | engine_events_per_sec | tab5_monitoring_overhead)
      continue ;;
  esac
  run "$name.txt" "$bench"
done

cli="$B/examples/qopt_cli"
window=(--workload ycsb-a --duration 25 --warmup 2)
chaos=(--net-loss 0.01 --net-dup 0.005 --nemesis --nemesis-partitions
       --nemesis-interval 250)
for s in 1 2 3 4 5 6; do
  run "chaos-$s.json" "$cli" "${window[@]}" --seed "$s" "${chaos[@]}" --json
  run "rmchaos-$s.json" "$cli" "${window[@]}" --seed "$s" --rm-replicas 3 \
    --nemesis --nemesis-rm --nemesis-interval 250 --json
  run "explicit-$s.json" "$cli" "${window[@]}" --seed "$s" \
    --round-window 2 --strategy-optimizer --nemesis --nemesis-interval 250 \
    --json
  run "achaos-$s.json" "$cli" "${window[@]}" --seed "$s" "${chaos[@]}" \
    --autotune --round-window 2 --json
done
# 16 overrides and an explicit default.
run explicit-seed7.json "$cli" --workload ycsb-a --duration 60 \
  --round-window 2 --seed 7 --strategy-optimizer --json
for r in 1 3; do
  run "sweep-rm$r.json" "$cli" --workload sweep --write-ratio 0.7 \
    --duration 20 --seed 7 --autotune --rm-replicas "$r" --json
done

for e in daily_cycle manual_reconfiguration multi_tenant_store quickstart \
    replicated_control_plane trace_replay; do
  mkdir "$O/ex-$e"
  (cd "$O/ex-$e" && run "example-$e.txt" "$B/examples/$e")
done

run profile-chaos.raw "$cli" "${window[@]}" --seed 2 "${chaos[@]}" \
  --profile --json
# The two wall-clock fields close each subsystem entry.
sed -E 's/,"wall_(ns|samples)":[^,}]*//g' "$O/profile-chaos.raw" \
  > "$O/profile-chaos.json"
rm "$O/profile-chaos.raw"

run interleave-gate.raw "$B/tests/interleave_gate_test"
grep 'interleave gate' "$O/interleave-gate.raw" > "$O/interleave-gate.txt" ||
  true
rm "$O/interleave-gate.raw"
