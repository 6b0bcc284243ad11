#!/usr/bin/env bash
# Identity matrix for changes that must not move any simulated number.
#
#   tests/identity_check.sh PARENT_BUILD CHANGE_BUILD
#
# Both arguments are CMake build directories (one per commit, each from its
# own checkout).  The script runs the same commands with each build's
# `examples/sndpsim`, `bench/fig08_stall_breakdown`,
# `bench/tenant_interference`, `bench/diff_check`,
# `bench/tab02_configuration` and `bench/placement_sweep`, compares the two
# outputs byte for byte, and exits 1 on the first difference (0 when every
# pair is identical, 2 on bad usage).  The --stats-json rows compare the
# stdout and the JSON file without its wall-clock fields (meta.jobs,
# meta.total_point_wall_seconds, points[].timing), as CI's sweep-determinism
# step does.
#
#   sndpsim --stats  -w all -s tiny                       (dyn-cache default)
#   sndpsim --stats  -w all -s tiny -m always --seed 7
#   sndpsim --stats  -w all -s tiny -m static -r 0.3 --no-ff
#   sndpsim --stats  -w all -s tiny -m off                (the no-NDP baseline)
#   sndpsim --stats  -w all -s tiny -m dyn -e 97 --epoch-csv -
#                                 (every epoch sample, 97-cycle epochs)
#   sndpsim --stats  -w BFS -s small
#   sndpsim --stats  -w all -s small                      (the ndp-mem scale)
#   sndpsim --stats  -w all -s tiny --ro-cache --optimal-target
#                                 (the NSU read-only cache, all-access targets)
#   sndpsim --stats  --tenants BFS:2:0,VADD,KMN --arbiter weighted
#   sndpsim --stats  --tenants BFS:2:0,VADD,KMN --arbiter weighted --no-ff
#   sndpsim --stats  --tenants BFS:2:0,VADD,KMN --arbiter weighted -s tiny
#                    --credit-share 0.02          (per-tenant credit caps deny)
#   sndpsim --stats-json  -w all -s tiny
#   sndpsim --stats-json  --tenants BFS:2:0,VADD,KMN --arbiter weighted
#   fig08_stall_breakdown
#   tenant_interference --scale tiny
#   diff_check --scale tiny                               (182 oracle points)
#   tab02_configuration                                   (Table 2 as printed)
#   placement_sweep --stats-json  -w BFS,VADD -p migration,locality -s 6,8
#                                 (page migration, a non-power-of-two cube)
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent=$1
change=$2
for build in "$parent" "$change"; do
  for prog in examples/sndpsim bench/fig08_stall_breakdown bench/tenant_interference \
      bench/diff_check bench/tab02_configuration bench/placement_sweep; do
    if [[ ! -x "$build/$prog" ]]; then
      echo "$0: missing $build/$prog" >&2
      exit 2
    fi
  done
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

n=0
# check NAME: cmp the parent and change outputs of comparison $n.
check() {
  if ! cmp -s "$out/$n.parent" "$out/$n.change"; then
    echo "DIFFERS    $1"
    diff "$out/$n.parent" "$out/$n.change" | head -20
    exit 1
  fi
  echo "identical  $1"
}

# compare NAME PROG ARGS...: run PROG from both builds, cmp the stdouts.
compare() {
  local name=$1 prog=$2
  shift 2
  n=$((n + 1))
  "$parent/$prog" "$@" > "$out/$n.parent"
  "$change/$prog" "$@" > "$out/$n.change"
  check "$name"
}

# compare_json NAME PROG ARGS...: run PROG ARGS --stats-json from both
# builds, drop the JSON's wall-clock fields, cmp the stdout and the rest.
compare_json() {
  local name=$1 prog=$2
  shift 2
  n=$((n + 1))
  "$parent/$prog" "$@" --stats-json "$out/$n.parent.json" > "$out/$n.parent"
  "$change/$prog" "$@" --stats-json "$out/$n.change.json" > "$out/$n.change"
  local side
  for side in parent change; do
    python3 -c 'import json, sys
d = json.load(open(sys.argv[1]))
d["meta"].pop("jobs", None)
d["meta"].pop("total_point_wall_seconds", None)
for p in d["points"]:
    p.pop("timing", None)
json.dump(d, sys.stdout, indent=1, sort_keys=True)' "$out/$n.$side.json" >> "$out/$n.$side"
  done
  check "$name"
}

compare "sndpsim -w all -s tiny" examples/sndpsim --stats -w all -s tiny
compare "sndpsim -w all -s tiny -m always --seed 7" \
  examples/sndpsim --stats -w all -s tiny -m always --seed 7
compare "sndpsim -w all -s tiny -m static -r 0.3 --no-ff" \
  examples/sndpsim --stats -w all -s tiny -m static -r 0.3 --no-ff
compare "sndpsim -w all -s tiny -m off" examples/sndpsim --stats -w all -s tiny -m off
compare "sndpsim -w all -s tiny -m dyn -e 97 --epoch-csv -" \
  examples/sndpsim --stats -w all -s tiny -m dyn -e 97 --epoch-csv -
compare "sndpsim -w BFS -s small" examples/sndpsim --stats -w BFS -s small
compare "sndpsim -w all -s small" examples/sndpsim --stats -w all -s small
compare "sndpsim -w all -s tiny --ro-cache --optimal-target" \
  examples/sndpsim --stats -w all -s tiny --ro-cache --optimal-target
compare "sndpsim --tenants BFS:2:0,VADD,KMN --arbiter weighted" \
  examples/sndpsim --stats --tenants BFS:2:0,VADD,KMN --arbiter weighted
compare "sndpsim --tenants BFS:2:0,VADD,KMN --arbiter weighted --no-ff" \
  examples/sndpsim --stats --tenants BFS:2:0,VADD,KMN --arbiter weighted --no-ff
compare "sndpsim --tenants BFS:2:0,VADD,KMN --arbiter weighted -s tiny --credit-share 0.02" \
  examples/sndpsim --stats --tenants BFS:2:0,VADD,KMN --arbiter weighted -s tiny \
  --credit-share 0.02
compare_json "sndpsim --stats-json -w all -s tiny" examples/sndpsim -w all -s tiny
compare_json "sndpsim --stats-json --tenants BFS:2:0,VADD,KMN --arbiter weighted" \
  examples/sndpsim --tenants BFS:2:0,VADD,KMN --arbiter weighted
compare "fig08_stall_breakdown" bench/fig08_stall_breakdown
compare "tenant_interference --scale tiny" bench/tenant_interference --scale tiny
compare "diff_check --scale tiny" bench/diff_check --scale tiny
compare "tab02_configuration" bench/tab02_configuration
compare_json "placement_sweep --stats-json -w BFS,VADD -p migration,locality -s 6,8" \
  bench/placement_sweep -w BFS,VADD -p migration,locality -s 6,8 -j 4
echo "all $n outputs identical"
