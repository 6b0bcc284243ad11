#!/usr/bin/env bash
# Identity matrix for changes that must not move any simulated number.
#
#   tests/identity_check.sh PARENT_BUILD CHANGE_BUILD
#
# Both arguments are CMake build directories (one per commit, each from its
# own checkout).  The script runs the same commands with each build's
# `examples/sndpsim` and `bench/fig08_stall_breakdown`, compares the two
# outputs byte for byte, and exits 1 on the first difference (0 when every
# pair is identical, 2 on bad usage).
#
#   sndpsim --stats  -w all -s tiny                       (dyn-cache default)
#   sndpsim --stats  -w all -s tiny -m always --seed 7
#   sndpsim --stats  -w all -s tiny -m static -r 0.3 --no-ff
#   sndpsim --stats  -w BFS -s small
#   sndpsim --stats  --tenants BFS:2:0,VADD,KMN --arbiter weighted
#   fig08_stall_breakdown
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent=$1
change=$2
for build in "$parent" "$change"; do
  for prog in examples/sndpsim bench/fig08_stall_breakdown; do
    if [[ ! -x "$build/$prog" ]]; then
      echo "$0: missing $build/$prog" >&2
      exit 2
    fi
  done
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

n=0
# compare NAME PROG ARGS...: run PROG from both builds, cmp the stdouts.
compare() {
  local name=$1 prog=$2
  shift 2
  n=$((n + 1))
  "$parent/$prog" "$@" > "$out/$n.parent"
  "$change/$prog" "$@" > "$out/$n.change"
  if ! cmp -s "$out/$n.parent" "$out/$n.change"; then
    echo "DIFFERS    $name"
    diff "$out/$n.parent" "$out/$n.change" | head -20
    exit 1
  fi
  echo "identical  $name"
}

compare "sndpsim -w all -s tiny" examples/sndpsim --stats -w all -s tiny
compare "sndpsim -w all -s tiny -m always --seed 7" \
  examples/sndpsim --stats -w all -s tiny -m always --seed 7
compare "sndpsim -w all -s tiny -m static -r 0.3 --no-ff" \
  examples/sndpsim --stats -w all -s tiny -m static -r 0.3 --no-ff
compare "sndpsim -w BFS -s small" examples/sndpsim --stats -w BFS -s small
compare "sndpsim --tenants BFS:2:0,VADD,KMN --arbiter weighted" \
  examples/sndpsim --stats --tenants BFS:2:0,VADD,KMN --arbiter weighted
compare "fig08_stall_breakdown" bench/fig08_stall_breakdown
echo "all $n outputs identical"
