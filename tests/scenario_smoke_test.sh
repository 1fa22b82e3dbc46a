#!/bin/sh
# usage: scenario_smoke_test.sh <scenario dir> <hcs_sim>
#
# Every committed scenario runs to completion at a tiny scale, and a
# streamed trial is the materialized trial (docs/determinism.md): the
# `--csv` output must be byte-identical with stream.enabled false and true.
dir=$1
sim=$2
out=$(mktemp -d) || exit 1
trap 'rm -rf "$out"' EXIT
status=0
for f in "$dir"/*.json; do
  for s in false true; do
    if ! "$sim" run "$f" --quiet --csv --set run.trials=2 \
        --set run.scale=0.02 --set stream.enabled=$s > "$out/$s.csv" ||
        [ ! -s "$out/$s.csv" ]; then
      echo "$f failed (stream.enabled=$s)"
      status=1
      continue 2
    fi
  done
  cmp "$out/false.csv" "$out/true.csv" ||
    { echo "$f: streamed and materialized output differ"; status=1; }
done
exit $status
