#!/bin/sh
# usage: golden_test.sh <repo root> <hcs_sim>
#
# The golden scenarios regression-lock the report format, the federated
# engine, faults with gateway admission, and the capacity controller: each
# full report must match its scenarios/golden/<name>_report.json within
# tools/report_diff.py --rtol 1e-9.
root=$1
sim=$2
out=$(mktemp -d) || exit 1
trap 'rm -rf "$out"' EXIT
status=0
for s in smoke federation_sweep churn_overload elastic_burst; do
  if ! "$sim" run "$root/scenarios/$s.json" --quiet --out "$out/$s.json" \
      > /dev/null; then
    echo "$s: hcs_sim run failed"
    status=1
    continue
  fi
  python3 "$root/tools/report_diff.py" "$out/$s.json" \
      "$root/scenarios/golden/${s}_report.json" --rtol 1e-9 ||
    { echo "$s: report differs from its golden"; status=1; }
done
exit $status
