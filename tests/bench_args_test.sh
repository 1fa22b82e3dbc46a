#!/bin/sh
# usage: bench_args_test.sh <bench>
#
# Each bad --set must make the bench exit 2 with `<bench>: <message>`, and
# the message must name the offending key.
bench=$1
status=0
check() {  # check <path=value> <word the message must contain>
  err=$("$bench" --set "$1" 2>&1 >/dev/null)
  code=$?
  case "$code:$err" in
    "2:$bench: "*"$2"*) ;;
    *) echo "--set $1: exit $code, stderr: $err"; status=1 ;;
  esac
}
check run.trials=abc run.trials        # malformed value
check run.bogus=1 bogus                # unknown key
check sim.heuristic=MSD sim.heuristic  # a key this bench does not read
check run.scale=1e-9 run.scale         # a scale that leaves no tasks
check run.scale=3e-5 run.scale         # ... at the bench's lowest rate
exit $status
