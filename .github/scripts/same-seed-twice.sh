#!/usr/bin/env bash
# Run one seeded command twice and require byte-identical artifacts.
#
#   .github/scripts/same-seed-twice.sh python -m repro simulate ... \
#       --trace report-{run}-trace.json --report report-{run}.json
#
# The command is given once.  Every argument that contains the literal
# {run} names an artifact: the command runs with {run} = a, then with
# {run} = b, each a/b pair must `cmp` equal, and the pair that follows
# --report (a RunReport) must also come out clean from `repro diff`.
# Later steps of a job read the run-a files.
set -euo pipefail

artifacts=()
report=""
previous=""
for argument in "$@"; do
  if [[ $argument == *"{run}"* ]]; then
    artifacts+=("$argument")
    if [[ $previous == --report ]]; then
      report=$argument
    fi
  fi
  previous=$argument
done
if [[ ${#artifacts[@]} -eq 0 ]]; then
  echo "usage: $0 COMMAND... with {run} in every artifact path" >&2
  exit 2
fi

for run in a b; do
  "${@//\{run\}/$run}"
done
for artifact in "${artifacts[@]}"; do
  cmp "${artifact//\{run\}/a}" "${artifact//\{run\}/b}"
  echo "byte-identical: ${artifact//\{run\}/a} ${artifact//\{run\}/b}"
done
if [[ -n $report ]]; then
  python -m repro diff "${report//\{run\}/a}" "${report//\{run\}/b}"
fi
