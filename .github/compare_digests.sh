#!/usr/bin/env bash
# Compare the delta path's output with another tree's, such as a worktree
# of the base commit:
#
#   bash .github/compare_digests.sh BASE_TREE
#
# Runs .github/replay_digest.py WORKLOAD 1 10000 in this checkout and in
# BASE_TREE for the three benchmark workloads, and prints per workload
# whether the events digests are equal, then both stats lines. 10,000
# updates reach flat-growth's avg writes, which begin at update 4,801.
# Exits 1 when an events digest differs. The stats lines never fail the
# check, since a change may add a DetectStats field.
set -euo pipefail

base=$1
here=$(cd "$(dirname "$0")/.." && pwd)
n=10000
status=0
for w in flat-growth join-churn bloomberg-scaled; do
  head_out=$(python3 "$here/.github/replay_digest.py" "$w" 1 "$n")
  base_out=$(python3 "$base/.github/replay_digest.py" "$w" 1 "$n")
  if [ "$(grep '^events ' <<<"$head_out")" = "$(grep '^events ' <<<"$base_out")" ]; then
    verdict="equal events"
  else
    verdict="DIFFERENT events"
    status=1
  fi
  echo "$w seed 1, $n updates: $verdict"
  echo "  base $(grep '^stats ' <<<"$base_out")"
  echo "  head $(grep '^stats ' <<<"$head_out")"
done
exit $status
