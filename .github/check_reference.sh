#!/usr/bin/env bash
# The delta path against its from-scratch reference on one workload
# directory: DIR holds catalog.yaml, the tables, queries.jsonl and
# updates.jsonl, and the remaining arguments are the hof command, e.g.
#
#   .github/check_reference.sh rows hof
#   .github/check_reference.sh rows env PYTHONPATH="$site" "$site/bin/hof"
#
# Runs hof run with and without filters, then fails unless the event log
# is not empty, equals the reference's byte for byte, and both runs count
# the same changed rankings and the same reordered top-Ks per update.
set -euo pipefail
dir=$1
shift
common=(--config "$dir/catalog.yaml" --data-dir "$dir" --queries "$dir/queries.jsonl" --updates "$dir/updates.jsonl")
"$@" run "${common[@]}" --events "$dir/events.jsonl" --stats "$dir/stats.jsonl"
"$@" run "${common[@]}" --events "$dir/reference.jsonl" --stats "$dir/reference-stats.jsonl" --no-filters
test -s "$dir/events.jsonl"
cmp "$dir/events.jsonl" "$dir/reference.jsonl"
# per update, the delta path and its reference must count the same
# changed rankings and reordered top-Ks, not only write the same events
python3 - "$dir/stats.jsonl" "$dir/reference-stats.jsonl" <<'PY'
import json, sys
def counts(path):
    with open(path) as f:
        return [(doc["seq"], doc["changed"], doc["reordered"]) for doc in map(json.loads, f)]
ours, reference = counts(sys.argv[1]), counts(sys.argv[2])
diff = [(a, b) for a, b in zip(ours, reference) if a != b]
if len(ours) != len(reference) or diff or not ours:
    sys.exit(f"{sys.argv[1]}: per-seq (changed, reordered) differs from the reference: {diff[:5]}")
PY
