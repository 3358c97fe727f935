"""Digests of the delta path's output on a benchmark workload.

    python3 .github/replay_digest.py WORKLOAD SEED N [--fields F,F,...]

Replays the first N updates of the seeded workload WORKLOAD (see
perfbench/workloads.py) through perfbench/replay.py's ``Replay``, as the
benchmark does, with the engine of this checkout's src/. Prints two lines:

    events <sha256 of the event lines, one per line>
    stats <sha256 of every update's DetectStats, one JSON list per line>

An update the store rejects gives the stats line "failed". --fields names
the DetectStats fields to digest, in order (default: all of them), so a
tree whose DetectStats has more fields can be compared with one that has
fewer. Two trees that give the same digests wrote the same events and
counted the same. perfbench/ is only read.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no cache files under perfbench/
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import replay  # noqa: E402
import workloads  # noqa: E402
from halloffame.detector import DetectStats  # noqa: E402


def digests(name: str, seed: int, n: int, fields: list[str]) -> tuple[str, str]:
    """(events digest, stats digest) of the first n updates."""
    w = workloads.WORKLOADS[name](seed, n)
    rp = replay.Replay(replay.setup(w))
    events, stats = hashlib.sha256(), hashlib.sha256()
    for line in w.updates:
        failed = rp.failed
        for event_line in rp.step(line):
            events.update(event_line.encode() + b"\n")
        st = rp.engine.last_stats
        row = "failed" if rp.failed > failed else json.dumps([getattr(st, f) for f in fields])
        stats.update(row.encode() + b"\n")
    return events.hexdigest(), stats.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("n", type=int)
    names = [f.name for f in dataclasses.fields(DetectStats)]
    parser.add_argument("--fields", type=lambda s: s.split(","), default=names)
    args = parser.parse_args()
    unknown = [f for f in args.fields if f not in names]
    if unknown:
        parser.error(f"not DetectStats fields: {', '.join(unknown)}")
    events, stats = digests(args.workload, args.seed, args.n, args.fields)
    print("events", events)
    print("stats", stats)


if __name__ == "__main__":
    main()
