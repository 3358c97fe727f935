"""Write benchmark workloads as directories that ``hof`` reads.

    python3 .github/write_workload.py workload NAME SEED N DIR
        the catalog, one CSV per relation and the first N updates of the
        seeded workload NAME (see perfbench/workloads.py) as
        DIR/catalog.yaml, DIR/<relation>.csv and DIR/updates.jsonl
    python3 .github/write_workload.py reversed SRC DIR
        SRC's catalog and CSVs, each CSV's data rows in reverse order
    python3 .github/write_workload.py real SRC N DIR COLUMN...
        SRC's catalog, CSVs and first N updates with the integer COLUMNs
        retyped real, each value v written as v * 0.37 + 0.1

DIR must not exist yet. perfbench/ is only read.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no cache files under perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def write_dir(out: Path, catalog_text: str, csvs: dict[str, str], updates: list[str] | None = None) -> None:
    out.mkdir()
    (out / "catalog.yaml").write_text(catalog_text)
    for rel, text in csvs.items():
        (out / f"{rel}.csv").write_text(text)
    if updates is not None:
        (out / "updates.jsonl").write_text("".join(line + "\n" for line in updates))


def read_csvs(src: Path) -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(src.glob("*.csv"))}


def reversed_rows(text: str) -> str:
    header, *rows = text.splitlines()
    return "\n".join([header, *rows[::-1]]) + "\n"


def retyped(catalog_text: str, csvs: dict[str, str], updates: list[str], columns: list[str]):
    """The catalog, CSVs and update lines with the integer columns retyped real."""

    def real(v: int) -> float:
        return v * 0.37 + 0.1

    for col in columns:
        catalog_text = catalog_text.replace("{name: %s, type: integer}" % col, "{name: %s, type: real}" % col)
    out_csvs = {}
    for rel, text in csvs.items():
        header, *rows = text.splitlines()
        names = header.split(",")
        at = [names.index(col) for col in columns if col in names]
        lines = [header]
        for row in rows:
            cells = row.split(",")
            for i in at:
                cells[i] = repr(real(int(cells[i])))
            lines.append(",".join(cells))
        out_csvs[rel] = "\n".join(lines) + "\n"
    out_updates = []
    for line in updates:
        doc = json.loads(line)
        doc["set"] = {col: real(v) if col in columns else v for col, v in doc["set"].items()}
        out_updates.append(json.dumps(doc, sort_keys=True))
    return catalog_text, out_csvs, out_updates


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("workload")
    p.add_argument("name", choices=list(workloads.WORKLOADS))
    p.add_argument("seed", type=int)
    p.add_argument("n", type=int)
    p.add_argument("dir", type=Path)
    p = sub.add_parser("reversed")
    p.add_argument("src", type=Path)
    p.add_argument("dir", type=Path)
    p = sub.add_parser("real")
    p.add_argument("src", type=Path)
    p.add_argument("n", type=int)
    p.add_argument("dir", type=Path)
    p.add_argument("columns", nargs="+")
    args = parser.parse_args()

    if args.mode == "workload":
        w = workloads.WORKLOADS[args.name](args.seed, args.n)
        write_dir(args.dir, w.catalog_text, w.csvs, w.updates)
    elif args.mode == "reversed":
        csvs = {rel: reversed_rows(text) for rel, text in read_csvs(args.src).items()}
        write_dir(args.dir, (args.src / "catalog.yaml").read_text(), csvs)
    else:
        catalog_text = (args.src / "catalog.yaml").read_text()
        updates = (args.src / "updates.jsonl").read_text().splitlines()[: args.n]
        write_dir(args.dir, *retyped(catalog_text, read_csvs(args.src), updates, args.columns))


if __name__ == "__main__":
    main()
