#!/usr/bin/env python3
"""sha256 of every CLI output at tiny budgets, for byte-identity checks.

Runs ``propagate --oracle``, ``deterministic``, ``minmin``,
``minmin-margins``, ``minmax``, ``bpcurve`` and ``sensitivity`` from the
source tree TREE, each with contamination off and on, on TREE's reference
scenario at outer budget 14, outer pop 4, inner budget 8, inner pop 4 and
seed 5. ``propagate``, ``bpcurve`` and ``sensitivity`` run at design
20,10,2,3000; the last two with ``--nv 5``, and ``bpcurve`` also with
``--max-partitions 12``. Every run writes under OUT/<mode>-<off|on>/ and
the script prints one ``sha256  mode-contamination/file`` line per file,
manifests included. The scenario and the expert opinions are copied into
OUT and every run starts there, so the manifests of two trees compare
equal when their code does.

Compare two trees by diffing their listings:

    python3 scripts/cli_digests.py . /tmp/digests-new > new.txt
    python3 scripts/cli_digests.py ../parent /tmp/digests-old > old.txt
    diff old.txt new.txt

Where payloads differ on purpose, size the difference numerically:

    python3 scripts/cli_digests.py --compare /tmp/digests-old /tmp/digests-new

prints one line for every file whose bytes differ between the two
directories, or that only one of them holds. For a CSV, cells are paired
by column name, so a reordered column is no difference; the line names the
columns only one side has, then gives a change in the number of data rows,
or else, over the rows paired in order and the columns both sides have,
the largest absolute and relative difference of a numeric cell and the
number of other cells that differ. For a JSON object, the line names the
leaf keys, dotted through nested objects, whose values differ or that only
one side has. Any other file is named with "bytes differ".
"""
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

SOLVER = {"outer_budget": 14, "outer_pop": 4, "explorers": 1,
          "inner_budget": 8, "inner_pop": 4, "archive_capacity": 50}
SEED = "5"
DESIGN = "20,10,2,3000"
RUNS = (
    ("propagate", ["--design", DESIGN, "--oracle"]),
    ("deterministic", []),
    ("minmin", []),
    ("minmin-margins", []),
    ("minmax", []),
    ("bpcurve", ["--design", DESIGN, "--nv", "5", "--max-partitions", "12"]),
    ("sensitivity", ["--design", DESIGN, "--nv", "5"]),
)


def write_scenario(tree: Path, out: Path) -> None:
    data = tree / "src" / "neodeflect" / "data"
    doc = json.loads((data / "reference_scenario.json").read_text())
    doc["solver"] = SOLVER
    shutil.copyfile(data / doc["expert_opinions_file"], out / "expert_opinions.json")
    doc["expert_opinions_file"] = "expert_opinions.json"
    (out / "scenario.json").write_text(json.dumps(doc, indent=2) + "\n")


def _table(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    return (rows[0], rows[1:]) if rows else ([], [])


def _csv_notes(path: Path, other: Path) -> str:
    (head_old, rows_old), (head_new, rows_new) = _table(path), _table(other)
    notes = []
    dropped = [c for c in head_old if c not in head_new]
    added = [c for c in head_new if c not in head_old]
    if dropped:
        notes.append(f"dropped columns {' '.join(dropped)}")
    if added:
        notes.append(f"added columns {' '.join(added)}")
    if len(rows_old) != len(rows_new):
        notes.append(f"rows {len(rows_old)} -> {len(rows_new)}")
        return ", ".join(notes)
    pairs = [(head_old.index(c), head_new.index(c)) for c in head_old if c in head_new]
    max_abs = max_rel = 0.0
    other_cells = 0
    for row_old, row_new in zip(rows_old, rows_new):
        for i, j in pairs:
            a, b = row_old[i], row_new[j]
            try:
                x, y = float(a), float(b)
            except ValueError:
                other_cells += a != b
                continue
            diff = abs(x - y)
            max_abs = max(max_abs, diff)
            if diff:
                max_rel = max(max_rel, diff / max(abs(x), abs(y)))
    notes.append(f"{len(rows_old)} rows, max abs {max_abs:.3g}, "
                 f"max rel {max_rel:.3g}, other cells {other_cells}")
    return ", ".join(notes)


def _leaves(value, prefix: str = "") -> dict:
    """Every leaf of a JSON value by its dotted key; a list is one leaf."""
    if not isinstance(value, dict):
        return {prefix: value}
    leaves = {}
    for key, item in value.items():
        leaves.update(_leaves(item, f"{prefix}.{key}" if prefix else key))
    return leaves


def _json_notes(path: Path, other: Path) -> str:
    old, new = json.loads(path.read_text()), json.loads(other.read_text())
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return "bytes differ"
    a, b = _leaves(old), _leaves(new)
    keys = [k for k in sorted(a.keys() | b.keys()) if k not in a or k not in b or a[k] != b[k]]
    return f"keys differ: {' '.join(keys)}" if keys else "bytes differ, every value equal"


def compare(old: Path, new: Path) -> None:
    names = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    names |= {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    for name in sorted(names):
        path, other = old / name, new / name
        if not other.exists():
            print(f"{name}: missing under {new}")
        elif not path.exists():
            print(f"{name}: only under {new}")
        elif path.read_bytes() != other.read_bytes():
            notes = {".csv": _csv_notes, ".json": _json_notes}.get(name.suffix)
            print(f"{name}: {notes(path, other) if notes else 'bytes differ'}")


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        compare(Path(argv[1]), Path(argv[2]))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    tree, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    write_scenario(tree, out)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for mode, extra in RUNS:
        for contamination in ("off", "on"):
            run = f"{mode}-{contamination}"
            shutil.rmtree(out / run, ignore_errors=True)
            cmd = [sys.executable, "-m", "neodeflect.cli", "--mode", mode,
                   "--scenario", "scenario.json", "--contamination", contamination,
                   "--seed", SEED, "--out", run, *extra]
            done = subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{run}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            for path in sorted((out / run).iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {run}/{path.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
