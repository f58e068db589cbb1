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

prints one line for every CSV under the first directory whose bytes differ
from its namesake under the second: a change in the number of data rows,
or else, over the rows paired in order, the largest absolute and relative
difference of a numeric cell and the number of other cells that differ.
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


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as handle:
        return list(csv.reader(handle))[1:]


def compare(old: Path, new: Path) -> None:
    for path in sorted(old.rglob("*.csv")):
        name = path.relative_to(old)
        other = new / name
        if not other.exists():
            print(f"{name}: missing under {new}")
            continue
        if path.read_bytes() == other.read_bytes():
            continue
        rows_old, rows_new = _rows(path), _rows(other)
        if len(rows_old) != len(rows_new):
            print(f"{name}: rows {len(rows_old)} -> {len(rows_new)}")
            continue
        max_abs = max_rel = 0.0
        other_cells = 0
        for row_old, row_new in zip(rows_old, rows_new):
            for a, b in zip(row_old, row_new):
                try:
                    x, y = float(a), float(b)
                except ValueError:
                    other_cells += a != b
                    continue
                diff = abs(x - y)
                max_abs = max(max_abs, diff)
                if diff:
                    max_rel = max(max_rel, diff / max(abs(x), abs(y)))
        print(f"{name}: {len(rows_old)} rows, max abs {max_abs:.3g}, "
              f"max rel {max_rel:.3g}, other cells {other_cells}")


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
