#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, summarised as BENCH_*.json.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W \\
        --seeds 701 702 ... --out BENCH_N.json [--claim wall_s] [--trace-seed S] \\
        [--title TEXT] [--note TEXT]

Each seed makes one pair: ``python3 perfbench/run.py --workload W --seed S
--seconds 30 --trace 0`` runs in the parent tree and in the change tree, one
after the other, and the side that goes first alternates from pair to pair
(``first_in_pair``). Each tree runs its own ``perfbench/``; the script
refuses trees whose ``perfbench/`` files differ, so both sides measure with
identical benchmark code, and it changes nothing in either tree.

The workload's entry in OUT holds every run's failure counts and end-to-end
metrics, each metric's median and interquartile range on both sides, and
the pairs each metric's change side won (ties count for neither side; the
direction is the ``better`` field of BENCHMARK.json). ``--claim METRIC``
also writes the claim on that metric and workload, which is met when the
change wins at least nine tenths of the pairs and the medians differ, in
the better direction, by more than the parent's interquartile range.
``--trace-seed S`` adds one traced run per side (``--trace 1``) with its
per-layer metrics. Its times are raw seconds, not rescaled, so each
``*.self_s`` is also written as a share of that run's ``trace.wall_s``
(``*.self_frac``), which compares across a drifting host. ``--title``
names the change and ``--note`` keeps a remark in the workload's entry
(say, how its seeds were chosen); every field of OUT comes from the
script. Each tree is named by its git commit, "unknown" for a tree
without ``.git`` (a ``git archive`` copy), and by a sha256 of its ``src/``
file names and bytes (``parent_src_sha256``, ``change_src_sha256``). OUT
is updated in place, so one file collects several workloads; a workload
run again replaces its entry.
"""
import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

CLAIM_RULE = ("change wins >= 9 of 10 pairs and the median gap exceeds the "
              "parent's interquartile range")


def files_digest(root: Path, pattern: str) -> str:
    """sha256 over the names (relative to ``root``) and bytes of the files
    under ``root`` that match ``pattern``, in name order. What running or
    installing leaves there (``__pycache__``, ``*.egg-info``) is left out."""
    digest = hashlib.sha256()
    for path in sorted(root.glob(pattern)):
        if path.is_file() and not any(part == "__pycache__" or part.endswith(".egg-info")
                                      for part in path.relative_to(root).parts):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def perfbench_digest(tree: Path) -> str:
    return files_digest(tree / "perfbench", "*.py")


def src_digest(tree: Path) -> str:
    """The digest of every file of the tree's ``src/``: it names a tree that
    has no ``.git`` to name its commit."""
    return files_digest(tree / "src", "**/*")


def git_head(tree: Path) -> str:
    out = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int):
    """The result line and the run record of one perfbench run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    record = next(json.loads(line[2:]) for line in lines if line.startswith("# {"))
    return json.loads(lines[-1]), record


def quartile_gap(values) -> float:
    q1, q3 = np.percentile(values, [25, 75])
    return float(q3 - q1)


def summarise(runs: dict, metrics: list[dict]) -> tuple[dict, dict]:
    """Per-metric medians and interquartile ranges, and the change's wins."""
    medians, wins = {}, {}
    for metric in metrics:
        name = metric["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        medians[name] = {
            "parent_median": float(np.median(parent)), "parent_iqr": quartile_gap(parent),
            "change_median": float(np.median(change)), "change_iqr": quartile_gap(change),
        }
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins[name] = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    return medians, wins


def claim(metric: dict, workload: str, summary: dict, wins: int, pairs: int) -> dict:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    gap = sign * (summary["parent_median"] - summary["change_median"])
    return {
        "metric": metric["name"], "workload": workload, "rule": CLAIM_RULE,
        "change_wins": wins, "pairs": pairs,
        "parent_median": summary["parent_median"],
        "change_median": summary["change_median"],
        "parent_iqr": summary["parent_iqr"],
        "met": wins >= math.ceil(0.9 * pairs) and gap > summary["parent_iqr"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", help="end-to-end metric the change claims to improve")
    parser.add_argument("--trace-seed", type=int, help="seed of one traced run per side")
    parser.add_argument("--title", help="title of the change, kept in OUT")
    parser.add_argument("--note", help="remark on this workload's runs, kept in its entry")
    args = parser.parse_args()

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if perfbench_digest(trees["parent"]) != perfbench_digest(trees["change"]):
        print("error: the two trees' perfbench/ files differ", file=sys.stderr)
        return 2
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics = declared["end_to_end"]
    by_name = {m["name"]: m for m in metrics}
    if args.claim is not None and args.claim not in by_name:
        print(f"error: {args.claim} is not an end-to-end metric", file=sys.stderr)
        return 2
    seconds = declared["run_seconds"]

    runs = {"parent": [], "change": []}
    first_in_pair = []
    versions = None
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        first_in_pair.append(order[0])
        for side in order:
            result, record = run_once(trees[side], args.workload, seed, seconds, 0)
            versions = record["versions"]
            runs[side].append({
                "failed": result["failed"], "attempted": result["attempted"],
                **{name: m["value"] for name, m in result["metrics"].items()},
            })
            print(f"# pair {k + 1}/{len(args.seeds)} seed {seed} {side}: "
                  f"wall_s {runs[side][-1]['wall_s']:.4g}, failed {result['failed']}",
                  file=sys.stderr)

    medians, wins = summarise(runs, metrics)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.title:
        doc["title"] = args.title
    doc["parent_commit"] = git_head(trees["parent"])
    doc["change_commit"] = git_head(trees["change"])
    doc["parent_src_sha256"] = src_digest(trees["parent"])
    doc["change_src_sha256"] = src_digest(trees["change"])
    doc["command"] = (f"python3 perfbench/run.py --workload W --seed N "
                      f"--seconds {seconds:g} --trace 0")
    doc["procedure"] = (
        "written by scripts/bench_pairs.py: one pair per seed, the parent and "
        "the change run one after the other, alternating which side goes first "
        "(first_in_pair); each side runs its own tree with identical perfbench "
        "code. wall_s and setup_s are rescaled by perfbench's speed clock. "
        "wins counts the pairs each metric's change side won, ties for neither."
    )
    doc["machine"] = {"nproc": os.cpu_count(), "cpu_model": cpu_model(), "versions": versions}
    if args.claim is not None:
        doc["claim"] = claim(by_name[args.claim], args.workload, medians[args.claim],
                             wins[args.claim], len(args.seeds))
    doc.setdefault("workloads", {})[args.workload] = {
        "seeds": args.seeds, "first_in_pair": first_in_pair, "runs": runs,
        "medians": medians, "wins": wins,
    }
    if args.note:
        doc["workloads"][args.workload]["note"] = args.note
    if args.trace_seed is not None:
        traced = doc.setdefault("traced", {})
        traced["command"] = (f"python3 perfbench/run.py --workload W --seed N "
                             f"--seconds {seconds:g} --trace 1")
        traced["note"] = (
            "one traced run per side; its times (*.self_s, cli.phase.*_s, "
            "mission.evaluate.ms_*, fpet.us_per_arc, trace.wall_s) are raw, not "
            "rescaled, and carry the host's drift; each *.self_frac is that *.self_s "
            "as a share of the same run's trace.wall_s")
        traced[args.workload] = {"seed": args.trace_seed}
        for side in ("parent", "change"):
            result, _ = run_once(trees[side], args.workload, args.trace_seed, seconds, 1)
            layers = {name: m["value"] for name, m in result["metrics"].items()}
            wall = layers["trace.wall_s"]
            layers.update({name.replace(".self_s", ".self_frac"): value / wall
                           for name, value in list(layers.items()) if name.endswith(".self_s")})
            traced[args.workload][side] = layers
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.claim is not None:
        c = doc["claim"]
        print(f"# claim {c['metric']} on {c['workload']}: {c['change_wins']}/{c['pairs']} "
              f"wins, medians {c['parent_median']:.4g} -> {c['change_median']:.4g}, "
              f"parent IQR {c['parent_iqr']:.3g}, met {c['met']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
