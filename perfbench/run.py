"""Benchmark of the optimization-facing neodeflect CLI modes.

    python3 perfbench/run.py --workload det-front --seed 1 --seconds 30 --trace 0

A run makes a fixed number of starts of the workload, each one mode run
at the pinned budget with its own scenario seed derived from ``--seed``;
the searches each cover one warning-time slice of the design box.
The count is ``--seconds`` over the workload's ``start_s``, so a run
measures for about ``--seconds`` at the speed the benchmark was sized on
and the work stays fixed when the program gets faster. The slices keep the
design mix, which sets the cost, the same from seed to seed. The starts
are shared round-robin among ``CHILDREN`` fresh single-threaded
interpreters (perfbench/worker.py), each of which also times its own
set-up.

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` half as many starts are made, one more interpreter
runs them all traced, and it prints the per-layer metrics, including the
tracing overhead. Wall and set-up times are in reference-speed seconds
(speedclock.py). Output checks run in every interpreter and failed checks
count into ``failed``; an interpreter that fails ends the run without a
result. The last line of standard output is the JSON result.
"""
import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    HV_REF_B_KM, HV_REF_MASS_KG, WORKLOADS, workload,
)

CHILDREN = 3
# every run, its children included, ends within this
DEADLINE_S = 170.0
NOISE_NOTE = (
    "identical belpl-curve runs took 8.4-12.8 s on a 2-core Xeon host with "
    "CPU time tracking wall time at a ratio of 0.98: the spread is "
    "machine-speed drift, not scheduling; fixed work there ran up to 2.3x "
    "faster or slower in phases of 5-30 s, so wall_s and setup_s are "
    "rescaled to a reference speed measured by a calibration kernel"
)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def hypervolume(points) -> float:
    """Area dominated by (mass, log10 b) points, less mass and more b being
    better, inside the stored reference point. b spans orders of magnitude
    across the design box, so it enters on a log scale."""
    ref = math.log10(HV_REF_B_KM)
    pts = sorted((m, math.log10(b)) for m, b in points if m < HV_REF_MASS_KG and b > HV_REF_B_KM)
    area, best = 0.0, ref
    for k, (m, y) in enumerate(pts):
        best = max(best, y)
        m_next = pts[k + 1][0] if k + 1 < len(pts) else HV_REF_MASS_KG
        area += (m_next - m) * (best - ref)
    return area


def run_child(args, tag: str, starts: list[int], n_starts: int, traced: bool,
              accuracy: bool, deadline: float) -> dict | None:
    """One worker interpreter; None when it failed or overran."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--starts", ",".join(map(str, starts)),
        "--of", str(n_starts),
        "--trace", str(int(traced)), "--out", str(OUT / args.workload / tag),
    ]
    if accuracy:
        cmd.append("--accuracy")
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    remaining = deadline - time.monotonic()
    if remaining <= 0.0:
        print(f"# {tag}: not started, out of time", file=sys.stderr)
        return None
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        print(f"# {tag}: timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"# {tag}: worker failed (exit {proc.returncode})\n{proc.stderr}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def end_to_end(spec: dict, plain: list[dict]) -> dict:
    evals_per_s = (sum(r["evaluations"] for r in plain)
                   / sum(r["wall_s"] for r in plain))
    front = [tuple(p) for r in plain for p in r.get("front", [])]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "wall_s": getattr(statistics, spec["wall_stat"])(
            [w for r in plain for w in r["start_walls_s"]]
        ),
        "evals_per_s": evals_per_s,
        "shipped_cpu_h": spec["shipped_evals"] / evals_per_s / 3600.0,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
        "b_rel_err_max": plain[0]["accuracy"]["b_rel_err_max"],
        # measured where there is a deterministic front; elsewhere a fixed
        # not-applicable marker, since every metric must be printed
        "front_hv": hypervolume(front) if spec["mode"] == "deterministic" else 1.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets, for the benchmark's own smoke test")
    args = parser.parse_args()
    if not (ROOT / "src" / "neodeflect" / "__init__.py").is_file():
        print(f"error: no neodeflect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS or args.seed < 0:
        print("error: unknown workload or negative seed", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = workload(args.workload, args.smoke)
    # traced, the starts run twice (untraced and traced), so half of them
    n_starts = max(1, round(args.seconds / (1 + args.trace) / spec["start_s"]))

    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    deadline = time.monotonic() + DEADLINE_S
    shares = [list(range(c, n_starts, CHILDREN)) for c in range(CHILDREN)]
    jobs = [(f"c{c}", share, False, c == 0) for c, share in enumerate(shares)]
    if args.trace:
        jobs.append(("traced", list(range(n_starts)), True, False))
    results = {tag: run_child(args, tag, share, n_starts, traced, acc, deadline)
               for tag, share, traced, acc in jobs}

    if None in results.values():
        print("error: a worker failed; no result", file=sys.stderr)
        return 1
    attempted = len(results)
    failed = 0
    for r in results.values():
        for check in r["checks"]:
            attempted += 1
            if not check["ok"]:
                failed += 1
                print(f"# check failed: {check['name']} {check['detail']}", file=sys.stderr)
    plain = [results[f"c{c}"] for c in range(CHILDREN)]
    traced = results.get("traced")
    if traced is not None:
        # tracing must not change what the program writes
        attempted += 1
        untraced = {k: v for r in plain for k, v in r["output_digests"].items()}
        if untraced != traced["output_digests"]:
            failed += 1
            print("# check failed: traced outputs differ from untraced", file=sys.stderr)
        values = dict(traced["layers"])
        values["trace.overhead_frac"] = (
            traced["wall_s"] / sum(r["wall_s"] for r in plain) - 1.0
        )
    else:
        values = end_to_end(spec, plain)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "starts": n_starts, "children": CHILDREN,
        "budgets": {k: v for k, v in spec.items() if k != "shipped_evals"},
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "versions": plain[0]["versions"],
        "noise_note": NOISE_NOTE,
        "accuracy": plain[0]["accuracy"],
        "failed_frac": failed / attempted,
        "setup_raw_s": statistics.median(r["setup_raw_s"] for r in plain),
        "wall_raw_s": sum(r["wall_raw_s"] for r in plain),
        "start_walls_s": [w for r in plain for w in r["start_walls_s"]],
        "checks_run": sorted({c["name"] for r in results.values() for c in r["checks"]}),
    }
    print("# " + json.dumps(record, sort_keys=True))
    for name, metric in metrics.items():
        print(f"# {name:36s} {metric['value']:.6g} {metric['unit']}")
    print(f"# {'failed_frac':36s} {failed / attempted:.6g} (failed {failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
