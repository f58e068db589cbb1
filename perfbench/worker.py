"""One share of a benchmark run, in a fresh interpreter.

Times the set-up (import, scenario load with schema validation, evidence
fusion, model construction), then runs the listed starts of the workload
(one mode run each, at the pinned budget, with scenario seed
``seed * 1000 + start``), checks the outputs, and prints one JSON result
line. In search workloads start k of ``--of`` searches the k-th of that
many equal warning-time slices of the design box. With ``--trace 1`` the
starts are traced and the per-layer metrics are added. An empty
``--starts`` only measures the set-up.

    python3 perfbench/worker.py --workload det-front --seed 1 --starts 0,3,6 \
        --of 9 --trace 0 --out .perfbench_out/det-front/c0 [--accuracy] [--smoke]
"""
import time

from speedclock import SpeedClock, kernel, to_reference

KERNEL_BEFORE_SETUP = kernel()
T0 = time.perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import (  # noqa: E402
    MAX_DESIGN, MAX_DESIGN_FLOOR, PANEL, workload,
)

REFERENCES = HERE / "references.json"
PROB_ROUNDING = 1e-12


class Counters:
    """Bare counters and budget checks around the public entry points the
    output checks need; cheap enough to stay on in untraced runs. Every
    model evaluation first calls ``tick``, which lets the speed clock cut
    a segment between evaluations."""

    def __init__(self, mission, cli, search):
        self.evaluations = 0
        self.distinct = 0
        self.inner_searches = 0
        self.inner_evals = 0
        self.inner_off_budget = 0
        self.tick = lambda: None
        model_cls = mission.DeflectionModel
        self._patch(model_cls, "evaluate", self._count_evaluation)
        self._patch(model_cls, "mass_only", self._ticking)
        self._patch(search.ParetoArchive, "add", self._count_distinct)
        for owner in (mission, cli):
            self._patch(owner, "inner_bound_search", self._check_inner)

    @staticmethod
    def _patch(owner, attr, make):
        setattr(owner, attr, make(getattr(owner, attr)))

    def _count_evaluation(self, fn):
        def evaluate(*args, **kwargs):
            self.tick()
            self.evaluations += 1
            return fn(*args, **kwargs)
        return evaluate

    def _ticking(self, fn):
        def mass_only(*args, **kwargs):
            self.tick()
            return fn(*args, **kwargs)
        return mass_only

    def _count_distinct(self, fn):
        def add(*args, **kwargs):
            self.distinct += 1
            return fn(*args, **kwargs)
        return add

    def _check_inner(self, fn):
        def inner_bound_search(f, dim, sense, budget, *args, **kwargs):
            res = fn(f, dim, sense, budget, *args, **kwargs)
            self.inner_searches += 1
            self.inner_evals += res.evaluations
            if res.evaluations != budget:
                self.inner_off_budget += 1
            return res
        return inner_bound_search


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_archive(path: Path, bounds: dict) -> tuple[list[tuple[str, bool, str]], list]:
    """Finite, inside the design box, mutually nondominated; returns the
    checks and the archive's (mass, b) points."""
    header, rows = read_csv(path)
    col = {name: header.index(name) for name in header}
    numeric = [name for name in header if name != "mode"]
    values = [[float(r[col[n]]) for n in numeric] for r in rows]
    finite = len(values) > 0 and all(math.isfinite(v) for row in values for v in row)
    inside = all(
        bounds[n][0] <= float(r[col[n]]) <= bounds[n][1]
        for r in rows for n in ("d_m", "n_sc", "t_warn", "c_r")
    )
    pts = [(float(r[col["m_sys_kg"]]), float(r[col["b_km"]])) for r in rows]

    def dominates(p, q):
        return p[0] <= q[0] and p[1] >= q[1] and p != q

    nondominated = not any(dominates(p, q) for p in pts for q in pts)
    checks = [
        ("archive finite", finite, f"{len(rows)} members"),
        ("archive inside design bounds", inside, ""),
        ("archive mutually nondominated", nondominated, ""),
    ]
    return checks, pts


def check_curve(path: Path) -> tuple[str, bool, str]:
    _, rows = read_csv(path)
    bel = [float(r[1]) for r in rows]
    pl = [float(r[2]) for r in rows]
    # the masses are sums of products of bpas: allow their rounding
    # (Pl reads 1 + 4e-16 on full curves)
    ok = (
        len(rows) > 1
        and all(0.0 <= b <= p <= 1.0 + PROB_ROUNDING for b, p in zip(bel, pl))
        and all(x <= y for x, y in zip(bel, bel[1:]))
        and all(x <= y for x, y in zip(pl, pl[1:]))
    )
    return (f"{path.name}: 0 <= Bel <= Pl <= 1, nondecreasing in v", ok, f"{len(rows)} thresholds")


def accuracy(model_off, model_wl, contamination: bool, scenario_path: Path,
             parse_design, fixed: dict) -> tuple[list[tuple[str, bool, str]], dict]:
    """Relative b error of FPET over the stored reference panel."""
    refs = json.loads(REFERENCES.read_text())
    digest = hashlib.sha256(scenario_path.read_bytes()).hexdigest()
    checks = [("references match the scenario file", refs["scenario_sha256"] == digest, "")]
    table = refs["on" if contamination else "off"]
    errors = {}
    for text in PANEL:
        b = model_wl.evaluate(parse_design(text), fixed).b
        ref = table[text]
        errors[text] = {"rel_err": abs(b - ref["b_km"]) / ref["b_km"], "ref_gap": ref["gap_rel"]}
    worst = max(errors, key=lambda k: errors[k]["rel_err"])
    b_max = model_off.evaluate(parse_design(MAX_DESIGN), fixed).b
    ref_max = refs["off"][MAX_DESIGN]["b_km"]
    err_max = abs(b_max - ref_max) / ref_max
    checks.append((
        "max design, contamination off, within the 1e-3 floor",
        err_max <= MAX_DESIGN_FLOOR, f"rel err {err_max:.3e}",
    ))
    return checks, {
        "b_rel_err_max": errors[worst]["rel_err"],
        "b_rel_err_argmax": worst,
        "b_ref_gap_at_argmax": errors[worst]["ref_gap"],
        "b_panel": errors,
    }


def start_scenario(scenario, seed: int, k: int, n_starts: int):
    """Scenario of start k: its own seed and, since a design's cost grows
    with its warning time, the k-th equal warning-time slice of the design
    box, so every run covers the box evenly whatever the seed."""
    lo, hi = scenario.design_bounds["t_warn"]
    width = (hi - lo) / n_starts
    bounds = dict(scenario.design_bounds, t_warn=(lo + k * width, lo + (k + 1) * width))
    seed = seed * 1000 + k
    return replace(scenario, seed=seed, design_bounds=bounds,
                   solver=replace(scenario.solver, seed=seed))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--starts", default="")
    parser.add_argument("--of", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--accuracy", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    spec = workload(args.workload, args.smoke)

    import numpy
    import scipy
    import neodeflect.cli as cli
    from neodeflect import mission, search
    from neodeflect.sizing import UNIT_MARGINS

    scenario_path = mission.reference_scenario_path()
    scenario = mission.load_scenario(scenario_path)
    scenario = replace(scenario, solver=replace(scenario.solver, **spec["solver"]))
    contamination = spec["contamination"]
    mission.evidence_structure(scenario)  # opinion fusion, timed as set-up
    if spec["mode"] == "bpcurve":
        model = mission.DeflectionModel(scenario, contamination, UNIT_MARGINS)
    else:
        model = mission.make_model(scenario, spec["mode"], contamination)
    setup_raw_s = time.perf_counter() - T0
    setup_s = to_reference(setup_raw_s, KERNEL_BEFORE_SETUP, kernel())

    counters = Counters(mission, cli, search)
    tracer = None
    if args.trace:
        from tracer import CALIBRATION, Tracer
        tracer = Tracer()
        tracer.install()

    indices = [int(k) for k in args.starts.split(",") if k]
    starts = [start_scenario(scenario, args.seed, k, args.of) for k in indices]
    shutil.rmtree(args.out, ignore_errors=True)
    args.out.mkdir(parents=True)
    outs = [args.out / f"start{k}" for k in indices]
    # the clock cuts between model evaluations; traced, each calibration
    # is a span of its own, so no layer's self time includes it
    clock = SpeedClock()
    counters.tick = clock.tick if tracer is None else tracer.wrap(CALIBRATION, clock.tick)
    files = []
    start_walls = []
    for run_scenario, out in zip(starts, outs):
        out.mkdir(parents=True)
        before = clock.ref_s
        if spec["mode"] == "bpcurve":
            names = cli.run_bpcurve(
                run_scenario, cli.parse_design(spec["design"]), contamination, out,
                spec["n_v"], spec["max_partitions"],
            )
        else:
            names = cli.run_optimization(run_scenario, spec["mode"], contamination, out)
        clock.cut()
        start_walls.append(clock.ref_s - before)
        files += [out / name for name in names]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "wall_s": clock.ref_s,
        "wall_raw_s": clock.raw_s,
        "start_walls_s": start_walls,
        "evaluations": counters.evaluations,
        "peak_rss_mb": peak_rss_mb,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    result["output_digests"] = {
        str(path.relative_to(args.out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in files
    }
    result["output_bytes"] = sum(path.stat().st_size for path in files)

    checks = []
    if spec["mode"] == "bpcurve":
        for out in outs:
            checks += [check_curve(out / "belpl_b.csv"), check_curve(out / "belpl_m_sys.csv")]
    elif starts:
        front = []
        for run_scenario, out in zip(starts, outs):
            archive_checks, points = check_archive(
                out / f"archive_{spec['mode']}.csv", run_scenario.design_bounds
            )
            checks += archive_checks
            front += points
        result["front"] = front
        budget = scenario.solver.outer_budget * len(starts)
        checks.append((
            "distinct outer evaluations equal outer_budget",
            counters.distinct == budget, f"{counters.distinct} of {budget}",
        ))
    if counters.inner_searches:
        checks.append((
            "every inner search used exactly inner_budget",
            counters.inner_off_budget == 0,
            f"{counters.inner_off_budget} of {counters.inner_searches} off budget",
        ))

    if tracer is not None:
        layers = tracer.layer_metrics(clock.raw_s)
        layers["cli.output_bytes"] = result["output_bytes"]
        layers["search.inner.evals"] = counters.inner_evals
        result["layers"] = layers
        tracer.save(args.out / "spans.npz")
        checks.append((
            "layer self times sum to within 5% of the traced wall",
            abs(layers["trace.self_sum_frac"] - 1.0) <= 0.05,
            f"sum/wall {layers['trace.self_sum_frac']:.4f}",
        ))

    if args.accuracy:
        model_off = mission.DeflectionModel(scenario, False, UNIT_MARGINS)
        acc_checks, result["accuracy"] = accuracy(
            model_off, model, contamination, scenario_path, cli.parse_design,
            scenario.fixed_uncertain,
        )
        checks += acc_checks

    result["checks"] = [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
