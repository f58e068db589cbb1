"""Command-line orchestration: optimization runs, Bel/Pl curves, propagation.

Every run reads a scenario JSON, dispatches on the mode and writes CSV
payloads plus a manifest with full provenance (seed, configuration hash,
package version) under the output directory. Identical scenario and seed
reproduce byte-identical payloads under every BLAS kernel, except the RK
oracle's b in ``propagate --oracle``: its solver's dot products call BLAS,
and with contamination on it is not converged at rtol 1e-10 (README).

Each box of a Bel/Pl curve of b (``bpcurve``, ``sensitivity``) with
contamination off is bounded exactly by one FPET evaluation at each of two
corners (``mission.b_corners``): b is least at the dark corner and
greatest at the bright one, because it cannot rise with an asteroid
parameter nor fall with the flux, up to its rounding (measured at most
2.8e-5 km). A box thus costs 2 evaluations, where its two searches cost
2 x ``inner_budget``. With
contamination on b can rise with ``e_sub``, and each box is bounded by
one FPET evaluation at its dark corner and restart DE: where b is exactly
0.0 there, the box's minimum is certified 0.0 and only the maximum is
searched; elsewhere both are searched and the corner's value joins them.
``belpl_meta.json`` labels each curve's ends: both ``m_sys`` ends are
certified, being exact at the technology corners, and so are both b ends
with contamination off; with it on the lower b end is certified exactly
when it is 0.0, an evaluated value at the floor of a norm, and the upper
b end is a search's estimate.

The b of a ``minmin``, ``minmin-margins`` or ``minmax`` design follows the
same rules over the whole b marginal. With contamination off it is one
FPET evaluation, at the bright corner for the best case and at the dark
corner for the worst case, with the corner as its witness. With
contamination on the best case is a restart DE at ``inner_budget``, and
the worst case is b at the dark corner where that is exactly 0.0
(``search.zero_or_search``), with no search; otherwise restart DE runs at
``inner_budget``, the corner one of its evaluations. ``extremes_*.csv``
labels a row ``belief,1`` (``minmax``) or ``plausibility,0`` (``minmin``,
``minmin-margins``) where its b is certified: always with contamination
off, and with it on where a worst-case b is 0.0 (its mass is exact at the
technology corners); every other row reads ``estimate,`` with an empty
value, its b a search's estimate.

Each search stops by one rule: the outer design search after
``outer_budget`` distinct designs or after ``outer_budget`` proposals in a
row that brought no new design (a box with fewer designs), each inner
search after ``inner_budget`` evaluations, and a curve refinement at the
latest at ``--max-partitions`` partitions.

Exit codes: 0 success, 2 scenario/schema errors, checked when the scenario
loads by one rule: the document holds exactly ``schema_version`` and one
key per field of ``Scenario`` but ``source_path`` (``mu_sun_km3s2`` and
``t_impact_s`` for ``mu`` and ``t_impact``), and each block exactly its
owner's keys (its dataclass's fields, or the design or uncertain parameter
names), each with its JSON type (a bool is no number; 3.0 counts as an
integer), design bounds are pairs ``[lo, hi]`` with 0 < lo <= hi, no
number is NaN or infinite, no key is given twice in one object (in this
document and in the expert-opinion file), and no value is one its
dataclass refuses
(solver budgets and populations, an archive capacity below 2, fixed
uncertain values, ``c_geo``, ``t_rad`` <= 0, ``emiss_rad`` outside (0, 1],
``m_bus``, ``mf_c``, ``mf_p`` < 0, ``m_a`` <= 0, a station ``psi_vf`` with
cos(psi_vf) < 0), and no uncertain parameter of ``asteroid_properties`` or
``technology`` differs from its ``fixed_uncertain`` value (``t_subl``
against ``t_sub``; the message names the key); also a negative seed
(in the scenario or as ``--seed``), a scenario file that cannot be read, an
``--out`` directory that cannot be made or written to, a ``--design``
outside the scenario's design bounds, an expert-opinion file that is
missing, does not match ``mission.OPINIONS_SCHEMA``, with no NaN or
infinity and no key given twice, leaves out a parameter, or holds an
interval with lo > hi or a bpa outside (0, 1] or a negative weight (the
modes that load it: ``minmin``, ``minmin-margins``, ``minmax``,
``bpcurve``, ``sensitivity``), ``--nv`` below 2 or ``--max-partitions``
below 1 (``bpcurve``, ``sensitivity``), or reference orbits of the
asteroid and the Earth whose encounter velocity is too small to define a
b-plane, 3 any other invalid value met during a run, 4 numerical failure
(the arc-count cap of a propagation, a Kepler solve that does not
converge, a failed reference integration, a solver stage that left the
elliptic domain included, or a NaN or infinite objective in any mode,
``propagate`` included).
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .evidence import bel_pl_curve, first_inside
from .fpet import ArcOverflowError
from .mission import (
    B_NAMES,
    MODES,
    PHYSICAL_NAMES,
    TECH_NAMES,
    ReferenceIntegrationError,
    ScenarioError,
    Scenario,
    b_at,
    b_corners,
    deterministic_evaluator,
    evidence_evaluator,
    evidence_structure,
    load_scenario,
    make_model,
    mass_box_bounder,
    reference_scenario_path,
    rk_impact_parameter,
    scenario_to_dict,
)
from .orbits import DegenerateBPlaneError, KeplerConvergenceError
from .search import (
    NonFiniteObjectivesError,
    Objectives,
    inner_bound_search,
    solve_moo,
    zero_or_search,
)
from .sizing import GENE_NAMES, DesignVector, MassBudget, check_design_bounds

# failures of the numerics rather than of the inputs or the budgets: exit 4
_NUMERICAL_ERRORS = (ArcOverflowError, KeplerConvergenceError, ReferenceIntegrationError,
                     NonFiniteObjectivesError)


def write_csv(path: Path, header: list[str], rows: list) -> None:
    """Numbers at full precision and locale-free, for reproducible CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, str) else format(float(c), ".17g") for c in row])


def config_hash(scenario: Scenario, args_record: dict, opinions: dict | None) -> str:
    """sha256 of the scenario, the arguments the mode read and, for a mode
    that reads it, the parsed expert-opinion document ``opinions``."""
    record = {"scenario": scenario_to_dict(scenario), "args": args_record}
    if opinions is not None:
        record["expert_opinions"] = opinions
    payload = json.dumps(record, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def parse_design(text: str) -> DesignVector:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(GENE_NAMES):
        raise ValueError(f"design must be '{','.join(GENE_NAMES)}'")
    return DesignVector(
        d_m=float(parts[0]), n_sc=int(parts[1]),
        t_warn=float(parts[2]), c_r=float(parts[3]),
    )


def archive_rows(archive, mode: str, structure=None) -> tuple[list[str], list[list]]:
    """Archive rows by mass, with both witnesses, each over its objective's marginal."""
    header = [*GENE_NAMES, "m_sys_kg", "b_km", "mode"]
    spaces = () if structure is None else (structure.marginal(B_NAMES),
                                           structure.marginal(TECH_NAMES))
    for tag, space in zip("bm", spaces):
        header += [f"witness_{tag}_{n}" for n in space.names]
    rows = []
    for member in archive.sorted_by_mass():
        row = [*astuple(member.design), member.objectives.m_sys, -member.objectives.neg_b, mode]
        for witness, space in zip((member.witness_negb, member.witness_mass), spaces):
            row.extend(space.unit_to_physical(witness))
        rows.append(row)
    return header, rows


def de_box_bounder(f, budget: int, pop: int, seed: int, corner):
    """Box bounds of a function that is never negative, such as b, a norm:
    one evaluation at ``corner(unit_box)``, a point of the box, then
    restart DE per box, keyed on the box geometry (``k`` 0 for the minimum,
    1 for the maximum). A corner value of exactly 0.0 is the box's
    minimum, certified, and only the maximum search runs; otherwise both
    searches run, and the corner's value joins theirs
    (``search.zero_or_search``, the rule ``minmax``'s b shares with
    contamination on). Every value is attained in the box, so the bounds
    come in order; the maximum, and a minimum above 0.0, are estimates.
    ``b_box_bounder`` uses it with contamination on only."""

    def bounds(unit_box):
        lo, hi = np.array(unit_box).T
        span = hi - lo
        # the lower face is evaluated at the first point of the box's cells
        floor = np.array([first_inside(edge) for edge in lo])

        def g(u):
            return f(np.maximum(lo + u * span, floor))

        key = hashlib.sha256(repr(unit_box).encode()).digest()[:8]
        box_tag = int.from_bytes(key, "big")

        def search(k, sense):
            rng = np.random.default_rng(np.random.SeedSequence([seed, box_tag, k]))
            return inner_bound_search(g, len(unit_box), sense, budget, pop, rng)

        found = zero_or_search(f, corner(unit_box), lambda _: search(0, "min"))
        values = [result.value for result in found] + [search(1, "max").value]
        return min(values), max(values)

    return bounds


def b_box_bounder(model, design: DesignVector, structure):
    """Box bounds of b over the unit boxes of ``structure``, every uncertain
    parameter outside it at the scenario's fixed value. With contamination
    off they are exact, b at the box's dark and bright corners
    (``mission.b_corners``), two evaluations a box, as ``mass_box_bounder``
    bounds the mass at its corners. With contamination on each box is
    tried first at its dark corner (``de_box_bounder``): where the spot
    never ablates there, the minimum is a certified 0.0 for one evaluation
    instead of a search; elsewhere the box costs one evaluation more than
    its two searches."""
    b = b_at(model, design, structure)
    if not model.contamination:
        def bounds(unit_box):
            dark, bright = b_corners(structure, unit_box)
            return b(dark), b(bright)

        return bounds
    config = model.scenario.solver
    return de_box_bounder(b, config.inner_budget, config.inner_pop, config.seed,
                          lambda unit_box: b_corners(structure, unit_box)[0])


def run_optimization(scenario: Scenario, mode: str, contamination: bool, out: Path):
    model = make_model(scenario, mode, contamination)
    config = scenario.solver
    if mode == "deterministic":
        evaluate = deterministic_evaluator(model)
        structure = None
    else:
        structure = evidence_structure(scenario)
        sense = "max" if mode == "minmax" else "min"
        evaluate = evidence_evaluator(model, structure, config, sense)
    archive = solve_moo(evaluate, scenario.design_bounds, config)
    header, rows = archive_rows(archive, mode, structure)
    write_csv(out / f"archive_{mode}.csv", header, rows)
    if mode == "deterministic":
        return [f"archive_{mode}.csv"]
    # where both objectives are certified, a worst-case row carries Belief 1
    # (thresholds at or above these objective values are certain) and a
    # best-case row Plausibility 0 (below these the mission is infeasible on
    # the current knowledge). The mass is exact at its corners, and so is b
    # with contamination off, at the corner of its sense; with contamination
    # on only a worst-case b of 0.0 is, an evaluated value at the floor of a
    # norm, and any other b is a search's estimate
    def label(b):
        if contamination and not (mode == "minmax" and b == 0.0):
            return ["estimate", ""]
        return ["belief", 1.0] if mode == "minmax" else ["plausibility", 0.0]

    write_csv(out / f"extremes_{mode}.csv", header[:6] + ["label", "value"],
              [row[:6] + label(row[5]) for row in rows])
    return [f"archive_{mode}.csv", f"extremes_{mode}.csv"]


def run_bpcurve(scenario: Scenario, design: DesignVector, contamination: bool,
                out: Path, n_v: int, max_partitions: int):
    """Bel/Pl curves of b over the parameters it reads (the five asteroid
    ones, ``eta_l`` and ``eta_sa``; the other three fixed) and of ``m_sys``
    over the five technology ones."""
    model = make_model(scenario, "bpcurve", contamination)
    structure = evidence_structure(scenario)
    write_csv(out / "fused_structure.csv", ["parameter", "lo", "hi", "bpa"],
              [[p.name, iv.lo, iv.hi, iv.bpa] for p in structure.params for iv in p.intervals])
    files = ["fused_structure.csv"]
    meta = {}
    for tag, names, bounder in (("b", B_NAMES, b_box_bounder),
                                ("m_sys", TECH_NAMES, mass_box_bounder)):
        marginal = structure.marginal(names)
        curve = bel_pl_curve(bounder(model, design, marginal), marginal, n_v=n_v,
                             max_partitions=max_partitions)
        name = f"belpl_{tag}.csv"
        write_csv(out / name, ["v", "bel", "pl"], list(zip(curve.thresholds, curve.bel, curve.pl)))
        files.append(name)
        # the m_sys bounds are exact at their corners, and so are the b
        # bounds with contamination off; with it on a b of 0.0 is an
        # evaluated value at the floor of a norm, every other b end an estimate
        exact = tag == "m_sys" or not contamination
        meta[tag] = {"v_min": curve.v_min, "v_max": curve.v_max,
                     "v_min_certified": exact or curve.v_min == 0.0,
                     "v_max_certified": exact,
                     "n_partitions": curve.n_partitions, "partial": curve.partial}
    (out / "belpl_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return files + ["belpl_meta.json"]


def run_sensitivity(scenario: Scenario, design: DesignVector, contamination: bool,
                    out: Path, n_v: int, max_partitions: int):
    """Per-parameter Bel/Pl curves of b over each asteroid parameter alone,
    the other nine held at the reference values."""
    model = make_model(scenario, "sensitivity", contamination)
    structure = evidence_structure(scenario)
    rows = []
    for name in PHYSICAL_NAMES:
        marginal = structure.marginal([name])
        curve = bel_pl_curve(b_box_bounder(model, design, marginal), marginal, n_v=n_v,
                             max_partitions=max_partitions)
        rows += [[name, *row] for row in zip(curve.thresholds, curve.bel, curve.pl)]
    write_csv(out / "sensitivity_b.csv", ["parameter", "v", "bel", "pl"], rows)
    return ["sensitivity_b.csv"]


def run_propagate(scenario: Scenario, design: DesignVector, contamination: bool,
                  out: Path, oracle: bool):
    model = make_model(scenario, "propagate", contamination)
    ev = model.evaluate(design, scenario.fixed_uncertain)
    Objectives(ev.m_sys, -ev.b)  # a NaN or infinite objective is exit 4
    traj = ev.trajectory
    rows = []
    for k, state in enumerate(traj.states):
        eps = traj.eps_history[k - 1] if k > 0 else 0.0
        rows.append([state.t, state.a, state.p1, state.p2,
                     state.q1, state.q2, state.ell, eps])
    write_csv(out / "trajectory.csv",
              ["t_s", "a_km", "p1", "p2", "q1", "q2", "ell_rad", "eps_km_s2"],
              rows)
    budget_fields = [f.name for f in fields(MassBudget)]
    write_csv(out / "mass_budget.csv", budget_fields,
              [[getattr(ev.budget, f) for f in budget_fields]])
    summary = {"b_km": ev.b, "m_sys_kg": ev.m_sys, "n_arcs": ev.n_arcs}
    if oracle:
        b_rk = rk_impact_parameter(
            scenario, design, scenario.fixed_uncertain, contamination
        )
        summary["b_km_rk_oracle"] = b_rk
        summary["b_rel_diff_vs_oracle"] = abs(ev.b - b_rk) / max(b_rk, 1e-300)
    (out / "propagate_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return ["trajectory.csv", "mass_budget.csv", "propagate_summary.json"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="neodeflect",
        description="Design of laser-ablation asteroid deflection campaigns "
                    "under epistemic uncertainty.",
    )
    parser.add_argument("--scenario", type=Path, default=None,
                        help="scenario JSON (defaults to the shipped reference)")
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--contamination", choices=["on", "off"], default=None,
                        help="override the scenario's contamination flag")
    parser.add_argument("--design", type=str, default="20,10,8,3000",
                        help=f"'{','.join(GENE_NAMES)}' for bpcurve/sensitivity/propagate")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--out", type=Path, default=Path("runs"))
    parser.add_argument("--oracle", action="store_true",
                        help="add a reference-integration cross-check (propagate mode); "
                             "its b depends on the BLAS kernel and, with contamination "
                             "on, is not converged at rtol 1e-10")
    parser.add_argument("--nv", type=int, default=21,
                        help="thresholds per Bel/Pl curve")
    parser.add_argument("--max-partitions", type=int, default=10**5,
                        help="sub-hypercube budget of the curve refinement")
    args = parser.parse_args(argv)

    try:
        scenario_path = args.scenario or reference_scenario_path()
        scenario = load_scenario(scenario_path)
        seed = scenario.seed if args.seed is None else args.seed
        scenario = replace(scenario, seed=seed, solver=replace(scenario.solver, seed=seed))
        contamination = scenario.contamination
        if args.contamination is not None:
            contamination = args.contamination == "on"
        if args.mode in ("bpcurve", "sensitivity", "propagate"):
            design = parse_design(args.design)
            check_design_bounds(design, scenario.design_bounds)
        if args.mode in ("bpcurve", "sensitivity") and args.nv < 2:
            raise ValueError(f"--nv must be at least 2, got {args.nv}")
        if args.mode in ("bpcurve", "sensitivity") and args.max_partitions < 1:
            raise ValueError(f"--max-partitions must be at least 1, got {args.max_partitions}")
        out = args.out
        out.mkdir(parents=True, exist_ok=True)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # the hash covers exactly the arguments the mode reads, the design as
    # parsed (so that 20 and 20.0 hash alike)
    args_record = {"mode": args.mode, "contamination": contamination, "seed": scenario.seed}
    if args.mode in ("bpcurve", "sensitivity"):
        args_record.update(design=astuple(design), nv=args.nv,
                           max_partitions=args.max_partitions)
    elif args.mode == "propagate":
        args_record.update(design=astuple(design), oracle=args.oracle)

    try:
        if args.mode in ("deterministic", "minmin", "minmin-margins", "minmax"):
            files = run_optimization(scenario, args.mode, contamination, out)
        elif args.mode == "bpcurve":
            files = run_bpcurve(scenario, design, contamination, out, args.nv,
                                args.max_partitions)
        elif args.mode == "sensitivity":
            files = run_sensitivity(scenario, design, contamination, out, args.nv,
                                    args.max_partitions)
        else:
            files = run_propagate(scenario, design, contamination, out, args.oracle)
        opinions = None
        if args.mode not in ("deterministic", "propagate"):  # the modes that read the file
            opinions = json.loads(scenario.expert_opinions_path().read_text())
    except (ScenarioError, DegenerateBPlaneError, OSError) as exc:
        # v_inf depends only on the two reference orbits of the scenario
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    manifest = {
        "package_version": __version__,
        "mode": args.mode,
        "seed": scenario.seed,
        "config_hash": config_hash(scenario, args_record, opinions),
        "scenario_file": str(scenario_path),
        "outputs": files,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {', '.join(files)} and manifest.json to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
