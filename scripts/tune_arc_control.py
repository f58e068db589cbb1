#!/usr/bin/env python3
"""Arc-length law tuning sweep.

Grid over the adaptive-law constants, scoring each configuration by the
impact-parameter error against a tight reference integration of the
variational equations on the shipped scenario (contamination off) and by
wall-clock cost. The shipped default is the cheapest configuration whose
error on the reference design stays below 0.1% with margin.

Usage: python3 scripts/tune_arc_control.py
"""
import itertools
import sys
import time
from dataclasses import replace
from pathlib import Path

if __name__ == "__main__":  # run from a checkout: the package next to this script
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from neodeflect.fpet import ArcControl
from neodeflect.mission import (
    load_scenario,
    make_model,
    reference_scenario_path,
    rk_impact_parameter,
)
from neodeflect.sizing import DesignVector

A_GRID = (0.02, 0.05, 0.1, 0.3, 1.0)
K_GRID = (1.0, 2.0, 3.0, 5.0)
CAP_GRID = (0.1, 0.2, 0.4, 1.0)
ERROR_GATE = 1e-3


def main():
    scenario = load_scenario(reference_scenario_path())
    design = DesignVector(20.0, 10, 8.0, 3000.0)
    u = scenario.fixed_uncertain
    print("computing reference b (DOP853, rtol 1e-12) ...")
    b_ref = rk_impact_parameter(scenario, design, u, contamination=False, rtol=1e-12)
    print(f"reference b = {b_ref:.6f} km")

    rows = []
    for a_const, k_const, cap in itertools.product(A_GRID, K_GRID, CAP_GRID):
        sc = replace(scenario, arc_control=ArcControl(a_const, k_const, cap))
        model = make_model(sc, "deterministic", contamination=False)
        t0 = time.perf_counter()
        ev = model.evaluate(design, u)
        wall = time.perf_counter() - t0
        err = abs(ev.b - b_ref) / b_ref
        rows.append((a_const, k_const, cap, err, ev.n_arcs, wall))
        print(f"A={a_const:5.2f} k={k_const:3.1f} cap={cap:4.2f}: "
              f"err={err:.2e} arcs={ev.n_arcs:5d} wall={wall*1e3:6.1f} ms")

    passing = [r for r in rows if r[3] < ERROR_GATE]
    best = min(passing, key=lambda r: r[5])
    print(f"\ncheapest config under {ERROR_GATE:.0e} error: "
          f"A={best[0]}, k={best[1]}, dl_max={best[2]} "
          f"(err={best[3]:.2e}, wall={best[5]*1e3:.1f} ms)")


if __name__ == "__main__":
    main()
