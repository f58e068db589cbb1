"""Workload definitions of the benchmark: pinned reduced budgets per mode.

Each workload drives one optimization-facing CLI mode through its public
entry point. A run makes several starts of it, each with its own scenario
seed, which fixes every random draw of the searches. ``start_s`` is the
reference-speed wall time of one start (see speedclock.py) when the
benchmark was sized; it only sets how many starts fit in ``--seconds``.
``wall_stat`` reduces the starts' wall times to the reported ``wall_s``:
the search starts cover different warning-time slices, so their mean is
the typical start; the curve starts all solve the same problem, and their
median ignores the occasional curve (about 1 in 12) whose refinement stops
after the first cut and takes a fifth of the time. ``SMOKE``
shrinks the budgets so the benchmark's own smoke test finishes in seconds.
"""

# shipped solver budgets of the reference scenario
SHIPPED_OUTER_BUDGET = 30000
SHIPPED_INNER_BUDGET = 250

# hypervolume reference point (formation mass [kg], impact parameter [km]):
# above the heaviest design of the box with margins (about 2.4e4 kg) and at
# a 1 km deflection
HV_REF_MASS_KG = 3.0e4
HV_REF_B_KM = 1.0

# the accuracy panel: designs (d_m, n_sc, t_warn, c_r) with stored references
PANEL = ("20,10,8,3000", "20,10,1,3000", "12,4,3.5,2000", "8,6,6,2500")
MAX_DESIGN = "20,10,8,3000"
# ROADMAP acceptance floor for the max design with contamination off
MAX_DESIGN_FLOOR = 1e-3

WORKLOADS = {
    # outer memetic search and archive only: deterministic evaluations
    "det-front": {
        "mode": "deterministic",
        "contamination": False,
        "start_s": 0.42,
        "wall_stat": "mean",
        "solver": {"outer_budget": 30},
        "shipped_evals": SHIPPED_OUTER_BUDGET,
    },
    # inner restart DE, evidence unit map, stateful plume/contamination
    "minmax-contam": {
        "mode": "minmax",
        "contamination": True,
        "start_s": 2.8,
        "wall_stat": "mean",
        "solver": {"outer_budget": 16, "inner_budget": 20},
        "shipped_evals": SHIPPED_OUTER_BUDGET * SHIPPED_INNER_BUDGET,
    },
    # Bel/Pl partitioning and the box bounder at one design, no outer search
    "belpl-curve": {
        "mode": "bpcurve",
        "contamination": False,
        "design": "20,10,2,3000",
        "n_v": 11,
        "max_partitions": 6,
        "start_s": 5.3,
        "wall_stat": "median",
        "solver": {"inner_budget": 16},
        # a curve refined to the partition cap, each of its 1 + 2 * 6 boxes
        # bounded by two inner searches at the shipped inner budget
        "shipped_evals": (1 + 2 * 6) * 2 * SHIPPED_INNER_BUDGET,
    },
}

SMOKE = {
    "det-front": {"start_s": 0.25, "solver": {"outer_budget": 10}},
    "minmax-contam": {"start_s": 0.25, "solver": {"outer_budget": 10, "inner_budget": 5}},
    "belpl-curve": {"start_s": 0.25, "n_v": 3, "max_partitions": 2, "solver": {"inner_budget": 5}},
}


def workload(name: str, smoke: bool = False) -> dict:
    """The pinned settings of one workload, optionally at smoke budgets."""
    spec = dict(WORKLOADS[name])
    if smoke:
        spec.update(SMOKE[name])
    return spec
