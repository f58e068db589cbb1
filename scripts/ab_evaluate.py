#!/usr/bin/env python3
"""Model evaluations of two source trees, timed against each other in one interpreter.

    python3 scripts/ab_evaluate.py OLD_SRC NEW_SRC [--reps N]

OLD_SRC and NEW_SRC are ``src/`` directories that hold a ``neodeflect``
package. Both are imported into this one interpreter, each as its own set
of modules, and each builds the reference scenario's model with
contamination off and on. Every repetition evaluates the four designs of
the reference panel (``perfbench/references.json``) and the design of the
``belpl-curve`` workload, 20,10,2,3000, at the scenario's fixed uncertain
values in both trees, alternating which tree goes first, and
compares the two evaluations bit for bit: b, m_sys, the thrust modulus of
every arc (``eps_history``) and all seven fields of every arc-boundary
state, compared state by state. The script prints, per design and
contamination setting, the summed evaluation times of each tree, the
new/old ratio, and each tree's arc count per evaluation and time per arc
(a whole evaluation's time over its arc count, in microseconds), then the
same over all evaluations.

The panel runs at one uncertain point, where few trajectories have a dark
spell in mid-flight; the evidence searches meet them mostly at drawn
points. So before the timed repetitions both trees evaluate, once and
untimed, a fixed draw (seed ``DRAW_SEED``) of ``DRAW_PAIRS`` designs within
the scenario's design bounds, each with a unit point of the evidence
structure, per contamination setting, compared in the same sense. At each
drawn design both trees also bound the formation mass with
``mission.mass_extreme``, both senses, over two regions of the technology
marginal: its whole unit cube, as the evidence evaluator does, and one box
of its cells drawn once (seed ``[DRAW_SEED, 1]``), as a box of the
``m_sys`` curve does; each bound's value and witness are compared bit
for bit, one pair per drawn design. With contamination off both trees
also bound b at each drawn design with one ``cli.b_box_bounder``, as one
curve's boxes share one, over four boxes of the ``B_NAMES`` marginal: its
whole unit cube, a curve's root box, the two halves of a curve's first
split, which meet two of the cube's corners again, and one box of its
cells drawn once (seed ``[DRAW_SEED, 2]``); both ends of every box are
compared bit for bit, one more pair per drawn design. At each panel
design both trees also draw one whole contamination-off Bel/Pl curve of b
over the ``B_NAMES`` marginal, at the ``belpl-curve`` workload's settings
(``CURVE_N_V`` thresholds, ``CURVE_MAX_PARTITIONS`` partitions), through
one ``cli.b_box_bounder`` and ``evidence.bel_pl_curve``, as
``bpcurve`` does; the thresholds, Bel, Pl, ``n_partitions`` and
``partial`` are compared bit for bit, one pair per curve. A curve's boxes
share corners and physical points, so its bounder returns kept values.

A difference does not stop the run: the script finishes the draw and the
panel, then prints per contamination setting how many of the compared
pairs (drawn pairs, mass-corner pairs, b-corner pairs, b curves and panel
designs) differ in any bit, the first difference, and the largest relative
differences of b and m_sys, which size a deliberate change. Since a
near-zero b moves by a large relative amount for a tiny absolute one, it
also prints the largest absolute b difference [km] and the largest relative b difference among the pairs
whose b is at least ``B_KM_FLOOR`` km. It exits 1 when any pair differs,
so it stays a bit-equality check.

Separate processes cannot resolve a change of a few percent on a host whose
speed drifts in phases of seconds (``perfbench/README.md``); interleaved in
one process, both trees see the same drift.
"""
import argparse
import importlib
import sys
import time
from pathlib import Path

import numpy as np

PANEL = ("20,10,8,3000", "20,10,1,3000", "12,4,3.5,2000", "8,6,6,2500", "20,10,2,3000")
DRAW_SEED, DRAW_PAIRS = 2026, 200
B_KM_FLOOR = 1.0
CURVE_N_V, CURVE_MAX_PARTITIONS = 11, 6
STATE_FIELDS = ("a", "p1", "p2", "q1", "q2", "ell", "t")


def load_tree(src: Path):
    """The ``neodeflect.mission`` and ``neodeflect.cli`` modules of ``src``,
    imported afresh and then taken out of ``sys.modules`` so that another
    tree can be imported next to them."""
    def drop():
        return {name: sys.modules.pop(name) for name in list(sys.modules)
                if name.split(".")[0] == "neodeflect"}

    drop()
    sys.path.insert(0, str(src))
    try:
        mission = importlib.import_module("neodeflect.mission")
        cli = importlib.import_module("neodeflect.cli")
    finally:
        sys.path.remove(str(src))
        drop()
    if not Path(mission.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: neodeflect was imported from {mission.__file__}, not {src}")
    return mission, cli


def difference(old, new) -> str | None:
    """The first place where two evaluations differ in any bit (signed
    zeros included): b, m_sys, the arc count, an arc's thrust modulus or a
    field of an arc-boundary state. None when they are bit-equal."""
    for name in ("b", "m_sys"):
        if getattr(old, name).hex() != getattr(new, name).hex():
            return f"{name} old {getattr(old, name)!r} new {getattr(new, name)!r}"
    if old.n_arcs != new.n_arcs:
        return f"n_arcs old {old.n_arcs} new {new.n_arcs}"
    arcs = zip(old.trajectory.eps_history, new.trajectory.eps_history)
    for k, (eps_old, eps_new) in enumerate(arcs):
        if eps_old.hex() != eps_new.hex():
            return f"eps_history[{k}] old {eps_old!r} new {eps_new!r}"
    for k, (s_old, s_new) in enumerate(zip(old.trajectory.states, new.trajectory.states)):
        for name in STATE_FIELDS:
            v_old, v_new = getattr(s_old, name), getattr(s_new, name)
            if v_old.hex() != v_new.hex():
                return f"states[{k}].{name} old {v_old!r} new {v_new!r}"
    return None


def mass_difference(old, new) -> str | None:
    """The first place where two ``mass_extreme`` results, (m_sys, witness
    unit point), differ in any bit; None when they are bit-equal."""
    (m_old, w_old), (m_new, w_new) = old, new
    if m_old.hex() != m_new.hex():
        return f"m_sys old {m_old!r} new {m_new!r}"
    if [x.hex() for x in w_old.tolist()] != [x.hex() for x in w_new.tolist()]:
        return f"witness old {w_old.tolist()} new {w_new.tolist()}"
    return None


def bounds_difference(old, new) -> str | None:
    """The first end where two (min, max) bounds of b over one box differ
    in any bit; None when they are bit-equal."""
    for end, b_old, b_new in zip(("min", "max"), old, new):
        if b_old.hex() != b_new.hex():
            return f"b {end} old {b_old!r} new {b_new!r}"
    return None


def curve_difference(old, new) -> str | None:
    """The first place where two Bel/Pl curves differ in any bit: a
    threshold, a Bel or Pl value, ``n_partitions`` or ``partial``. None
    when they are bit-equal."""
    for name in ("thresholds", "bel", "pl"):
        for k, (x_old, x_new) in enumerate(zip(getattr(old, name).tolist(),
                                               getattr(new, name).tolist())):
            if x_old.hex() != x_new.hex():
                return f"{name}[{k}] old {x_old!r} new {x_new!r}"
    for name in ("n_partitions", "partial"):
        if getattr(old, name) != getattr(new, name):
            return f"{name} old {getattr(old, name)!r} new {getattr(new, name)!r}"
    return None


def relative_difference(old: float, new: float) -> float:
    """|new - old| over the larger magnitude of the two; 0 when both are
    zero."""
    scale = max(abs(old), abs(new))
    return abs(new - old) / scale if scale else 0.0


class Tally:
    """The pairs of evaluations compared in one contamination setting: each
    key (a drawn pair, the mass or b corners of a drawn design, a panel
    design or its b curve) counts once, and differs when any of its
    comparisons does."""

    def __init__(self):
        self.pairs: set[str] = set()
        self.differ: dict[str, str] = {}  # key -> its first difference
        self.b_rel = self.m_sys_rel = self.b_abs = self.b_rel_floor = 0.0

    def add(self, key: str, old, new) -> None:
        self.pairs.add(key)
        where = difference(old, new)
        if where is None:
            return
        self.differ.setdefault(key, where)
        self.size_b(old.b, new.b)
        self.m_sys_rel = max(self.m_sys_rel, relative_difference(old.m_sys, new.m_sys))

    def size_b(self, old: float, new: float) -> None:
        b_rel = relative_difference(old, new)
        self.b_rel = max(self.b_rel, b_rel)
        self.b_abs = max(self.b_abs, abs(new - old))
        if max(abs(old), abs(new)) >= B_KM_FLOOR:
            self.b_rel_floor = max(self.b_rel_floor, b_rel)

    def add_mass(self, key: str, old, new) -> None:
        """Like ``add``, for two ``mass_extreme`` results."""
        self.pairs.add(key)
        where = mass_difference(old, new)
        if where is None:
            return
        self.differ.setdefault(key, where)
        self.m_sys_rel = max(self.m_sys_rel, relative_difference(old[0], new[0]))

    def add_bounds(self, key: str, old, new) -> None:
        """Like ``add``, for two (min, max) bounds of b over one box."""
        self.pairs.add(key)
        where = bounds_difference(old, new)
        if where is None:
            return
        self.differ.setdefault(key, where)
        for b_old, b_new in zip(old, new):
            self.size_b(b_old, b_new)

    def add_curve(self, key: str, old, new) -> None:
        """Like ``add``, for two Bel/Pl curves of b; b is sized at the
        curves' ends, the first and last thresholds."""
        self.pairs.add(key)
        where = curve_difference(old, new)
        if where is None:
            return
        self.differ.setdefault(key, where)
        for end in (0, -1):
            self.size_b(float(old.thresholds[end]), float(new.thresholds[end]))

    def summary(self, setting: str) -> str:
        line = (f"# contamination {setting}: {len(self.differ)} of {len(self.pairs)} pairs "
                "differ")
        if not self.differ:
            return line
        key, where = next(iter(self.differ.items()))
        return (f"{line}; largest relative difference b {self.b_rel:.3g}, "
                f"m_sys {self.m_sys_rel:.3g}; largest b difference {self.b_abs:.3g} km, "
                f"relative {self.b_rel_floor:.3g} at b >= {B_KM_FLOOR:g} km; "
                f"first: {key}: {where}")


def timing_table(times: dict, arcs: dict, reps: int) -> list[str]:
    """Per design and setting (the keys of ``times``), then over all of
    them: the old and the new tree's summed evaluation times of ``reps``
    repetitions, the new/old ratio, each tree's arc count of one evaluation
    (``arcs``; of one evaluation of each, over all) and its time per arc in
    microseconds."""
    def row(label, old_s, new_s, old_arcs, new_arcs):
        return (f"{label:<24} {old_s:9.4f} {new_s:9.4f} {new_s / old_s:8.4f} "
                f"{old_arcs:>8} {new_arcs:>8} {1e6 * old_s / (reps * old_arcs):10.2f} "
                f"{1e6 * new_s / (reps * new_arcs):10.2f}")

    lines = [f"{'design contamination':<24} {'old_s':>9} {'new_s':>9} {'new/old':>8} "
             f"{'old_arcs':>8} {'new_arcs':>8} {'old_us/arc':>10} {'new_us/arc':>10}"]
    lines += [row(label, *times[label], *arcs[label]) for label in times]
    old_s, new_s = (sum(t[side] for t in times.values()) for side in (0, 1))
    old_arcs, new_arcs = (sum(n[side] for n in arcs.values()) for side in (0, 1))
    lines.append(row("all", old_s, new_s, old_arcs, new_arcs))
    return lines


def regions(structure, key: int) -> list[list]:
    """The unit cube of ``structure`` and the unit box of one block of its
    cells, drawn from seed ``[DRAW_SEED, key]``."""
    rng = np.random.default_rng([DRAW_SEED, key])
    first = [int(rng.integers(n)) for n in structure.counts()]
    cells = [(a, int(rng.integers(a + 1, n + 1))) for a, n in zip(first, structure.counts())]
    return [[(0.0, 1.0)] * structure.dim,
            [(structure.cum[d][a], structure.cum[d][b]) for d, (a, b) in enumerate(cells)]]


def mass_bounders(trees, sides, structures) -> list[list]:
    """Per tree, its ``mass_extreme`` of each sense over the technology
    marginal's unit cube and over one drawn box of its cells, in one
    order."""
    techs = [structure.marginal(mission.TECH_NAMES)
             for (mission, _), structure in zip(trees, structures)]
    return [[mission.mass_extreme(model, tech, region, sense)
             for region in regions(tech, 1) for sense in ("min", "max")]
            for (mission, _), (model, _, _), tech in zip(trees, sides, techs)]


def b_bounds(cli, model, design, space) -> list[tuple[float, float]]:
    """The bounds of b of one ``cli.b_box_bounder`` over the unit cube of
    the ``B_NAMES`` marginal ``space``, over its two halves at the middle
    cell edge of its dimension with the most cells, as a curve's first
    split makes them, and over one drawn box of its cells. Two of the
    halves' four corners are the cube's, so the bounder meets points it
    has evaluated."""
    cube, drawn = regions(space, 2)
    counts = space.counts()
    d = counts.index(max(counts))
    edge = space.cum[d][counts[d] // 2]
    halves = [[*cube[:d], half, *cube[d + 1:]] for half in ((0.0, edge), (edge, 1.0))]
    bounds = cli.b_box_bounder(model, design, space)
    return [bounds(region) for region in (cube, *halves, drawn)]


def compare_draw(trees, sides, tally: Tally) -> None:
    """Evaluate the fixed draw of design and unit-point pairs in both
    trees, each pair into ``tally``, and bound the mass at each drawn
    design, one more pair, and with contamination off b, one more."""
    structures = [mission.evidence_structure(model.scenario)
                  for (mission, _), (model, _, _) in zip(trees, sides)]
    bounders = mass_bounders(trees, sides, structures)
    b_spaces = [structure.marginal(mission.B_NAMES)
                for (mission, _), structure in zip(trees, structures)]
    bounds = sides[0][0].scenario.design_bounds
    rng = np.random.default_rng(DRAW_SEED)
    for k in range(DRAW_PAIRS):
        d_m, t_warn, c_r = (float(rng.uniform(*bounds[n])) for n in ("d_m", "t_warn", "c_r"))
        n_sc = int(rng.integers(int(bounds["n_sc"][0]), int(bounds["n_sc"][1]), endpoint=True))
        text = f"{d_m!r},{n_sc},{t_warn!r},{c_r!r}"
        u_vec = rng.random(structures[0].dim)
        designs = [cli.parse_design(text) for _, _, cli in sides]
        got = [model.evaluate(design, mission.uncertain_dict(structure, u_vec))
               for (mission, _), (model, _, _), design, structure
               in zip(trees, sides, designs, structures)]
        tally.add(f"drawn pair {k} ({text})", *got)
        for old, new in zip(*([extreme(design) for extreme in extremes]
                              for extremes, design in zip(bounders, designs))):
            tally.add_mass(f"mass corners {k} ({text})", old, new)
        if not sides[0][0].contamination:
            old, new = (b_bounds(cli, model, design, space)
                        for (model, _, cli), design, space in zip(sides, designs, b_spaces))
            for pair in zip(old, new):
                tally.add_bounds(f"b corners {k} ({text})", *pair)


def compare_curves(trees, tally: Tally) -> None:
    """Draw the contamination-off Bel/Pl curve of b at each panel design in
    both trees, each curve one pair of ``tally``."""
    curves = {text: [] for text in PANEL}
    for mission, cli in trees:
        scenario = mission.load_scenario(mission.reference_scenario_path())
        model = mission.make_model(scenario, "bpcurve", False)
        space = mission.evidence_structure(scenario).marginal(mission.B_NAMES)
        for text in PANEL:
            bounds = cli.b_box_bounder(model, cli.parse_design(text), space)
            curves[text].append(cli.bel_pl_curve(bounds, space, n_v=CURVE_N_V,
                                                 max_partitions=CURVE_MAX_PARTITIONS))
    for text, (old, new) in curves.items():
        tally.add_curve(f"b curve {text}", old, new)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--reps", type=int, default=20,
                        help="evaluations of every design and setting per tree")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    cases = []  # (label, tally, [(evaluate, design, u) of old, of new])
    tallies = {"off": Tally(), "on": Tally()}
    trees = [load_tree(args.old_src), load_tree(args.new_src)]
    for contamination in (False, True):
        setting = "on" if contamination else "off"
        sides = []
        for mission, cli in trees:
            scenario = mission.load_scenario(mission.reference_scenario_path())
            model = mission.DeflectionModel(scenario, contamination, scenario.margins)
            sides.append((model, scenario.fixed_uncertain, cli))
        compare_draw(trees, sides, tallies[setting])
        if not contamination:
            compare_curves(trees, tallies[setting])
        for text in PANEL:
            cases.append((f"{text} {setting}", tallies[setting],
                          [(model.evaluate, cli.parse_design(text), u) for model, u, cli in sides]))

    times = {label: [0.0, 0.0] for label, _, _ in cases}
    arcs = {}
    for rep in range(args.reps + 1):  # repetition 0 warms up, untimed
        for label, tally, sides in cases:
            order = (0, 1) if rep % 2 else (1, 0)
            got = [None, None]
            for side in order:
                evaluate, design, u = sides[side]
                start = time.perf_counter()
                got[side] = evaluate(design, u)
                if rep:
                    times[label][side] += time.perf_counter() - start
            tally.add(f"panel {label}", *got)
            arcs[label] = (got[0].n_arcs, got[1].n_arcs)

    for line in timing_table(times, arcs, args.reps):
        print(line)
    print(f"# {args.reps} evaluations per tree, design and setting, and {DRAW_PAIRS} drawn "
          f"design and unit-point pairs per setting (seed {DRAW_SEED}), each compared bit for "
          "bit (b, m_sys, eps_history, every state), the mass corners of each drawn "
          "design (value and witness) and, with contamination off, its b corners (both "
          "bounds of four boxes) and the b curve of each panel design")
    for setting, tally in tallies.items():
        print(tally.summary(setting))
    return 1 if any(tally.differ for tally in tallies.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
