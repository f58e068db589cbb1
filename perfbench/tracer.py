"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: public functions of
each layer are replaced, at the names their callers bind, by wrappers
that append one span (name, parent span, start, end) to compact in-memory
arrays. Those names are bound by ``from ... import``, so the wrappers go
on the importing module (``neodeflect.mission.propagate_trajectory``),
not only on the defining one. Nothing is written while the workload runs;
``save`` writes the spans once at the end and ``layer_metrics`` reduces
them to per-layer counts and self times.
"""
from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# (span name, owner path, attribute): every binding a workload can reach
TRACE_POINTS = (
    ("cli.run", "neodeflect.cli", "run_optimization"),
    ("cli.run", "neodeflect.cli", "run_bpcurve"),
    ("cli.write_csv", "neodeflect.cli", "write_csv"),
    ("search.solve_moo", "neodeflect.cli", "solve_moo"),
    ("search.decode_design", "neodeflect.search", "decode_design"),
    ("search.archive_add", "neodeflect.search.ParetoArchive", "add"),
    ("search.inner_bound_search", "neodeflect.mission", "inner_bound_search"),
    ("search.inner_bound_search", "neodeflect.cli", "inner_bound_search"),
    ("evidence.bel_pl_curve", "neodeflect.cli", "bel_pl_curve"),
    ("evidence.unit_to_physical", "neodeflect.evidence.FocalStructure", "unit_to_physical"),
    ("mission.evaluate", "neodeflect.mission.DeflectionModel", "evaluate"),
    ("mission.mass_only", "neodeflect.mission.DeflectionModel", "mass_only"),
    ("sizing.size_spacecraft", "neodeflect.mission", "size_spacecraft"),
    ("fpet.propagate_trajectory", "neodeflect.mission", "propagate_trajectory"),
    ("fpet.fpet_step", "neodeflect.fpet", "fpet_step"),
    ("orbits.kepler_tof", "neodeflect.fpet", "kepler_time_of_flight"),
    ("orbits.propagate_keplerian", "neodeflect.mission", "propagate_keplerian"),
    ("ablation.thrust", "neodeflect.ablation.ThrustModel", "__call__"),
    ("ablation.mass_flow_rate", "neodeflect.ablation", "mass_flow_rate"),
    ("ablation.plume_density", "neodeflect.ablation", "plume_density"),
)
# the box bounder is a closure made per curve; its factory is wrapped instead
BOX_BOUNDS = "evidence.box_bounds"
# speed-clock kernel runs (see speedclock.py); not part of the program's time
CALIBRATION = "trace.calibration"


def resolve_owner(path: str):
    """Module, or class in a module, named by a dotted path such as
    ``neodeflect.search.ParetoArchive``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, cls = path.rsplit(".", 1)
        return getattr(importlib.import_module(module), cls)


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.arcs = 0
        self.zero_thrust_arcs = 0
        self.partitions = 0

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, on_result=None):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            stack.append(i)
            end.append(0.0)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_arcs(self, traj) -> None:
        self.arcs += traj.n_arcs
        self.zero_thrust_arcs += sum(1 for eps in traj.eps_history if eps == 0.0)

    def _count_partitions(self, curve) -> None:
        self.partitions += curve.n_partitions

    def install(self) -> None:
        """Replace every trace point for the rest of the process."""
        hooks = {
            "fpet.propagate_trajectory": self._count_arcs,
            "evidence.bel_pl_curve": self._count_partitions,
        }
        for name, path, attr in TRACE_POINTS:
            owner = resolve_owner(path)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), hooks.get(name)))
        cli = resolve_owner("neodeflect.cli")
        factory = cli.de_box_bounder

        def traced_factory(*args, **kwargs):
            return self.wrap(BOX_BOUNDS, factory(*args, **kwargs))

        cli.de_box_bounder = traced_factory

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def layer_metrics(self, traced_wall_s: float) -> dict:
        """Per-layer counts and self times (span minus child spans)."""
        a = self.arrays()
        names = list(a["names"])
        dur = a["end"] - a["start"]
        parent = a["parent"]
        child = np.zeros(len(dur) + 1)
        np.add.at(child, parent, dur)  # parent -1 lands in the extra slot
        self_time = dur - child[:-1]
        nid = a["name_id"]

        def calls(name):
            return int(np.count_nonzero(nid == names.index(name))) if name in names else 0

        def self_s(name):
            return float(self_time[nid == names.index(name)].sum()) if name in names else 0.0

        def durations(name):
            return dur[nid == names.index(name)] if name in names else np.zeros(0)

        evals = durations("mission.evaluate")
        curves = durations("evidence.bel_pl_curve")
        arcs = self.arcs
        proposals = calls("search.decode_design")
        distinct = calls("search.archive_add")
        return {
            "fpet.fpet_step.calls": calls("fpet.fpet_step"),
            "fpet.fpet_step.self_s": self_s("fpet.fpet_step"),
            "fpet.propagate_trajectory.calls": calls("fpet.propagate_trajectory"),
            "fpet.propagate_trajectory.self_s": self_s("fpet.propagate_trajectory"),
            "fpet.arcs": arcs,
            "fpet.us_per_arc": 1e6 * durations("fpet.propagate_trajectory").sum() / max(arcs, 1),
            "fpet.steps_per_arc": calls("fpet.fpet_step") / max(arcs, 1),
            "fpet.zero_thrust_arc_frac": self.zero_thrust_arcs / max(arcs, 1),
            "orbits.kepler_tof.calls": calls("orbits.kepler_tof"),
            "orbits.kepler_tof.self_s": self_s("orbits.kepler_tof"),
            "orbits.propagate_keplerian.calls": calls("orbits.propagate_keplerian"),
            "orbits.propagate_keplerian.self_s": self_s("orbits.propagate_keplerian"),
            "ablation.thrust.calls": calls("ablation.thrust"),
            "ablation.thrust.self_s": self_s("ablation.thrust"),
            "ablation.thrust_per_arc": calls("ablation.thrust") / max(arcs, 1),
            "ablation.mass_flow_rate.calls": calls("ablation.mass_flow_rate"),
            "ablation.mass_flow_rate.self_s": self_s("ablation.mass_flow_rate"),
            "ablation.plume_density.calls": calls("ablation.plume_density"),
            "ablation.plume_density.self_s": self_s("ablation.plume_density"),
            "sizing.size_spacecraft.calls": calls("sizing.size_spacecraft"),
            "sizing.size_spacecraft.self_s": self_s("sizing.size_spacecraft"),
            "mission.mass_only.calls": calls("mission.mass_only"),
            "mission.mass_only.self_s": self_s("mission.mass_only"),
            "mission.evaluate.calls": calls("mission.evaluate"),
            "mission.evaluate.self_s": self_s("mission.evaluate"),
            "mission.evaluate.ms_p50": 1e3 * float(np.percentile(evals, 50)) if evals.size else 0.0,
            "mission.evaluate.ms_p90": 1e3 * float(np.percentile(evals, 90)) if evals.size else 0.0,
            "search.inner_bound_search.calls": calls("search.inner_bound_search"),
            "search.inner_bound_search.self_s": self_s("search.inner_bound_search"),
            "search.solve_moo.self_s": self_s("search.solve_moo"),
            "search.outer.proposals": proposals,
            "search.outer.distinct": distinct,
            "search.outer.cache_hit_ratio": (proposals - distinct) / proposals if proposals else 0.0,
            "search.archive_add.self_s": self_s("search.archive_add"),
            "evidence.unit_to_physical.calls": calls("evidence.unit_to_physical"),
            "evidence.unit_to_physical.self_s": self_s("evidence.unit_to_physical"),
            "evidence.bel_pl_curve.self_s": self_s("evidence.bel_pl_curve"),
            "evidence.partitions": self.partitions,
            "evidence.box_bounds": calls(BOX_BOUNDS),
            "cli.run.self_s": self_s("cli.run"),
            "cli.write_csv.self_s": self_s("cli.write_csv"),
            "cli.phase.b_s": float(curves[0]) if curves.size > 0 else 0.0,
            "cli.phase.m_sys_s": float(curves[1]) if curves.size > 1 else 0.0,
            "trace.spans": len(dur),
            "trace.wall_s": traced_wall_s,
            "trace.self_sum_frac": (float(self_time.sum()) - self_s(CALIBRATION)) / traced_wall_s,
        }
