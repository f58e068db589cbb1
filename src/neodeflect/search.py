"""Multi-objective design search and single-objective bound search.

The outer problem minimizes (formation mass, -impact parameter) over the
four-parameter design box with a memetic scheme: differential-evolution
social moves for most agents, coordinate pattern search for a few explorer
agents, and a nondominated archive collecting every evaluation. The inner
problem bounds an objective over the uncertain unit hypercube with a
restart differential evolution: when the population collapses it is
re-inflated around fresh random points while the incumbent best survives.
Each search stops in one place, where it evaluates: the inner one at its
budget of evaluations, the outer one at its budget of new designs or of revisits in a row.

Determinism: every random draw flows from seeds derived with SeedSequence
from the run seed plus stable integer keys (quantized design coordinates,
objective index), so results do not depend on evaluation order.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .sizing import GENE_NAMES, DesignVector


class NonFiniteObjectivesError(ValueError):
    """A model evaluation produced a NaN or infinite objective."""


@dataclass(frozen=True)
class Objectives:
    """The two minimized figures: system mass [kg] and -b [km]."""

    m_sys: float
    neg_b: float

    def __post_init__(self):
        if not (math.isfinite(self.m_sys) and math.isfinite(self.neg_b)):
            raise NonFiniteObjectivesError(
                f"objectives must be finite, got m_sys={self.m_sys}, -b={self.neg_b}"
            )

    def as_tuple(self) -> tuple[float, float]:
        return (self.m_sys, self.neg_b)


def dominates(a: Objectives, b: Objectives) -> bool:
    """Strict Pareto dominance: no worse in both, strictly better in one."""
    return (
        a.m_sys <= b.m_sys
        and a.neg_b <= b.neg_b
        and (a.m_sys < b.m_sys or a.neg_b < b.neg_b)
    )


@dataclass(frozen=True)
class Individual:
    """A design with its objective values and, in evidence modes, the
    uncertain-space witnesses of the inner optimizations."""

    design: DesignVector
    objectives: Objectives
    witness_mass: np.ndarray | None = None
    witness_negb: np.ndarray | None = None


class ParetoArchive:
    """Nondominated set of individuals with crowding-based truncation."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.members: list[Individual] = []

    def add(self, candidate: Individual) -> bool:
        """Insert if nondominated; evict members the candidate dominates."""
        obj = candidate.objectives
        for m in self.members:
            if dominates(m.objectives, obj) or m.objectives.as_tuple() == obj.as_tuple():
                return False
        self.members = [m for m in self.members if not dominates(obj, m.objectives)]
        self.members.append(candidate)
        if len(self.members) > self.capacity:
            self._truncate()
        return True

    def _truncate(self) -> None:
        """Drop the most crowded member (extremes are always kept)."""
        pts = np.array([m.objectives.as_tuple() for m in self.members])
        order = np.argsort(pts[:, 0])
        span = np.maximum(pts.max(axis=0) - pts.min(axis=0), 1e-300)
        crowd = np.full(len(self.members), np.inf)
        for k in range(1, len(order) - 1):
            prev_pt, next_pt = pts[order[k - 1]], pts[order[k + 1]]
            crowd[order[k]] = np.sum(np.abs(next_pt - prev_pt) / span)
        drop = int(np.argmin(crowd))
        self.members.pop(drop)

    def sorted_by_mass(self) -> list[Individual]:
        return sorted(self.members, key=lambda m: m.objectives.m_sys)


@dataclass(frozen=True)
class SolverConfig:
    """Budgets and population sizes of the outer and inner searches."""

    outer_budget: int
    outer_pop: int
    explorers: int
    inner_budget: int
    inner_pop: int
    seed: int
    archive_capacity: int

    def __post_init__(self):
        if self.outer_budget <= 0 or self.inner_budget <= 0:
            raise ValueError("budgets must be positive")
        if self.outer_pop < 4:
            raise ValueError("outer population must allow DE moves (>= 4)")
        if self.inner_pop < 4:
            raise ValueError("inner population must allow DE moves (>= 4)")
        if self.inner_budget < self.inner_pop:
            raise ValueError("inner budget must cover one inner population (>= inner_pop)")
        # explorer restarts bring fresh designs once the population has collapsed
        # onto cached ones, if the box holds any; else solve_moo's revisit bound ends it
        if not 1 <= self.explorers < self.outer_pop:
            raise ValueError("explorer count must lie in [1, outer_pop)")
        # truncation keeps both extremes of the front, so it needs room for them
        if self.archive_capacity < 2:
            raise ValueError(f"archive capacity must be at least 2, got {self.archive_capacity}")
        if self.seed < 0:  # numpy seed sequences take no negatives
            raise ValueError(f"seed must be non-negative, got {self.seed}")


# ---------------------------------------------------------------------------
# Inner bound search: restart differential evolution on [0, 1]^d
# ---------------------------------------------------------------------------

_COLLAPSE_TOL = 1e-9


@dataclass
class BoundResult:
    value: float
    point: np.ndarray
    evaluations: int


def inner_bound_search(
    f,
    dim: int,
    sense: str,
    budget: int,
    pop_size: int,
    rng: np.random.Generator,
    seeds: tuple[np.ndarray, ...] = (),
) -> BoundResult:
    """Bound f over the unit hypercube by restart DE (rand/1/bin, weight
    0.8, crossover rate 0.9).

    ``sense`` is "min" or "max". Optional ``seeds`` are injected into the
    initial population (the paper's nominal point, cached witnesses). On
    population collapse (every coordinate's spread below ``_COLLAPSE_TOL``)
    the population re-inflates from fresh uniform draws with the incumbent
    best preserved. The search ends at its ``budget``-th evaluation.
    Deterministic for a fixed generator state.
    """
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    if budget < pop_size:
        raise ValueError("budget must cover at least one population evaluation")
    sign = 1.0 if sense == "min" else -1.0
    evals = 0

    class Spent(Exception):  # this call's own stop signal: no other search catches it
        pass

    def h(u):
        nonlocal evals
        if evals == budget:
            raise Spent
        evals += 1
        return sign * f(u)

    pop = rng.random((pop_size, dim))
    for k, s in enumerate(seeds[: pop_size - 1]):
        pop[k] = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    fitness = np.array([h(u) for u in pop])
    best_idx = int(np.argmin(fitness))
    best_u = pop[best_idx].copy()
    best_f = float(fitness[best_idx])

    try:
        while True:
            for i in range(pop_size):
                choices = [k for k in range(pop_size) if k != i]
                a, b, c = rng.choice(choices, size=3, replace=False)
                mutant = pop[a] + 0.8 * (pop[b] - pop[c])
                cross = rng.random(dim) < 0.9
                cross[rng.integers(dim)] = True
                trial = np.clip(np.where(cross, mutant, pop[i]), 0.0, 1.0)
                ft = h(trial)
                if ft <= fitness[i]:
                    pop[i] = trial
                    fitness[i] = ft
                    if ft < best_f:
                        best_f = float(ft)
                        best_u = trial.copy()
            # restart on collapse, keeping the incumbent best
            if float(np.max(np.ptp(pop, axis=0))) < _COLLAPSE_TOL:
                pop = rng.random((pop_size, dim))
                pop[0] = best_u
                for i in range(pop_size):
                    fitness[i] = h(pop[i])
                    if fitness[i] < best_f:
                        best_f = float(fitness[i])
                        best_u = pop[i].copy()
    except Spent:
        pass
    return BoundResult(value=sign * best_f, point=best_u, evaluations=evals)


def zero_or_search(f, corner: np.ndarray, search) -> list[BoundResult]:
    """Toward the least value of f, a function that is never negative (b,
    a norm), over a region that holds ``corner``: f at ``corner`` first,
    one evaluation. A value of exactly 0.0 there is the least value,
    certified, with ``corner`` as its witness, and ``search`` does not run;
    otherwise ``search(at_corner)`` runs, given the corner's result so that
    its value can join the search. Returns the corner's result, then the
    search's if it ran; a 0.0 among them is certified, any other least
    value is an estimate."""
    at_corner = BoundResult(value=f(corner), point=corner, evaluations=1)
    if at_corner.value == 0.0:
        return [at_corner]
    return [at_corner, search(at_corner)]


# ---------------------------------------------------------------------------
# Outer memetic multi-objective search
# ---------------------------------------------------------------------------

def decode_design(genes: np.ndarray, bounds: dict) -> DesignVector:
    """Map unit genes to a design; the spacecraft count rounds half-up,
    so it stays inside bounds that are integers (the scenario's are)."""
    lows = np.array([bounds[n][0] for n in GENE_NAMES], dtype=float)
    highs = np.array([bounds[n][1] for n in GENE_NAMES], dtype=float)
    x = lows + np.clip(genes, 0.0, 1.0) * (highs - lows)
    return DesignVector(d_m=float(x[0]), n_sc=math.floor(x[1] + 0.5), t_warn=float(x[2]),
                        c_r=float(x[3]))


def quantize_design(design: DesignVector) -> tuple[int, ...]:
    """Stable integer key of a design for caching and seed derivation: the
    continuous coordinates on a 1e-9 grid."""
    return (
        int(round(design.d_m / 1e-9)),
        design.n_sc,
        int(round(design.t_warn / 1e-9)),
        int(round(design.c_r / 1e-9)),
    )


def solve_moo(evaluate, bounds: dict, config: SolverConfig) -> ParetoArchive:
    """Memetic bi-objective minimization over the design box.

    ``evaluate(design) -> Individual`` supplies the objective values (and
    witnesses in evidence modes); evaluations are cached on the quantized
    design so revisits are free. DE social moves drive most agents;
    ``config.explorers`` agents poll coordinates with a shrinking step.
    It ends at ``config.outer_budget`` distinct designs, or after as many
    proposals in a row brought no new one (a small box holds fewer designs).
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xD0]))
    archive = ParetoArchive(capacity=config.archive_capacity)
    cache: dict[tuple[int, ...], Individual] = {}
    revisits = 0

    class Spent(Exception):  # this call's own stop signal: no other search catches it
        pass

    def run(genes: np.ndarray) -> Individual:
        nonlocal revisits
        if len(cache) == config.outer_budget or revisits == config.outer_budget:
            raise Spent
        design = decode_design(genes, bounds)
        key = quantize_design(design)
        hit = cache.get(key)
        revisits = 0 if hit is None else revisits + 1
        if hit is None:
            hit = evaluate(design)
            cache[key] = hit
            archive.add(hit)
        return hit

    dim = len(GENE_NAMES)
    pop = rng.random((config.outer_pop, dim))
    steps = np.full(config.outer_pop, 0.25)
    try:
        inds = [run(genes) for genes in pop]
        while True:
            for i in range(config.outer_pop):
                if i < config.explorers:
                    for d, direction in itertools.product(rng.permutation(dim), (+1.0, -1.0)):
                        trial = pop[i].copy()
                        trial[d] = min(max(trial[d] + direction * steps[i], 0.0), 1.0)
                        cand = run(trial)
                        if dominates(cand.objectives, inds[i].objectives):
                            pop[i], inds[i] = trial, cand
                            break
                    else:
                        steps[i] *= 0.5
                        if steps[i] < 1e-4:
                            steps[i] = 0.25
                            pop[i] = rng.random(dim)
                            inds[i] = run(pop[i])
                else:
                    choices = [k for k in range(config.outer_pop) if k != i]
                    a, b, c = rng.choice(choices, size=3, replace=False)
                    f_w = rng.uniform(0.4, 1.0)
                    mutant = pop[a] + f_w * (pop[b] - pop[c])
                    cross = rng.random(dim) < 0.9
                    cross[rng.integers(dim)] = True
                    trial = np.clip(np.where(cross, mutant, pop[i]), 0.0, 1.0)
                    cand = run(trial)
                    if dominates(cand.objectives, inds[i].objectives):
                        pop[i], inds[i] = trial, cand
                    elif not dominates(inds[i].objectives, cand.objectives) and rng.random() < 0.5:
                        pop[i], inds[i] = trial, cand
    except Spent:
        pass
    return archive
