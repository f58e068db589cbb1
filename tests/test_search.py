"""Dominance, archive behavior, restart-DE bounds and the memetic search."""
import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFERENCE
from neodeflect import search
from neodeflect.sizing import DesignVector, check_design_bounds
from neodeflect.search import (
    BoundResult,
    Individual,
    Objectives,
    ParetoArchive,
    decode_design,
    dominates,
    inner_bound_search,
    quantize_design,
    solve_moo,
)

from test_sizing import DESIGN_BOUNDS

# the reference scenario's budgets and populations, at seed 0
SOLVER = replace(REFERENCE.solver, seed=0)


def ind(m, nb, d_m=10.0):
    return Individual(DesignVector(d_m, 5, 4.0, 2000.0), Objectives(m, nb))


def objective_array(archive: ParetoArchive) -> np.ndarray:
    return np.array([m.objectives.as_tuple() for m in archive.members])


# ---------------------------------------------------------------------------
# Dominance and archive
# ---------------------------------------------------------------------------

def test_dominates_basics():
    assert dominates(Objectives(1, 1), Objectives(2, 2))
    assert not dominates(Objectives(1, 2), Objectives(2, 1))
    assert not dominates(Objectives(2, 1), Objectives(1, 2))
    assert not dominates(Objectives(1, 1), Objectives(1, 1))
    assert dominates(Objectives(1, 1), Objectives(1, 2))


def test_objectives_reject_nonfinite():
    with pytest.raises(ValueError):
        Objectives(math.inf, 0.0)
    with pytest.raises(ValueError):
        Objectives(0.0, math.nan)


def test_archive_keeps_nondominated_only():
    archive = ParetoArchive(capacity=200)
    archive.add(ind(2, -5))
    archive.add(ind(3, -10))
    assert len(archive.members) == 2
    # dominated candidate rejected
    assert not archive.add(ind(3.5, -4))
    # dominating candidate evicts
    archive.add(ind(1.5, -11))
    assert len(archive.members) == 1


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(1, 100), st.floats(-100, -1)),
        min_size=1, max_size=60,
    )
)
def test_archive_nondominance_invariant(points):
    archive = ParetoArchive(capacity=40)
    for m, nb in points:
        archive.add(ind(m, nb))
    members = archive.members
    assert members
    for a, b in itertools.permutations(members, 2):
        assert not dominates(a.objectives, b.objectives)


def test_archive_truncation_keeps_extremes():
    archive = ParetoArchive(capacity=5)
    for k in range(30):
        archive.add(ind(1.0 + k, -(1.0 + k)))
    assert len(archive.members) == 5
    masses = [m.objectives.m_sys for m in archive.members]
    assert min(masses) == 1.0 and max(masses) == 30.0


# ---------------------------------------------------------------------------
# Inner bound search
# ---------------------------------------------------------------------------

def test_inner_search_separable_linear():
    rng = np.random.default_rng(1)
    res = inner_bound_search(
        lambda u: float(np.sum(u)), dim=4, sense="min",
        budget=600, pop_size=8, rng=rng,
    )
    assert res.value == pytest.approx(0.0, abs=1e-6)
    np.testing.assert_allclose(res.point, 0.0, atol=1e-6)


def test_inner_search_product_sine_max_known_optimum():
    rng = np.random.default_rng(2)
    res = inner_bound_search(
        lambda u: -float(np.prod(np.sin(np.pi * u))), dim=3, sense="min",
        budget=2500, pop_size=8, rng=rng,
    )
    assert res.value == pytest.approx(-1.0, abs=1e-4)
    np.testing.assert_allclose(res.point, 0.5, atol=5e-3)


def test_inner_search_piecewise_constant_matches_enumeration():
    rng = np.random.default_rng(3)
    edges = [0.0, 0.3, 0.55, 1.0]
    values = np.array([[2.0, -1.0, 4.0], [0.5, 3.0, -2.0], [1.0, 1.0, 1.0]])

    def cell(u):
        i = min(np.searchsorted(edges, u[0], side="right") - 1, 2)
        j = min(np.searchsorted(edges, u[1], side="right") - 1, 2)
        return float(values[i, j])

    res_min = inner_bound_search(cell, 2, "min", 700, 8, np.random.default_rng(3))
    res_max = inner_bound_search(cell, 2, "max", 700, 8, np.random.default_rng(4))
    assert res_min.value == values.min()
    assert res_max.value == values.max()


def test_inner_search_seed_injection_guarantees_bound():
    """A seeded point caps the found minimum from above deterministically."""
    target = np.array([0.123, 0.456])
    f = lambda u: float(np.sum((u - target) ** 2))
    rng = np.random.default_rng(5)
    res = inner_bound_search(f, 2, "min", budget=16, pop_size=8, rng=rng,
                             seeds=(target,))
    assert res.value <= 1e-30


def test_inner_search_max_sense():
    rng = np.random.default_rng(6)
    res = inner_bound_search(
        lambda u: float(u[0] - 2 * u[1]), 2, "max", 800, 8, rng
    )
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_inner_search_determinism():
    f = lambda u: float(np.cos(3 * u[0]) * u[1])
    r1 = inner_bound_search(f, 2, "min", 300, 6, np.random.default_rng(42))
    r2 = inner_bound_search(f, 2, "min", 300, 6, np.random.default_rng(42))
    assert r1.value == r2.value
    np.testing.assert_array_equal(r1.point, r2.point)


def test_inner_search_budget_validation():
    with pytest.raises(ValueError):
        inner_bound_search(lambda u: 0.0, 2, "min", 3, 8, np.random.default_rng(0))
    with pytest.raises(ValueError):
        inner_bound_search(lambda u: 0.0, 2, "median", 100, 8, np.random.default_rng(0))


def test_inner_search_restart_escapes_collapse():
    """A deceptive function whose wide basin collapses the population early;
    the restart must still find the needle given budget."""
    def f(u):
        base = float(np.sum((u - 0.9) ** 2))
        if np.all(np.abs(u - 0.1) < 0.05):
            base -= 10.0
        return base

    with mock.patch.object(search, "_COLLAPSE_TOL", 1e-3):
        res = inner_bound_search(f, 2, "min", 12000, 6, np.random.default_rng(8))
    # global minimum sits at the needle corner nearest the wide basin:
    # 2*(0.15-0.9)^2 - 10 = -8.875
    assert res.value == pytest.approx(-8.875, abs=0.05)


def test_inner_search_restart_keeps_the_best_evaluated_point():
    """With a collapse tolerance wider than the unit interval the search
    re-inflates after every generation, the last time with less than a
    population of budget left. The reported bound must be the best value
    of every evaluated point, re-inflated members included."""
    for seed in range(200):
        for sense, best in (("min", min), ("max", max)):
            seen = []

            def f(u):
                seen.append(math.sin(7.0 * u[0]) + u[0])
                return seen[-1]

            with mock.patch.object(search, "_COLLAPSE_TOL", 2.0):
                res = inner_bound_search(f, 1, sense, 12, 4, np.random.default_rng(seed))
            assert res.evaluations == 12 == len(seen)
            assert res.value == best(seen)
            assert f(res.point) == res.value


# ---------------------------------------------------------------------------
# Outer memetic search
# ---------------------------------------------------------------------------

def test_decode_design_rounds_count_half_up():
    bounds = DESIGN_BOUNDS
    d = decode_design(np.array([0.0, 0.5, 0.0, 0.0]), bounds)
    assert d.n_sc == 6  # 1 + 0.5*9 = 5.5 rounds up
    d = decode_design(np.array([1.0, 1.0, 1.0, 1.0]), bounds)
    assert (d.d_m, d.n_sc, d.t_warn, d.c_r) == (20.0, 10, 8.0, 3000.0)
    d = decode_design(np.array([0.0, 0.0, 0.0, 0.0]), bounds)
    assert (d.d_m, d.n_sc, d.t_warn, d.c_r) == (2.0, 1, 1.0, 1000.0)


@st.composite
def integer_boxes(draw):
    """Design boxes with integer bounds, as the scenario's spacecraft
    bounds must be (and the reference box's all are), from one-point boxes
    to wide ones, held as ints or as whole floats."""
    whole = draw(st.sampled_from([int, float]))
    box = {}
    for name in ("d_m", "n_sc", "t_warn", "c_r"):
        lo = draw(st.integers(1, 10**6))
        box[name] = (whole(lo), whole(lo + draw(st.integers(0, 10**6))))
    return box


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-0.5, 1.5), min_size=4, max_size=4), integer_boxes())
def test_decoded_designs_lie_in_their_box(genes, box):
    """Every decoded design lies in its box, its spacecraft count an int:
    with integer bounds the half-up rounding needs no clamp."""
    design = decode_design(np.array(genes), box)
    assert type(design.n_sc) is int
    check_design_bounds(design, box)


def test_quantize_design_stable():
    d1 = DesignVector(10.0, 5, 4.0, 2000.0)
    d2 = DesignVector(10.0 + 1e-13, 5, 4.0, 2000.0)
    assert quantize_design(d1) == quantize_design(d2)


def bi_objective_toy(design: DesignVector) -> Individual:
    x = (design.d_m - 2.0) / 18.0
    return Individual(design, Objectives(x, 1.0 - x))


def test_solve_moo_known_front():
    config = replace(SOLVER, outer_budget=800, outer_pop=10, explorers=2, seed=7)
    archive = solve_moo(bi_objective_toy, DESIGN_BOUNDS, config)
    pts = objective_array(archive)
    # whole front lies on m + (1 - m): every member is exactly on the line
    np.testing.assert_allclose(pts[:, 0] + pts[:, 1], 1.0, atol=1e-12)
    # spans the line: hypervolume against (1.1, 1.1) within 5% of analytic
    order = np.argsort(pts[:, 0])
    xs = np.concatenate([[0.0], pts[order, 0], [1.0]])
    ys = np.concatenate([[1.0], pts[order, 1], [0.0]])
    hv = 0.0
    ref = 1.1
    prev_x = xs[0]
    prev_y = ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        hv += (x - prev_x) * (ref - prev_y)
        prev_x, prev_y = x, y
    hv += (ref - 1.0) * (ref - 0.0)  # tail beyond x = 1
    analytic = ref * ref - 0.5 - (ref - 1.0) * ref  # area dominated by the line
    assert hv == pytest.approx(analytic + (ref - 1.0) * ref, rel=0.05)


def test_solve_moo_determinism():
    config = replace(SOLVER, outer_budget=400, outer_pop=8, explorers=2, seed=11)
    a1 = solve_moo(bi_objective_toy, DESIGN_BOUNDS, config)
    a2 = solve_moo(bi_objective_toy, DESIGN_BOUNDS, config)
    p1, p2 = objective_array(a1), objective_array(a2)
    assert p1.shape == p2.shape
    np.testing.assert_array_equal(np.sort(p1, axis=0), np.sort(p2, axis=0))


def test_solve_moo_respects_bounds_and_integrality():
    config = replace(SOLVER, outer_budget=300, outer_pop=8, explorers=2, seed=3)
    archive = solve_moo(bi_objective_toy, DESIGN_BOUNDS, config)
    for m in archive.members:
        d = m.design
        assert 2.0 <= d.d_m <= 20.0
        assert 1 <= d.n_sc <= 10 and isinstance(d.n_sc, int)
        assert 1.0 <= d.t_warn <= 8.0
        assert 1000.0 <= d.c_r <= 3000.0


def test_solve_moo_evaluates_exactly_the_budget():
    """No move ever dominates on a single front, so explorers keep
    shrinking their step and restarting; a restart due after the budget
    is spent must not evaluate one more design, and a budget below the
    population size caps the initial population."""

    def distinct_evaluations(budget, explorers, outer_pop=4):
        evaluated = []

        def one_front(design):
            evaluated.append(design)
            return Individual(design, Objectives(design.d_m, -design.d_m))

        config = replace(SOLVER, outer_budget=budget, outer_pop=outer_pop,
                         explorers=explorers, seed=budget)
        solve_moo(one_front, DESIGN_BOUNDS, config)
        return len(evaluated)

    for budget, explorers in ((102, 1), (112, 1), (164, 2), (60, 1), (250, 2)):
        assert distinct_evaluations(budget, explorers) == budget
    for budget in (1, 3, 9):
        assert distinct_evaluations(budget, 2, outer_pop=10) == budget


def _bounded_proposals(limit):
    """A ``decode_design`` that fails the test after ``limit`` proposals, so
    that a search which never ends fails rather than hangs; returns it with
    the list of the designs it decoded."""
    decoded = []

    def decode(genes, bounds):
        assert len(decoded) < limit, f"the search did not end within {limit} proposals"
        decoded.append(decode_design(genes, bounds))
        return decoded[-1]

    return decode, decoded


def test_solve_moo_on_a_one_point_box_evaluates_once():
    """Every proposal on a one-point box revisits its only design: the
    search evaluates it once and ends after ``outer_budget`` revisits in a
    row, however large the budget: one proposal and as many revisits as the
    budget."""
    point = {"d_m": (20.0, 20.0), "n_sc": (10, 10), "t_warn": (2.0, 2.0), "c_r": (3000.0, 3000.0)}
    for budget in (2, 14, 300):
        evaluated = []

        def evaluate(design):
            evaluated.append(design)
            return bi_objective_toy(design)

        decode, decoded = _bounded_proposals(100 * budget + 100)
        config = replace(SOLVER, outer_budget=budget, outer_pop=4, explorers=1, seed=budget)
        with mock.patch.object(search, "decode_design", decode):
            archive = solve_moo(evaluate, point, config)
        assert evaluated == [DesignVector(20.0, 10, 2.0, 3000.0)]
        assert len(archive.members) == 1
        assert len(decoded) == 1 + budget


def test_solve_moo_ends_when_the_box_holds_fewer_designs_than_the_budget():
    """With only the spacecraft count free the box holds 10 designs, fewer
    than the budget: the search evaluates each design it finds once and
    ends."""
    box = dict(DESIGN_BOUNDS, d_m=(20.0, 20.0), t_warn=(2.0, 2.0), c_r=(3000.0, 3000.0))
    for seed in range(10):
        evaluated = []

        def evaluate(design):
            evaluated.append(design)
            return Individual(design, Objectives(float(design.n_sc), -float(design.n_sc)))

        decode, _ = _bounded_proposals(10000)
        config = replace(SOLVER, outer_budget=14, outer_pop=4, explorers=1, seed=seed)
        with mock.patch.object(search, "decode_design", decode):
            solve_moo(evaluate, box, config)
        counts = [d.n_sc for d in evaluated]
        assert 1 <= len(counts) == len(set(counts)) <= 10


def test_an_inner_search_inside_an_outer_evaluation_keeps_both_budgets():
    """Each search's stop signal ends only that search: inner searches run
    inside every outer evaluation, and inside each other's evaluations,
    and every one of them spends exactly its own budget."""
    inner_evaluations = []

    def nested(u):
        res = inner_bound_search(lambda v: float(np.sum(v * u)), 2, "max", 5, 4,
                                 np.random.default_rng(1))
        inner_evaluations.append(res.evaluations)
        return res.value

    evaluated = []

    def evaluate(design):
        evaluated.append(design)
        res = inner_bound_search(nested, 2, "min", 9, 4, np.random.default_rng(design.n_sc))
        inner_evaluations.append(res.evaluations)
        return bi_objective_toy(design)

    config = replace(SOLVER, outer_budget=20, outer_pop=4, explorers=1, seed=4)
    solve_moo(evaluate, DESIGN_BOUNDS, config)
    assert len(evaluated) == len({quantize_design(d) for d in evaluated}) == 20
    assert inner_evaluations.count(9) == 20
    assert inner_evaluations.count(5) == 20 * 9 == len(inner_evaluations) - 20


def test_solver_config_validation():
    with pytest.raises(ValueError):
        replace(SOLVER, outer_budget=0)
    with pytest.raises(ValueError):
        replace(SOLVER, outer_pop=2)
    with pytest.raises(ValueError):
        replace(SOLVER, explorers=10, outer_pop=10)
    with pytest.raises(ValueError):
        replace(SOLVER, explorers=0)
    with pytest.raises(ValueError, match="inner budget must cover"):
        replace(SOLVER, inner_budget=3, inner_pop=4)
    for capacity in (0, 1):
        with pytest.raises(ValueError, match="archive capacity"):
            replace(SOLVER, archive_capacity=capacity)
    replace(SOLVER, inner_budget=4, inner_pop=4)
    replace(SOLVER, archive_capacity=2)


def test_inner_search_quadratic_endpoint_max():
    """Worst case of (x - u)^2 at x = 0.3 over u in [0, 1] sits at u = 1."""
    f = lambda u: (0.3 - u[0]) ** 2
    res = inner_bound_search(f, 1, "max", 200, 6, np.random.default_rng(12))
    assert res.value == pytest.approx(0.49, abs=1e-6)
    assert res.point[0] == pytest.approx(1.0, abs=1e-6)


def test_inner_search_piecewise_monotone_d5():
    """Bound soundness on a 5-D piecewise-monotone landscape: the found
    minimum must match the exact per-cell enumeration bound."""
    rng = np.random.default_rng(2718)
    edges = [np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.2, 0.8, 1)]))
             for _ in range(5)]
    base = rng.uniform(-5.0, 5.0, (2,) * 5)
    slope = rng.uniform(-1.0, 1.0, 5)

    def cell_index(u):
        return tuple(
            min(int(np.searchsorted(edges[d], u[d], side="right")) - 1, 1)
            for d in range(5)
        )

    def f(u):
        return float(base[cell_index(u)] + np.dot(slope, u))

    # exact bound: per cell, the monotone part is extremal at a corner
    exact = math.inf
    for idx in itertools.product(range(2), repeat=5):
        corner = np.array([
            edges[d][idx[d]] if slope[d] > 0 else edges[d][idx[d] + 1]
            for d in range(5)
        ])
        exact = min(exact, base[idx] + float(np.dot(slope, corner)))

    with mock.patch.object(search, "_COLLAPSE_TOL", 1e-7):
        res = inner_bound_search(f, 5, "min", 9000, 10, np.random.default_rng(7))
    assert res.value == pytest.approx(exact, abs=1e-6)
