"""Evidence structures: fusion, focal elements, Bel/Pl and the curve builder."""
import itertools
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neodeflect import evidence
from neodeflect.evidence import (
    BeliefCurve,
    ExpertOpinion,
    FocalStructure,
    FusionError,
    ParameterBPA,
    UncertainInterval,
    bel_pl_curve,
    fuse_experts,
)
from neodeflect.mission import load_expert_opinions

from oracles import (
    build_focal_elements,
    complement_bel_pl,
    duality_check,
    enumerate_bel_pl,
    focal_elements,
    n_elements,
)

DATA = Path(__file__).parent.parent / "src" / "neodeflect" / "data" / "expert_opinions.json"

UNCERTAIN_NAMES = [
    "c_a", "k_a", "rho_a", "t_sub", "e_sub",
    "eta_l", "eta_sa", "rho_m", "rho_l", "rho_r",
]

# Fused reference structure: (lo, hi) -> BPA, per parameter.
FUSED_TABLES = {
    "c_a": {(375.0, 470.0): 0.1, (470.0, 600.0): 0.3667,
            (470.0, 750.0): 0.3333, (600.0, 750.0): 0.2},
    "k_a": {(0.2, 0.5): 0.1, (1.47, 1.6): 0.4, (0.2, 2.0): 0.5},
    "rho_a": {(1100.0, 2000.0): 0.1, (2000.0, 3700.0): 0.5667,
              (1100.0, 3700.0): 0.3333},
    "t_sub": {(1700.0, 1720.0): 0.3333, (1720.0, 1812.0): 0.3333,
              (1700.0, 1812.0): 0.3333},
    "e_sub": {(2.7e5, 1e6): 0.0667, (2.7e5, 6e6): 0.3333,
              (4e6, 6e6): 0.2333, (1e7, 1.9686e7): 0.3667},
    "eta_l": {(0.4, 0.5): 0.3333, (0.5, 0.6): 0.3,
              (0.55, 0.664): 0.3333, (0.6, 0.664): 0.0333},
    "eta_sa": {(0.2, 0.3): 0.2, (0.3, 0.5): 0.3, (0.2, 0.5): 0.5},
    "rho_m": {(0.3, 0.5): 0.5, (0.1, 0.3): 0.1667, (0.01, 0.05): 0.3333},
    "rho_l": {(0.005, 0.01): 0.2, (0.01, 0.02): 0.8},
    "rho_r": {(1.0, 2.0): 0.2, (1.0, 3.0): 0.5, (2.0, 4.0): 0.3},
}


def iv(lo, hi, bpa):
    return UncertainInterval(lo, hi, bpa)


def corner_bounder(f):
    """Exact bounds over a box for coordinate-monotone objectives."""

    def bounds(box):
        values = [f(np.array(c)) for c in itertools.product(*box)]
        return min(values), max(values)

    return bounds


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------

def test_fusion_reproduces_laser_efficiency_matrix():
    opinions = load_expert_opinions(DATA)
    fused = fuse_experts(opinions, "eta_l")
    got = {(i.lo, i.hi): i.bpa for i in fused.intervals}
    want = FUSED_TABLES["eta_l"]
    assert set(got) == set(want)
    for key, bpa in want.items():
        assert got[key] == pytest.approx(bpa, abs=5e-5)


def test_fusion_reproduces_all_ten_parameters():
    opinions = load_expert_opinions(DATA)
    for name in UNCERTAIN_NAMES:
        fused = fuse_experts(opinions, name)
        got = {(i.lo, i.hi): i.bpa for i in fused.intervals}
        want = FUSED_TABLES[name]
        assert set(got) == set(want), name
        for key, bpa in want.items():
            assert got[key] == pytest.approx(bpa, abs=5e-5), (name, key)
        assert math.fsum(i.bpa for i in fused.intervals) == pytest.approx(1.0, abs=1e-9)


def test_fusion_single_expert_identity():
    op = ExpertOpinion("solo", weight=1.0, parameters={"x": (iv(0, 1, 0.4), iv(1, 3, 0.6))})
    fused = fuse_experts([op], "x")
    assert {(i.lo, i.hi): i.bpa for i in fused.intervals} == {(0, 1): 0.4, (1, 3): 0.6}


def test_fusion_identical_opinions_idempotent():
    table = {"x": (iv(0, 1, 0.25), iv(0.5, 2, 0.75))}
    ops = [ExpertOpinion(c, weight=1.0, parameters=dict(table)) for c in "abc"]
    fused = fuse_experts(ops, "x")
    got = {(i.lo, i.hi): i.bpa for i in fused.intervals}
    assert got[(0, 1)] == pytest.approx(0.25)
    assert got[(0.5, 2)] == pytest.approx(0.75)


def test_fusion_excludes_non_addressing_experts():
    ops = [
        ExpertOpinion("a", weight=1.0, parameters={"x": (iv(0, 1, 1.0),)}),
        ExpertOpinion("b", weight=1.0, parameters={"y": (iv(5, 6, 1.0),)}),
    ]
    fused = fuse_experts(ops, "x")
    assert fused.intervals[0].bpa == pytest.approx(1.0)
    with pytest.raises(FusionError):
        fuse_experts(ops, "z")


# ---------------------------------------------------------------------------
# Focal elements and the unit-hypercube map
# ---------------------------------------------------------------------------

def two_param_toy():
    return [
        ParameterBPA("u1", (iv(0.0, 1.0, 0.7), iv(1.0, 2.0, 0.3))),
        ParameterBPA("u2", (iv(10.0, 11.0, 0.4), iv(11.0, 14.0, 0.6))),
    ]


def test_focal_product_toy():
    elements = build_focal_elements(two_param_toy())
    assert len(elements) == 4
    bpas = sorted(e.bpa for e in elements)
    assert bpas == pytest.approx([0.12, 0.18, 0.28, 0.42])
    assert math.fsum(e.bpa for e in elements) == pytest.approx(1.0, abs=1e-12)


def test_focal_single_interval():
    els = build_focal_elements([ParameterBPA("x", (iv(2, 5, 1.0),))])
    assert len(els) == 1 and els[0].bpa == 1.0


def test_focal_count_cap():
    params = [
        ParameterBPA(f"p{k}", tuple(iv(j, j + 1, 0.1) for j in range(10)))
        for k in range(8)
    ]
    with pytest.raises(ValueError):
        build_focal_elements(params, max_elements=10**6)


def test_full_structure_counts_and_product():
    opinions = load_expert_opinions(DATA)
    params = [fuse_experts(opinions, name) for name in UNCERTAIN_NAMES]
    structure = FocalStructure(params)
    counts = structure.counts()
    assert counts[:5] == (4, 3, 3, 3, 4)
    assert counts[5:] == (4, 3, 3, 2, 3)
    product = 1
    for c in counts:
        product *= c
    assert n_elements(structure) == product == 93312
    # product BPAs over the whole structure still sum to one
    total = math.fsum(el.bpa for el in focal_elements(structure))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_unit_cells_tile_without_overlap():
    structure = FocalStructure(two_param_toy())
    for d in range(structure.dim):
        edges = structure.cum[d]
        assert edges[0] == 0.0 and edges[-1] == 1.0
        assert all(b > a for a, b in zip(edges, edges[1:]))


def test_unit_to_physical_examples():
    structure = FocalStructure(two_param_toy())
    np.testing.assert_allclose(structure.unit_to_physical([0.0, 0.0]), [0.0, 10.0])
    # upper boundary of the first cell belongs to the first cell: its hi
    np.testing.assert_allclose(structure.unit_to_physical([0.7, 0.4]), [1.0, 11.0])
    np.testing.assert_allclose(structure.unit_to_physical([1.0, 1.0]), [2.0, 14.0])
    mid = structure.unit_to_physical([0.35, 0.2])
    np.testing.assert_allclose(mid, [0.5, 10.5])


def test_unit_to_physical_monte_carlo_frequencies():
    structure = FocalStructure(two_param_toy())
    rng = np.random.default_rng(99)
    n = 40000
    hits = np.zeros((2, 2))
    for point in rng.random((n, 2)):
        for d in range(2):
            hits[d, structure.cell_of(d, point[d])] += 1
    for d, param in enumerate(structure.params):
        for j, interval in enumerate(param.intervals):
            p = interval.bpa
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(hits[d, j] - n * p) < 3 * sigma


def test_physical_to_unit_roundtrip():
    gapped = FocalStructure([ParameterBPA("g", (iv(0.0, 1.0, 0.5), iv(2.0, 3.0, 0.5)))])
    rng = np.random.default_rng(4)
    for structure in (FocalStructure(two_param_toy()), gapped):
        for _ in range(200):
            u = rng.random(structure.dim)
            x = structure.unit_to_physical(u)
            u2 = structure.physical_to_unit(x)
            np.testing.assert_allclose(structure.unit_to_physical(u2), x, atol=1e-12)
    # each end of a disjoint interval maps into its own cell: 2.0 lands one
    # step above the edge 0.5, which belongs to the cell of [0, 1]
    for j, interval in enumerate(gapped.params[0].intervals):
        for x in (interval.lo, interval.hi):
            u = gapped.physical_to_unit([x])
            assert gapped.cell_of(0, u[0]) == j
            assert gapped.unit_to_physical(u)[0] == x


# ---------------------------------------------------------------------------
# Bel / Pl of thresholds
# ---------------------------------------------------------------------------

def test_threshold_identity_objective_1d():
    structure = FocalStructure(
        [ParameterBPA("u", (iv(0.4, 0.5, 0.7), iv(0.5, 0.6, 0.3)))]
    )
    f = corner_bounder(lambda x: x[0])

    def phys_bounds(unit_box):
        los = structure.unit_to_physical([unit_box[0][0]])
        his = structure.unit_to_physical([unit_box[0][1]])
        return f(tuple(zip(los, his)))

    bel, pl = enumerate_bel_pl(phys_bounds, structure, 0.55)
    assert bel == pytest.approx(0.7)
    assert pl == pytest.approx(1.0)
    bel, pl = enumerate_bel_pl(phys_bounds, structure, 0.3)
    assert (bel, pl) == (0.0, 0.0)
    bel, pl = enumerate_bel_pl(phys_bounds, structure, 0.9)
    assert (bel, pl) == (1.0, 1.0)


def test_threshold_sum_objective_2d():
    structure = FocalStructure(two_param_toy())
    f = lambda x: x[0] + x[1]
    bounder = corner_bounder(f)

    def phys_bounds(unit_box):
        lo = structure.unit_to_physical([b[0] for b in unit_box])
        hi = structure.unit_to_physical([b[1] for b in unit_box])
        return bounder(tuple(zip(lo, hi)))

    # hand enumeration: boxes [0,1]/[1,2] x [10,11]/[11,14] give f ranges
    # [10,12] bpa .28, [11,15] bpa .42, [11,13] bpa .12, [12,16] bpa .18
    for v, want_bel, want_pl in [
        (11.5, 0.0, 0.28 + 0.42 + 0.12),
        (12.0001, 0.28, 1.0),
        (13.0001, 0.28 + 0.12, 1.0),
        (16.0001, 1.0, 1.0),
    ]:
        bel, pl = enumerate_bel_pl(phys_bounds, structure, v)
        assert bel == pytest.approx(want_bel, abs=1e-12)
        assert pl == pytest.approx(want_pl, abs=1e-12)


# ---------------------------------------------------------------------------
# Randomized structures: tree vs enumeration, duality
# ---------------------------------------------------------------------------

def random_structure(rng, max_dim=4, max_intervals=10):
    dim = int(rng.integers(1, max_dim + 1))
    params = []
    for d in range(dim):
        n = int(rng.integers(1, max_intervals + 1))
        raw = rng.random(n) + 0.05
        bpas = raw / raw.sum()
        # rescale the last so the fsum is exactly 1 within tolerance
        intervals = []
        anchor = rng.uniform(-5, 5)
        for j in range(n):
            lo = anchor + rng.uniform(0, 2)
            hi = lo + rng.uniform(0.1, 3)
            intervals.append(iv(lo, hi, float(bpas[j])))
            anchor = lo if rng.random() < 0.4 else anchor + rng.uniform(0, 1)
        params.append(ParameterBPA(f"p{d}", tuple(intervals)))
    return FocalStructure(params)


def separable_objective(rng, structure):
    """Random coordinate-monotone separable objective in unit space."""
    coeffs = rng.uniform(-3, 3, structure.dim)

    def f(u):
        return float(np.dot(coeffs, u))

    return f


def unit_corner_bounds(f, unit_box):
    values = [f(np.array(c)) for c in itertools.product(*unit_box)]
    return min(values), max(values)


def test_tree_curve_equals_enumeration_randomized():
    rng = np.random.default_rng(31)
    for trial in range(15):
        structure = random_structure(rng)
        f = separable_objective(rng, structure)
        bounds = lambda box: unit_corner_bounds(f, box)
        with mock.patch.object(evidence, "_BPA_FLOOR", 0.0):
            curve = bel_pl_curve(bounds, structure, n_v=9, max_partitions=10**6)
        for j, v in enumerate(curve.thresholds):
            bel, pl = enumerate_bel_pl(bounds, structure, v)
            assert curve.bel[j] == pytest.approx(bel, abs=1e-12), trial
            assert curve.pl[j] == pytest.approx(pl, abs=1e-12), trial


def test_marginal_curve_equals_joint_enumeration():
    """An objective that reads only a drawn subset S of the dimensions,
    bounded exactly at the corners of the marginal's boxes: its curve over
    ``marginal(S)`` equals the enumeration over the joint structure at every
    threshold. A marginal that drops a dimension S reads, holding it at a
    fixed value, does not."""
    rng = np.random.default_rng(53)
    trials = dropped = 0
    while trials < 15:
        structure = random_structure(rng, max_dim=4, max_intervals=5)
        if structure.dim < 2:
            continue
        trials += 1
        reads = sorted(rng.choice(structure.dim, int(rng.integers(1, structure.dim)),
                                  replace=False))
        coeffs = rng.uniform(0.5, 3.0, len(reads)) * rng.choice([-1.0, 1.0], len(reads))
        joint = lambda box: unit_corner_bounds(lambda u: float(np.dot(coeffs, u[reads])), box)

        def max_gap(names, f):
            marginal = structure.marginal(names)
            assert marginal.names == [n for n in structure.names if n in names]
            assert all(p is q for p in marginal.params for q in structure.params
                       if p.name == q.name)
            with mock.patch.object(evidence, "_BPA_FLOOR", 0.0):
                curve = bel_pl_curve(lambda box: unit_corner_bounds(f, box), marginal, n_v=9,
                                     max_partitions=10**6)
            assert not curve.partial
            gaps = [0.0]
            for j, v in enumerate(curve.thresholds):
                bel, pl = enumerate_bel_pl(joint, structure, v)
                gaps += [abs(curve.bel[j] - bel), abs(curve.pl[j] - pl)]
            return max(gaps)

        names = [structure.names[d] for d in reads]
        assert max_gap(names, lambda u: float(np.dot(coeffs, u))) <= 1e-12
        if len(reads) > 1:
            dropped += 1
            k = int(rng.integers(len(reads)))
            keep = [j for j in range(len(reads)) if j != k]
            held = 0.5 * coeffs[k]
            gap = max_gap([names[j] for j in keep],
                          lambda u: float(np.dot(coeffs[keep], u)) + held)
            assert gap > 1e-3
    assert dropped > 0


def test_marginal_rejects_unknown_names():
    structure = FocalStructure([ParameterBPA("a", (iv(0.0, 1.0, 1.0),)),
                                ParameterBPA("b", (iv(0.0, 1.0, 1.0),))])
    assert structure.marginal(["b", "a"]).names == ["a", "b"]
    with pytest.raises(ValueError):
        structure.marginal(["a", "c"])


def test_curve_monotone_and_bounded():
    rng = np.random.default_rng(77)
    for _ in range(10):
        structure = random_structure(rng)
        f = separable_objective(rng, structure)
        with mock.patch.object(evidence, "_BPA_FLOOR", 0.0):
            curve = bel_pl_curve(lambda box: unit_corner_bounds(f, box), structure,
                                 n_v=15, max_partitions=10**6)
        assert np.all(curve.bel <= curve.pl + 1e-12)
        assert np.all(np.diff(curve.bel) >= -1e-12)
        assert np.all(np.diff(curve.pl) >= -1e-12)
        assert curve.bel[-1] == pytest.approx(1.0, abs=1e-9)
        assert curve.pl[0] == pytest.approx(0.0, abs=1e-9)


def test_curve_single_focal_element_step():
    structure = FocalStructure([ParameterBPA("u", (iv(3.0, 4.0, 1.0),))])
    f = lambda u: float(u[0])
    with mock.patch.object(evidence, "_BPA_FLOOR", 0.0):
        curve = bel_pl_curve(lambda box: unit_corner_bounds(f, box), structure,
                             n_v=5, max_partitions=10**5)
    # both curves step from 0 to 1; the single element is both subset and
    # intersector, so they coincide at the extremes (between them the lone
    # straddling element keeps Pl at 1 while Bel waits for full inclusion)
    assert curve.bel[0] == curve.pl[0] == 0.0
    assert curve.bel[-1] == curve.pl[-1] == 1.0
    assert set(np.unique(curve.bel)) <= {0.0, 1.0}
    assert set(np.unique(curve.pl)) <= {0.0, 1.0}

    # with an objective constant over the element they coincide everywhere
    const = lambda u: 2.5
    with mock.patch.object(evidence, "_BPA_FLOOR", 0.0):
        flat = bel_pl_curve(lambda box: unit_corner_bounds(const, box), structure,
                            n_v=5, max_partitions=10**5)
    np.testing.assert_allclose(flat.bel, flat.pl)
    np.testing.assert_allclose(flat.bel, 1.0)


def test_duality_triple_randomized():
    rng = np.random.default_rng(13)
    for _ in range(25):
        structure = random_structure(rng)
        f = separable_objective(rng, structure)
        bounds = lambda box: unit_corner_bounds(f, box)
        vmin, vmax = bounds(tuple((0.0, 1.0) for _ in range(structure.dim)))
        v = rng.uniform(vmin - 0.5, vmax + 0.5)
        bel_a, pl_a = enumerate_bel_pl(bounds, structure, v)
        bel_na, pl_na = complement_bel_pl(bounds, structure, v)
        report = duality_check(bel_a, pl_a, bel_na, pl_na)
        assert report.all_hold, report.failures()


def test_duality_examples():
    # single interval fully below the threshold
    report = duality_check(1.0, 1.0, 0.0, 0.0)
    assert report.all_hold
    # the two-interval toy at v = 0.55
    report = duality_check(0.7, 1.0, 0.0, 0.3)
    assert report.all_hold
    bad = duality_check(0.9, 1.0, 0.3, 0.1)
    assert not bad.all_hold
    assert bad.failures()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_bel_le_pl_property(seed):
    rng = np.random.default_rng(seed)
    structure = random_structure(rng, max_dim=3, max_intervals=5)
    f = separable_objective(rng, structure)
    bounds = lambda box: unit_corner_bounds(f, box)
    v = rng.uniform(-10, 10)
    bel, pl = enumerate_bel_pl(bounds, structure, v)
    assert 0.0 <= bel <= pl <= 1.0 + 1e-12


def test_partition_budget_flag():
    rng = np.random.default_rng(1)
    structure = random_structure(rng, max_dim=4, max_intervals=8)
    f = separable_objective(rng, structure)
    with mock.patch.object(evidence, "_BPA_FLOOR", 0.0):
        curve = bel_pl_curve(lambda box: unit_corner_bounds(f, box), structure,
                             n_v=9, max_partitions=3)
    assert curve.partial


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 12), st.sampled_from([0.0, 1e-4, 0.05]))
def test_curve_bounds_each_box_once_and_brackets_enumeration(seed, cap, bpa_floor):
    """Every box the builder makes is bounded exactly once, when it is made:
    1 + 2 * n_partitions bounder calls, never two on one box. A capped curve
    stays sound against the exact one: at every threshold its Bel is no
    larger and its Pl no smaller."""
    rng = np.random.default_rng(seed)
    structure = random_structure(rng, max_dim=3, max_intervals=5)
    f = separable_objective(rng, structure)
    exact = lambda box: unit_corner_bounds(f, box)
    boxes = []

    def bounds(box):
        boxes.append(box)
        return exact(box)

    with mock.patch.object(evidence, "_BPA_FLOOR", bpa_floor):
        curve = bel_pl_curve(bounds, structure, n_v=9, max_partitions=cap)
    assert len(boxes) == len(set(boxes)) == 1 + 2 * curve.n_partitions
    for j, v in enumerate(curve.thresholds):
        bel, pl = enumerate_bel_pl(exact, structure, v)
        assert curve.bel[j] <= bel + 1e-12
        assert curve.pl[j] >= pl - 1e-12
