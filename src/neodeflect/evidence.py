"""Dempster-Shafer structures over interval-valued uncertain parameters.

Each uncertain parameter carries a set of (possibly overlapping or
disconnected) intervals with basic probability assignments summing to one.
Multi-expert interval opinions are fused by averaging their lower
triangular bound matrices. The joint structure is the Cartesian product
of the per-parameter intervals; every focal element is an axis-aligned box
whose BPA is the product of its constituents.

For optimization the focal elements are collected through a per-dimension
affine map into the unit hypercube, where they tile [0, 1]^d without
overlap: dimension i is split into contiguous cells whose widths equal the
interval BPAs. A cell's lower edge belongs to the cell below it, so the
first coordinate of a cell above the first is one step past its lower edge
(``first_inside``). Belief and Plausibility of threshold propositions follow
from per-box objective bounds by recursive binary partitioning of the
hypercube.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

_BPA_SUM_TOL = 1e-9
_BPA_FLOOR = 1e-4


class FusionError(ValueError):
    """Raised when expert opinions cannot be fused into a valid structure."""


@dataclass(frozen=True)
class UncertainInterval:
    """One interval of evidence with its basic probability assignment."""

    lo: float
    hi: float
    bpa: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval bounds must be finite: [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval bounds out of order: [{self.lo}, {self.hi}]")
        if not 0.0 < self.bpa <= 1.0:
            raise ValueError(f"BPA must lie in (0, 1], got {self.bpa}")


@dataclass(frozen=True)
class ParameterBPA:
    """All evidence intervals of a single uncertain parameter."""

    name: str
    intervals: tuple[UncertainInterval, ...]

    def __post_init__(self):
        if not self.intervals:
            raise ValueError(f"parameter {self.name} has no intervals")
        total = math.fsum(iv.bpa for iv in self.intervals)
        if abs(total - 1.0) > _BPA_SUM_TOL:
            raise ValueError(
                f"BPAs of parameter {self.name} sum to {total}, expected 1"
            )


@dataclass(frozen=True)
class ExpertOpinion:
    """One expert's interval estimates; parameters not addressed are absent."""

    expert_id: str
    weight: float
    parameters: dict[str, tuple[UncertainInterval, ...]]

    def __post_init__(self):
        if not (math.isfinite(self.weight) and self.weight >= 0.0):
            raise ValueError(
                f"weight of expert {self.expert_id} must be a finite number >= 0, "
                f"got {self.weight}"
            )


def fuse_experts(opinions: list[ExpertOpinion], parameter: str) -> ParameterBPA:
    """Fuse multi-expert interval opinions for one parameter.

    Builds each expert's lower-triangular matrix over the union of all
    proposed lower and upper bounds, then averages the matrices weighted
    by the expert weights. Experts who do not address the parameter are
    excluded from the averaging count, and the result is renormalized so
    the BPAs sum to one (exact already when all weights are equal).
    """
    active = [op for op in opinions if op.parameters.get(parameter)]
    if not active:
        raise FusionError(f"no expert addresses parameter {parameter!r}")

    lowers = sorted({iv.lo for op in active for iv in op.parameters[parameter]})
    uppers = sorted({iv.hi for op in active for iv in op.parameters[parameter]})
    li = {v: j for j, v in enumerate(lowers)}
    ui = {v: j for j, v in enumerate(uppers)}

    fused = np.zeros((len(uppers), len(lowers)))
    for op in active:
        for iv in op.parameters[parameter]:
            fused[ui[iv.hi], li[iv.lo]] += op.weight * iv.bpa
    fused /= len(active)

    total = fused.sum()
    if total <= 0.0:
        raise FusionError(f"fused evidence for {parameter!r} has zero mass")
    fused /= total

    intervals = [
        UncertainInterval(lo=lowers[j], hi=uppers[i], bpa=float(fused[i, j]))
        for i in range(len(uppers))
        for j in range(len(lowers))
        if fused[i, j] > 0.0
    ]
    intervals.sort(key=lambda iv: (iv.lo, iv.hi))
    return ParameterBPA(name=parameter, intervals=tuple(intervals))


# ---------------------------------------------------------------------------
# Joint structure and the unit-hypercube map
# ---------------------------------------------------------------------------

def first_inside(edge: float) -> float:
    """The first unit coordinate of the cell whose lower edge is ``edge``."""
    return edge if edge == 0.0 else math.nextafter(edge, 1.0)


class FocalStructure:
    """Joint evidence structure over several uncertain parameters.

    Holds the per-dimension interval lists and the cumulative BPA
    boundaries that define the affine collection of all focal elements
    into the unit hypercube (cells laid out in interval order, widths
    equal to BPAs, exactly tiling [0, 1] per dimension).
    """

    def __init__(self, params: list[ParameterBPA]):
        if not params:
            raise ValueError("need at least one parameter")
        self.params = list(params)
        self.names = [p.name for p in params]
        self.cum: list[list[float]] = []
        for p in params:
            edges = [0.0] + np.cumsum([iv.bpa for iv in p.intervals]).tolist()
            edges[-1] = 1.0  # absorb roundoff so the cells tile exactly
            self.cum.append(edges)

    @property
    def dim(self) -> int:
        return len(self.params)

    def marginal(self, names) -> "FocalStructure":
        """The structure of the named parameters alone (an unknown name is a
        ValueError), in this structure's order, sharing their ParameterBPAs."""
        return FocalStructure([self.params[d] for d in sorted(map(self.names.index, names))])

    def counts(self) -> tuple[int, ...]:
        return tuple(len(p.intervals) for p in self.params)

    def cell_of(self, d: int, u: float) -> int:
        """Cell index of the unit coordinate u along dimension d."""
        edges = self.cum[d]
        j = bisect.bisect_left(edges, u, lo=1) - 1
        return min(max(j, 0), len(edges) - 2)

    def unit_to_physical(self, point) -> np.ndarray:
        """Map a unit-hypercube point to physical parameter values.

        Piecewise affine and total: each coordinate selects its containing
        cell and is stretched onto the corresponding physical interval.
        """
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            raise ValueError(f"expected a point of dimension {self.dim}")
        out = np.empty(self.dim)
        for d, u in enumerate(point):
            u = min(max(float(u), 0.0), 1.0)
            j = self.cell_of(d, u)
            lo_edge, hi_edge = self.cum[d][j], self.cum[d][j + 1]
            frac = (u - lo_edge) / (hi_edge - lo_edge)
            iv = self.params[d].intervals[j]
            out[d] = iv.lo + frac * (iv.hi - iv.lo)
        return out

    def physical_to_unit(self, values) -> np.ndarray:
        """A unit-cube preimage of physical values (used to seed searches).

        Overlapping intervals make the map one-to-many; the first interval
        containing each value is used.
        """
        values = np.asarray(values, dtype=float)
        out = np.empty(self.dim)
        for d, x in enumerate(values):
            for j, iv in enumerate(self.params[d].intervals):
                if iv.lo <= x <= iv.hi:
                    width = iv.hi - iv.lo
                    frac = 0.5 if width == 0.0 else (x - iv.lo) / width
                    u = self.cum[d][j] + frac * (self.cum[d][j + 1] - self.cum[d][j])
                    out[d] = max(u, first_inside(self.cum[d][j]))
                    break
            else:
                raise ValueError(
                    f"value {x} outside every interval of {self.names[d]}"
                )
        return out

    def hull_ends(self, unit_box) -> list[tuple[float, float]]:
        """Per dimension, the unit coordinates of a box's hull ends: the
        smallest ``lo`` and the largest ``hi`` of the intervals of the cells
        the box spans, each at a point of the box."""
        ends = []
        for d, (lo, hi) in enumerate(unit_box):
            edges, intervals = self.cum[d], self.params[d].intervals
            cells = range(self.cell_of(d, first_inside(lo)), self.cell_of(d, hi) + 1)
            low = min(cells, key=lambda j: intervals[j].lo)
            high = max(cells, key=lambda j: intervals[j].hi)
            ends.append((first_inside(edges[low]), edges[high + 1]))
        return ends

    def corner(self, unit_box, upper) -> np.ndarray:
        """Unit point of a box's hull corner (``hull_ends``) at the upper end
        of each parameter ``upper`` names and the lower end of every other."""
        return np.array([pair[n in upper] for n, pair in zip(self.names, self.hull_ends(unit_box))])


# ---------------------------------------------------------------------------
# Bel/Pl curve reconstruction by recursive hypercube partitioning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubBox:
    """Contiguous block of focal-element cells: [lo, hi) index ranges per dim."""

    ranges: tuple[tuple[int, int], ...]

    def n_cells(self) -> int:
        n = 1
        for lo, hi in self.ranges:
            n *= hi - lo
        return n

    def unit_box(self, structure: FocalStructure) -> tuple[tuple[float, float], ...]:
        return tuple(
            (structure.cum[d][lo], structure.cum[d][hi])
            for d, (lo, hi) in enumerate(self.ranges)
        )

    def bpa(self, structure: FocalStructure) -> float:
        total = 1.0
        for d, (lo, hi) in enumerate(self.ranges):
            total *= math.fsum(
                iv.bpa for iv in structure.params[d].intervals[lo:hi]
            )
        return total

    def split(self) -> tuple["SubBox", "SubBox"]:
        """Cut along a focal boundary of the dimension with the most cells."""
        widths = [hi - lo for lo, hi in self.ranges]
        d = max(range(len(widths)), key=lambda k: widths[k])
        lo, hi = self.ranges[d]
        mid = (lo + hi) // 2
        left = list(self.ranges)
        right = list(self.ranges)
        left[d] = (lo, mid)
        right[d] = (mid, hi)
        return SubBox(tuple(left)), SubBox(tuple(right))


@dataclass
class BeliefCurve:
    """Bel/Pl sampled on equally spaced thresholds between the objective bounds."""

    thresholds: np.ndarray
    bel: np.ndarray
    pl: np.ndarray
    v_min: float
    v_max: float
    n_partitions: int
    partial: bool = False


def bel_pl_curve(
    f_bounds,
    structure: FocalStructure,
    n_v: int,
    max_partitions: int,
) -> BeliefCurve:
    """Reconstruct full Bel/Pl curves by optimizer-driven binary partitioning.

    Steps: (1) bound the objective over the whole unit hypercube to get
    [V_min, V_max]; (2) lay n_v equally spaced thresholds across it;
    (3) cut the hypercube once along a focal boundary; (4) for each
    threshold, sweep the partition once: split any sub-box straddling the
    threshold along focal boundaries, and add every other sub-box's BPA to
    Belief when it lies fully below the threshold and to Plausibility when
    it intersects. Each box is bounded once, when it is made; a box is
    never split below a single focal element, below ``_BPA_FLOOR``
    (negligible contribution) or past ``max_partitions``; reaching that
    budget stops the refinement and sets ``partial`` on the curve.

    ``f_bounds(unit_box)`` returns (min, max) of the objective over a box.
    """
    if n_v < 2:
        raise ValueError("need at least two thresholds")

    def record(box: SubBox) -> tuple[float, float, float]:
        vmin, vmax = f_bounds(box.unit_box(structure))
        return vmin, vmax, box.bpa(structure)

    root = SubBox(tuple((0, n) for n in structure.counts()))
    partition = {root: record(root)}
    v_min, v_max, _ = partition[root]
    thresholds = np.linspace(v_min, v_max, n_v)

    # insertion-ordered: the sweeps, and so the splits a capped curve
    # makes, follow a deterministic order
    if root.n_cells() > 1:
        partition = {child: record(child) for child in root.split()}
    n_partitions = len(partition) - 1
    partial = False

    bel = np.zeros(n_v)
    pl = np.zeros(n_v)
    for j, v in enumerate(thresholds):
        bel_terms, pl_terms = [], []
        stack = list(partition)
        while stack:
            box = stack.pop()
            vmin, vmax, bpa = partition[box]
            # y < v on the whole box (Bel), or somewhere in it (Pl)
            below = vmax <= v
            intersects = below or vmin < v
            if intersects and not below and box.n_cells() > 1 and bpa >= _BPA_FLOOR:
                if n_partitions < max_partitions:
                    del partition[box]
                    for child in box.split():
                        partition[child] = record(child)
                        stack.append(child)
                    n_partitions += 1
                    continue
                partial = True
            if below:
                bel_terms.append(bpa)
            if intersects:
                pl_terms.append(bpa)
        bel[j] = math.fsum(bel_terms)
        pl[j] = math.fsum(pl_terms)

    return BeliefCurve(
        thresholds=thresholds, bel=bel, pl=pl,
        v_min=v_min, v_max=v_max, n_partitions=n_partitions, partial=partial,
    )
