"""Analytic low-thrust propagation over finite arcs of true longitude.

Each arc assumes the thrust acceleration is constant in the RTN frame and
expands the slow elements and the elapsed time to first order in the
thrust modulus about the Keplerian motion. The zero-order terms are the
unperturbed Keplerian arc (time of flight from the generalized Kepler
equation); the first-order terms are quadratures of the variational rates
along that Keplerian arc, evaluated spectrally on a small fixed set of
Chebyshev nodes (the cumulative integrals needed by the first-order time
term come from the Chebyshev antiderivative at the same nodes, so one
rates evaluation per arc serves everything).

Truncation error per arc is O(eps^2) in the thrust modulus.

The quadrature has five nodes (order 4). The integrands are analytic over
an arc of at most ``dl_max`` = 0.1 rad, where it converges geometrically:
against order 12 on 4000 drawn arcs of 0.1 rad (e <= 0.7), each
first-order term is within 6.3e-8 of the integral of its integrand's
absolute value at five nodes, 1.4e-11 at seven and 4.8e-5 at four. The
terms are increments of about 1e-8 of the elements, so five nodes moved b
by at most 3.1e-9 relative from seven on 400 drawn evaluations of the
reference scenario (3 moved at all), four orders below FPET's own error.

An arc is one straight-line pass in plain floats, in the operation order
of the array form kept in the tests as the reference. The integrands are
written out node by node, each of the five nodes in its own locals, with
no loop, list or unpacking. Both contractions with the quadrature matrix,
the running integrals of the element rates at the nodes and the weighted
sum of the time integrand, are sums of products in node order, written out
too. So an arc calls neither numpy nor BLAS, and its bits do not depend on
the BLAS kernel, as those of a matrix product do: OpenBLAS kernels round
the same product differently from one another, and from one matrix shape
to another. The Keplerian time of flight shares one solve of the arc's
start mean longitude between the midpoint probes and the steps
(``orbits.KeplerStart``), which a thrusting arc's end refills in place.
The loop of ``propagate_trajectory`` builds each midpoint probe itself and
keeps log10 of the running thrust maximum, taken only when it rises.

The ablation thrust lies in the orbit plane, so the Q1 and Q2 rates and
the normal-thrust term of the time integrand are absent: Q1 and Q2 are
carried over each arc unchanged.

The last arc is cut in closed form: the two-body longitude at the final
epoch sets its length, and only its first-order time term, small over a
short arc, separates its end from that epoch.

The condensed mirror layer of the contamination model is state of the
propagation, carried next to the running thrust maximum. A thrust sample
reads the layer and returns its growth rate; every sample sees the layer of
the last accepted sample grown at that sample's rate to its own epoch, and
the layer is committed only when an arc accepts its sample. So a midpoint
probe that is replaced by a re-sample never moves the layer. The reference
scenario's ``arc_control`` (0.05, 2, 0.1) keeps every arc in
[0.05 e^(1/2), 0.1] = [0.0824, 0.1], a ratio of at most 1.21, below the
factor of two that triggers a re-sample: there every sample is accepted.

Most arcs of a contaminated or weak deflection carry no thrust: the spot
goes dark on the far side of every orbit, and many trajectories end in a
dark tail. ``ThrustModel.dark_until`` gives the longitude up to which the
orbit stays dark (outside one heliocentric radius, at the slowest spin),
and ``propagate_trajectory`` replaces the capped arcs before it with one
zero-thrust arc. Its epoch is the stepped path's own arc-by-arc sum of
the capped arcs' times of flight, so every arc that follows starts in the
stepped path's state to the bit: the thrust near a dark edge is steep
enough in the epoch that one Kepler time of flight over the spell, though
closer to the exact time, moved later thrust samples by up to 4e-11 and b
by up to 2.4e-6 relative on the behaviour-lock designs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _chebyshev_cumulative(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [-1, 1] (ascending) and the matrix mapping sampled values to
    the values of their antiderivative (zero at -1) at the same nodes."""
    j = np.arange(n + 1)
    nodes = -np.cos(math.pi * j / n)
    # coefficient fit: values -> Chebyshev coefficients
    vander = np.polynomial.chebyshev.chebvander(nodes, n)
    coeff_of_values = np.linalg.inv(vander)
    # antiderivative in coefficient space, constant fixed by F(-1) = 0
    anti = np.zeros((n + 2, n + 1))
    for k in range(n + 1):
        basis = np.zeros(n + 1)
        basis[k] = 1.0
        anti[:, k] = np.polynomial.chebyshev.chebint(basis, lbnd=-1.0)
    eval_nodes = np.polynomial.chebyshev.chebvander(nodes, n + 1)
    cumulative = eval_nodes @ anti @ coeff_of_values
    return nodes, cumulative


# order 4, five nodes: within 6.3e-8 of order 12 relative to each
# integrand's absolute integral at the largest admissible arcs (see above)
_CHEB_X, _CHEB_CUM = _chebyshev_cumulative(4)
_CHEB_MAP = 0.5 * (_CHEB_X + 1.0)
# the nodes inside the arc; the first maps to 0.0 and the last to 1.0
_CHEB_INNER_NODES = tuple(_CHEB_MAP.tolist()[1:-1])
# the antiderivative's rows at the first four nodes (row 0, zero but for
# rounding residues of about 1e-17, kept for the bits) and the weights
_CHEB_CUM_ROWS = tuple(tuple(row) for row in _CHEB_CUM.tolist())

from .orbits import (  # noqa: E402
    EquinoctialState,
    KeplerStart,
    ThrustRTN,
    kepler_start,
    kepler_time_of_flight,
    propagate_keplerian,
)


class ArcOverflowError(RuntimeError):
    """Propagation exceeded the arc-count safety cap ``_MAX_ARCS``."""


@dataclass(frozen=True)
class ArcControl:
    """Constants of the adaptive arc-length law.

    dL = min(a_const * exp((-log10(eps) + log10(eps_max) + 1) / k_const),
    dl_max), and dl_max without thrust, where eps_max is the running
    maximum of the thrust modulus over one trajectory, kept by
    ``propagate_trajectory``. Short arcs while the thrust is near its peak
    so far, capped arcs when it has decayed.
    """

    a_const: float
    k_const: float
    dl_max: float

    def __post_init__(self):
        if self.a_const <= 0.0 or self.k_const <= 0.0:
            raise ValueError("a_const and k_const must be positive")
        if not 0.0 < self.dl_max <= 2.0 * math.pi:
            raise ValueError("dl_max must lie in (0, 2*pi]")


def _first_order_terms(
    eq0: EquinoctialState, dl: float, f: ThrustRTN, mu: float
) -> tuple[tuple[tuple[float, ...], ...], float]:
    """First-order changes per unit eps over one arc: of a, P1 and P2 at
    every node, in units of half the arc (the last node is the arc's end),
    and of the epoch at the arc's end."""
    a, p1, p2, ell0 = eq0.a, eq0.p1, eq0.p2, eq0.ell
    p = a * (1.0 - p1 * p1 - p2 * p2)
    h = math.sqrt(mu * p)
    half = 0.5 * dl
    p_h = p / h
    a_rate = 2.0 * a * a / h

    f_r = math.cos(f.alpha)
    f_t = math.sin(f.alpha)
    c_a = 1.5 / a
    c_p1 = -3.0 * a * p1 / p
    c_p2 = -3.0 * a * p2 / p

    # element rates per unit eps, divided by the longitude rate (times w =
    # r^2/h = dt/dL on the Keplerian orbit), at each Chebyshev node: the
    # arc's start (dl * 0.0 is +0.0, as in the array form), three inner
    # nodes and the arc's end (dl * 1.0 is dl); b - a has the bits of
    # -a + b, the order of the array form
    sin, cos = math.sin, math.cos
    x1, x2, x3 = _CHEB_INNER_NODES
    ell = ell0 + 0.0
    sl0 = sin(ell)
    cl0 = cos(ell)
    phi0 = 1.0 + p1 * sl0 + p2 * cl0
    rh0 = p_h / phi0
    w0 = (p / phi0) * rh0
    phi_1 = 1.0 + phi0
    g00 = a_rate * ((p2 * sl0 - p1 * cl0) * f_r + phi0 * f_t) * w0
    g10 = rh0 * ((p1 + phi_1 * sl0) * f_t - phi0 * cl0 * f_r) * w0
    g20 = rh0 * (phi0 * sl0 * f_r + (p2 + phi_1 * cl0) * f_t) * w0
    ell = ell0 + dl * x1
    sl1 = sin(ell)
    cl1 = cos(ell)
    phi1 = 1.0 + p1 * sl1 + p2 * cl1
    rh1 = p_h / phi1
    w1 = (p / phi1) * rh1
    phi_1 = 1.0 + phi1
    g01 = a_rate * ((p2 * sl1 - p1 * cl1) * f_r + phi1 * f_t) * w1
    g11 = rh1 * ((p1 + phi_1 * sl1) * f_t - phi1 * cl1 * f_r) * w1
    g21 = rh1 * (phi1 * sl1 * f_r + (p2 + phi_1 * cl1) * f_t) * w1
    ell = ell0 + dl * x2
    sl2 = sin(ell)
    cl2 = cos(ell)
    phi2 = 1.0 + p1 * sl2 + p2 * cl2
    rh2 = p_h / phi2
    w2 = (p / phi2) * rh2
    phi_1 = 1.0 + phi2
    g02 = a_rate * ((p2 * sl2 - p1 * cl2) * f_r + phi2 * f_t) * w2
    g12 = rh2 * ((p1 + phi_1 * sl2) * f_t - phi2 * cl2 * f_r) * w2
    g22 = rh2 * (phi2 * sl2 * f_r + (p2 + phi_1 * cl2) * f_t) * w2
    ell = ell0 + dl * x3
    sl3 = sin(ell)
    cl3 = cos(ell)
    phi3 = 1.0 + p1 * sl3 + p2 * cl3
    rh3 = p_h / phi3
    w3 = (p / phi3) * rh3
    phi_1 = 1.0 + phi3
    g03 = a_rate * ((p2 * sl3 - p1 * cl3) * f_r + phi3 * f_t) * w3
    g13 = rh3 * ((p1 + phi_1 * sl3) * f_t - phi3 * cl3 * f_r) * w3
    g23 = rh3 * (phi3 * sl3 * f_r + (p2 + phi_1 * cl3) * f_t) * w3
    ell = ell0 + dl
    sl4 = sin(ell)
    cl4 = cos(ell)
    phi4 = 1.0 + p1 * sl4 + p2 * cl4
    rh4 = p_h / phi4
    w4 = (p / phi4) * rh4
    phi_1 = 1.0 + phi4
    g04 = a_rate * ((p2 * sl4 - p1 * cl4) * f_r + phi4 * f_t) * w4
    g14 = rh4 * ((p1 + phi_1 * sl4) * f_t - phi4 * cl4 * f_r) * w4
    g24 = rh4 * (phi4 * sl4 * f_r + (p2 + phi_1 * cl4) * f_t) * w4

    # running first-order element integrals y1 = half * y at every node via
    # the spectral antiderivative, one sum of products in node order per
    # node; the last node is the end of the arc, whose row is the weights
    (c00, c01, c02, c03, c04), (c10, c11, c12, c13, c14), (c20, c21, c22, c23, c24), \
        (c30, c31, c32, c33, c34), (c40, c41, c42, c43, c44) = _CHEB_CUM_ROWS
    y00 = c00 * g00 + c01 * g01 + c02 * g02 + c03 * g03 + c04 * g04
    y01 = c10 * g00 + c11 * g01 + c12 * g02 + c13 * g03 + c14 * g04
    y02 = c20 * g00 + c21 * g01 + c22 * g02 + c23 * g03 + c24 * g04
    y03 = c30 * g00 + c31 * g01 + c32 * g02 + c33 * g03 + c34 * g04
    y04 = c40 * g00 + c41 * g01 + c42 * g02 + c43 * g03 + c44 * g04
    y10 = c00 * g10 + c01 * g11 + c02 * g12 + c03 * g13 + c04 * g14
    y11 = c10 * g10 + c11 * g11 + c12 * g12 + c13 * g13 + c14 * g14
    y12 = c20 * g10 + c21 * g11 + c22 * g12 + c23 * g13 + c24 * g14
    y13 = c30 * g10 + c31 * g11 + c32 * g12 + c33 * g13 + c34 * g14
    y14 = c40 * g10 + c41 * g11 + c42 * g12 + c43 * g13 + c44 * g14
    y20 = c00 * g20 + c01 * g21 + c02 * g22 + c03 * g23 + c04 * g24
    y21 = c10 * g20 + c11 * g21 + c12 * g22 + c13 * g23 + c14 * g24
    y22 = c20 * g20 + c21 * g21 + c22 * g22 + c23 * g23 + c24 * g24
    y23 = c30 * g20 + c31 * g21 + c32 * g22 + c33 * g23 + c34 * g24
    y24 = c40 * g20 + c41 * g21 + c42 * g22 + c43 * g23 + c44 * g24

    # the time integrand at every node and its weighted sum, in node order;
    # its factors of y0, y1 and y2 are c_a * w, w * (c_p1 - 2 sin L / phi)
    # and w * (c_p2 - 2 cos L / phi)
    v0 = (c_a * w0 * (half * y00) + w0 * (c_p1 - 2.0 * sl0 / phi0) * (half * y10)
          + w0 * (c_p2 - 2.0 * cl0 / phi0) * (half * y20))
    v1 = (c_a * w1 * (half * y01) + w1 * (c_p1 - 2.0 * sl1 / phi1) * (half * y11)
          + w1 * (c_p2 - 2.0 * cl1 / phi1) * (half * y21))
    v2 = (c_a * w2 * (half * y02) + w2 * (c_p1 - 2.0 * sl2 / phi2) * (half * y12)
          + w2 * (c_p2 - 2.0 * cl2 / phi2) * (half * y22))
    v3 = (c_a * w3 * (half * y03) + w3 * (c_p1 - 2.0 * sl3 / phi3) * (half * y13)
          + w3 * (c_p2 - 2.0 * cl3 / phi3) * (half * y23))
    v4 = (c_a * w4 * (half * y04) + w4 * (c_p1 - 2.0 * sl4 / phi4) * (half * y14)
          + w4 * (c_p2 - 2.0 * cl4 / phi4) * (half * y24))
    t11 = half * (c40 * v0 + c41 * v1 + c42 * v2 + c43 * v3 + c44 * v4)
    return ((y00, y01, y02, y03, y04), (y10, y11, y12, y13, y14),
            (y20, y21, y22, y23, y24)), t11


def fpet_step(
    eq0: EquinoctialState, dl: float, f: ThrustRTN, mu: float, start: KeplerStart
) -> EquinoctialState:
    """Propagate one arc of true longitude with constant RTN thrust.

    Returns the state at eq0.ell + dl. The slow elements pick up eps times
    the first-order quadrature of the variational rates; the epoch advances
    by the exact Keplerian time of flight plus eps times the first-order
    time correction (the drift of dt/dL through the perturbed elements).
    The thrust lies in the orbit plane, so Q1 and Q2 are carried over.
    ``start`` is ``kepler_start(eq0, mu)``.
    """
    if dl <= 0.0:
        raise ValueError("arc length must be positive")
    t00 = kepler_time_of_flight(eq0, dl, start)
    eps = f.eps
    if eps == 0.0:
        return EquinoctialState(eq0.a, eq0.p1, eq0.p2, eq0.q1, eq0.q2, eq0.ell + dl, eq0.t + t00)
    (y0, y1, y2), t11 = _first_order_terms(eq0, dl, f, mu)
    half = 0.5 * dl
    return EquinoctialState(
        eq0.a + eps * (half * y0[-1]), eq0.p1 + eps * (half * y1[-1]),
        eq0.p2 + eps * (half * y2[-1]), eq0.q1, eq0.q2, eq0.ell + dl,
        eq0.t + t00 + eps * t11,
    )


@dataclass
class Trajectory:
    """Sequence of arc-boundary states plus the thrust modulus of each arc."""

    states: list[EquinoctialState]
    eps_history: list[float]

    @property
    def final(self) -> EquinoctialState:
        return self.states[-1]

    @property
    def n_arcs(self) -> int:
        return len(self.eps_history)


_new_state = EquinoctialState.__new__
_MAX_ARCS = 200000


def propagate_trajectory(
    eq0: EquinoctialState,
    thrust_callback,
    t_end: float,
    ctrl: ArcControl,
    mu: float,
) -> Trajectory:
    """Propagate under a thrust law until the epoch reaches t_end.

    ``thrust_callback(state, t, h_cond)`` receives the Keplerian prediction
    of the mid-arc state (sampled again at the corrected midpoint when the
    arc length moves by more than a factor of two) and the mirror layer
    ``h_cond`` [cm] there. It returns an RTN acceleration, held constant
    across the arc, and the layer's growth rate [m/s], 0.0 for a callback
    that grows no layer. The midpoint represents the arc far better than
    the left endpoint and keeps the thrust-profile sampling error second
    order in the arc length. The layer starts at 0 and is carried like the
    running maximum: a sample sees the layer of the last accepted sample
    grown linearly at that sample's rate, and once the arc length is fixed
    the arc's last sample is accepted and its layer and rate committed.
    Arc lengths follow the adaptive law in ``ctrl`` at the running maximum
    of the thrust modulus over this trajectory, which starts from zero on
    every call, so reusing ``ctrl`` never changes a trajectory. An arc that
    would pass t_end is cut once, with the same thrust, to the longitude the
    Keplerian motion reaches at t_end; should its first-order time term
    leave the epoch more than one second short, one more arc follows.

    A callback may offer ``dark_until(state, h_cond)``, as ``ThrustModel``
    does: the true longitude up to which no call under the layer ``h_cond``
    can return a nonzero thrust on the Keplerian orbit of ``state``. It is
    asked, with the committed layer, at the midpoint probe of an arc whose
    accepted sample has zero thrust and zero growth (so the layer stays as
    it is) and follows a thrusting arc (or is the first). The capped arcs
    the stepped path would take from there, by its own repeated additions
    of ``dl_max``, whose midpoints lie strictly before that longitude become
    one zero-thrust arc to their last end, timed by the stepped path's own
    sum of their times of flight, or, when they reach t_end, to
    ``propagate_keplerian(state, t_end, mu)``. The arc cap and the ``propagate`` mode's
    ``trajectory.csv`` count each jump as one arc. The callback is not asked
    again until the thrust returns. A plain function offers no
    ``dark_until`` and is stepped on every arc.
    """
    if t_end <= eq0.t:
        raise ValueError("t_end must be later than the initial epoch")
    states = [eq0]
    eps_history: list[float] = []
    eq = eq0
    # the running maximum of the thrust modulus and its log10, taken only
    # when the maximum rises
    eps_max, log10_max = 0.0, -math.inf
    # the mirror layer [cm] at the last accepted sample, its growth there
    # [m/s] and that sample's epoch
    h_c, g_c, t_c = 0.0, 0.0, eq0.t
    a_const, k_const, dl_max = ctrl.a_const, ctrl.k_const, ctrl.dl_max
    log10, exp = math.log10, math.exp
    dl = dl_max
    start = kepler_start(eq0, mu)
    dark_until = getattr(thrust_callback, "dark_until", None)
    while t_end - eq.t > 1.0:
        if len(eps_history) >= _MAX_ARCS:
            raise ArcOverflowError(f"exceeded {_MAX_ARCS} arcs before reaching t_end")
        # the probe half the last arc ahead, and once more half the law's
        # arc ahead when the law moves the arc length by more than a factor
        # of two: the Keplerian prediction of the state there, whose
        # elements are those of ``eq``, valid already, so it is filled field
        # by field without ``EquinoctialState``'s validation
        for resampled in (False, True):
            half = 0.5 * dl
            probe = _new_state(EquinoctialState)
            probe.a = eq.a
            probe.p1 = eq.p1
            probe.p2 = eq.p2
            probe.q1 = eq.q1
            probe.q2 = eq.q2
            probe.ell = eq.ell + half
            probe.t = t_probe = eq.t + kepler_time_of_flight(eq, half, start)
            h = h_c + g_c * (t_probe - t_c) * 100.0  # m -> cm
            f, growth = thrust_callback(probe, t_probe, h)
            eps = f.eps
            if eps > eps_max:
                eps_max = eps
                log10_max = log10(eps)
            # the arc-length law of ``ArcControl``, capped without thrust
            if eps <= 0.0:
                dl_law = dl_max
            else:
                dl_law = a_const * exp((-log10(eps) + log10_max + 1.0) / k_const)
                if dl_max < dl_law:
                    dl_law = dl_max
            if resampled or 0.5 <= dl_law / dl <= 2.0:
                break
            dl = dl_law
        dl = dl_law
        h_c, g_c, t_c = h, growth, t_probe  # the arc's sample is accepted
        nxt = None
        # asked once per dark spell, so it costs at most one Kepler solve
        # for every return of the thrust
        if (eps == 0.0 and growth == 0.0 and dark_until is not None
                and (not eps_history or eps_history[-1] > 0.0)):
            ell_dark = dark_until(probe, h)
            end = propagate_keplerian(eq, t_end, mu)
            # the stepped path's capped arcs from here, by its own additions
            # of longitude and of epoch, while their midpoint probes are
            # dark; at once to the end when the probes are dark past it
            ell, t, lam = eq.ell, eq.t, start.lam
            ell_end, mean_longitude, n = end.ell, start.mean_longitude, start.n
            if ell_end + 0.5 * dl_max < ell_dark:
                ell = ell_end
            while ell < ell_end and ell + 0.5 * dl_max < ell_dark:
                ell += dl_max
                lam_next = mean_longitude(ell)
                t += (lam_next - lam) / n
                lam = lam_next
            if ell >= ell_end:
                nxt = end
            elif ell > eq.ell:
                nxt = EquinoctialState(eq.a, eq.p1, eq.p2, eq.q1, eq.q2, ell, t)
        if nxt is None:
            nxt = fpet_step(eq, dl, f, mu, start)
            if nxt.t > t_end:
                # cut the arc where the Keplerian motion reaches t_end; the
                # next probe, if any, still uses the law's arc length
                dl_cut = propagate_keplerian(eq, t_end, mu).ell - eq.ell
                nxt = fpet_step(eq, dl_cut, f, mu, start)
        eq = nxt
        eps_history.append(eps)
        states.append(eq)
        # a coasting arc leaves the orbit as it was: its end starts the next
        if eps == 0.0:
            start.lam = start.mean_longitude(eq.ell)
        else:
            start.refill(eq, mu)
    return Trajectory(states=states, eps_history=eps_history)
