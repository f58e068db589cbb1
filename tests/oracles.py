"""Independent reference implementations used only to check the package.

The Cartesian oracle propagates position/velocity under two-body gravity
plus an RTN thrust without ever touching the equinoctial variational
machinery, so it validates element conversions, the Gauss rates and the
arc-wise analytic propagation through a completely separate route. The
evidence oracles compute Belief and Plausibility by enumerating every
focal element, the brute-force reference of the partitioning curve builder.
The array form of the FPET arc and the per-call Kepler time of flight are
the bit-level references of the package's node-by-node kernel and of its
shared Kepler start. The arc loop written plainly, driven by a thrust
sample composed of the unit functions (the package's, and the heading, the
spin radius and the acceleration that ``ablation.ThrustModel`` writes out,
kept here),
is the bit-level reference of ``fpet.propagate_trajectory`` driven by
``ablation.ThrustModel``.
``impact_parameter`` projects three states at the impact epoch afresh, the
reference of the encounter frame that ``mission.DeflectionModel`` fixes
once per model. ``box_search`` is one restart-DE search of a b box written
out, the reference of the searches the box bounds of b keep.
``b_at`` runs FPET at every call, the memo-free referee of
``mission.b_at``.
``lit_b_structure`` narrows the evidence on b about the fixed values, so
that the dark corner of its marginal ablates at large designs and the
worst case of b keeps its search. ``B_ROUNDING_KM`` is the slack of the
checks that b is monotone in each parameter it reads. ``mass_extreme``
evaluates all 32 corners of a technology box's hull, the brute-force
referee of ``mission.mass_extreme``'s two, each corner's technology built
by ``technology_at``, the conversion ``mission.mass_extreme`` makes.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp

from neodeflect.ablation import (
    AsteroidProperties,
    absorbed_flux_1au,
    ejecta_velocity,
    input_power_density,
    mass_flow_rate,
    plume_density,
    spot_area,
)
from neodeflect.constants import ETA_ABS, LAMBDA_SCATTER, RHO_LAYER
from neodeflect.evidence import FocalStructure, ParameterBPA, UncertainInterval, first_inside
from neodeflect.fpet import (
    _CHEB_CUM,
    _CHEB_MAP,
    ArcOverflowError,
    Trajectory,
    fpet_step,
)
from neodeflect.mission import B_NAMES, uncertain_dict
from neodeflect.orbits import (
    EquinoctialState,
    KeplerianElements,
    ThrustRTN,
    bplane_normal,
    bplane_offset,
    equinoctial_to_cartesian,
    kepler_start,
    kepler_time_of_flight,
    propagate_keplerian,
)
from neodeflect.search import inner_bound_search
from neodeflect.sizing import system_efficiency


def rtn_vector(thrust: ThrustRTN) -> np.ndarray:
    """Cartesian RTN acceleration eps * [cos(alpha), sin(alpha), 0] of an
    in-plane thrust."""
    return thrust.eps * np.array([math.cos(thrust.alpha), math.sin(thrust.alpha), 0.0])


def radius_and_heading(eq: EquinoctialState) -> tuple[float, float, float]:
    """Heliocentric radius [km] and the radial and transversal velocity in
    units of sqrt(mu/p), P2 sin L - P1 cos L and 1 + P1 sin L + P2 cos L =
    p/r, from one sine and cosine of L: the reference form of the heading
    that ``ablation.ThrustModel`` writes out."""
    sl, cl = math.sin(eq.ell), math.cos(eq.ell)
    v_t = 1.0 + eq.p1 * sl + eq.p2 * cl
    return eq.semi_latus() / v_t, eq.p2 * sl - eq.p1 * cl, v_t


def equinoctial_to_keplerian(eq: EquinoctialState) -> KeplerianElements:
    """Invert the equinoctial mapping back to classical elements.

    For circular and/or equatorial orbits the ambiguous angles collapse to
    the atan2(0, 0) = 0 convention.
    """
    e = math.hypot(eq.p1, eq.p2)
    tan_half_i = math.hypot(eq.q1, eq.q2)
    i = 2.0 * math.atan(tan_half_i)
    raan = math.atan2(eq.q1, eq.q2) if tan_half_i > 0.0 else 0.0
    pomega = math.atan2(eq.p1, eq.p2) if e > 0.0 else 0.0
    argp = pomega - raan
    theta = eq.ell - pomega
    return KeplerianElements(
        a=eq.a,
        e=e,
        i=i,
        raan=raan % (2.0 * math.pi),
        argp=argp % (2.0 * math.pi),
        theta=theta % (2.0 * math.pi),
    )


def kep_to_cartesian_classical(kep: KeplerianElements, mu: float):
    """Classical perifocal-to-inertial chain, independent of the package's
    equinoctial basis construction."""
    p = kep.a * (1.0 - kep.e**2)
    r = p / (1.0 + kep.e * math.cos(kep.theta))
    pos_pf = np.array([r * math.cos(kep.theta), r * math.sin(kep.theta), 0.0])
    vel_pf = math.sqrt(mu / p) * np.array(
        [-math.sin(kep.theta), kep.e + math.cos(kep.theta), 0.0]
    )
    co, so = math.cos(kep.raan), math.sin(kep.raan)
    cw, sw = math.cos(kep.argp), math.sin(kep.argp)
    ci, si = math.cos(kep.i), math.sin(kep.i)
    rot = np.array(
        [
            [co * cw - so * sw * ci, -co * sw - so * cw * ci, so * si],
            [so * cw + co * sw * ci, -so * sw + co * cw * ci, -co * si],
            [sw * si, cw * si, ci],
        ]
    )
    return rot @ pos_pf, rot @ vel_pf


def cartesian_to_keplerian(r_vec, v_vec, mu: float) -> KeplerianElements:
    """Standard momentum/eccentricity-vector route back to classical elements."""
    r = np.asarray(r_vec, dtype=float)
    v = np.asarray(v_vec, dtype=float)
    r_norm = np.linalg.norm(r)
    h_vec = np.cross(r, v)
    h = np.linalg.norm(h_vec)
    n_vec = np.cross([0.0, 0.0, 1.0], h_vec)
    n = np.linalg.norm(n_vec)
    e_vec = ((np.dot(v, v) - mu / r_norm) * r - np.dot(r, v) * v) / mu
    e = np.linalg.norm(e_vec)
    energy = 0.5 * np.dot(v, v) - mu / r_norm
    a = -mu / (2.0 * energy)
    i = math.acos(np.clip(h_vec[2] / h, -1.0, 1.0))

    if n > 1e-12:
        raan = math.acos(np.clip(n_vec[0] / n, -1.0, 1.0))
        if n_vec[1] < 0.0:
            raan = 2.0 * math.pi - raan
    else:
        raan = 0.0

    if n > 1e-12 and e > 1e-12:
        argp = math.acos(np.clip(np.dot(n_vec, e_vec) / (n * e), -1.0, 1.0))
        if e_vec[2] < 0.0:
            argp = 2.0 * math.pi - argp
    elif e > 1e-12:
        argp = math.atan2(e_vec[1], e_vec[0])
    else:
        argp = 0.0

    if e > 1e-12:
        theta = math.acos(np.clip(np.dot(e_vec, r) / (e * r_norm), -1.0, 1.0))
        if np.dot(r, v) < 0.0:
            theta = 2.0 * math.pi - theta
    else:
        ref = n_vec / n if n > 1e-12 else np.array([1.0, 0.0, 0.0])
        theta = math.acos(np.clip(np.dot(ref, r) / r_norm, -1.0, 1.0))
        cross = np.cross(ref, r)
        if np.dot(cross, h_vec) < 0.0:
            theta = 2.0 * math.pi - theta
    return KeplerianElements(a=float(a), e=float(e), i=i, raan=raan, argp=argp, theta=theta)


def rtn_basis(r_vec, v_vec):
    """Radial / transversal / normal unit vectors for a Cartesian state."""
    r_hat = r_vec / np.linalg.norm(r_vec)
    h_vec = np.cross(r_vec, v_vec)
    n_hat = h_vec / np.linalg.norm(h_vec)
    t_hat = np.cross(n_hat, r_hat)
    return r_hat, t_hat, n_hat


def propagate_cartesian(
    r0, v0, mu: float, t_span: float, thrust_rtn=None, rtol=1e-12, atol=None,
    dense: bool = False,
):
    """Two-body plus thrust propagation in Cartesian coordinates.

    ``thrust_rtn(t, r, v)`` returns the RTN acceleration components
    (f_r, f_t, f_n) in km/s^2; defaults to coasting.
    """
    if atol is None:
        atol = [1e-6] * 3 + [1e-12] * 3

    def rhs(t, y):
        r = y[:3]
        v = y[3:]
        acc = -mu * r / np.linalg.norm(r) ** 3
        if thrust_rtn is not None:
            f_r, f_t, f_n = thrust_rtn(t, r, v)
            r_hat, t_hat, n_hat = rtn_basis(r, v)
            acc = acc + f_r * r_hat + f_t * t_hat + f_n * n_hat
        return np.concatenate([v, acc])

    sol = solve_ivp(
        rhs, (0.0, t_span), np.concatenate([r0, v0]), method="DOP853",
        rtol=rtol, atol=atol, dense_output=dense,
    )
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    return sol


def equinoctial_state_to_cartesian_classical(eq: EquinoctialState, mu: float):
    """Cartesian state via the classical-element route (independent check)."""
    return kep_to_cartesian_classical(equinoctial_to_keplerian(eq), mu)


def impact_parameter(
    deviated: EquinoctialState,
    nominal: EquinoctialState,
    earth: EquinoctialState,
    t_impact: float,
    mu_sun: float,
) -> float:
    """Impact parameter [km] of the deviated orbit on the Earth b-plane.

    The plane is built from the unperturbed encounter geometry,
    v_inf = v_nominal - v_earth, and the Cartesian position difference
    deviated - nominal is projected onto it. All three states must already
    be at the impact epoch.
    """
    for state, name in ((deviated, "deviated"), (nominal, "nominal"), (earth, "earth")):
        if abs(state.t - t_impact) > 1.0:
            raise ValueError(f"{name} state epoch {state.t} is not at t_impact {t_impact}")
    r_dev, _ = equinoctial_to_cartesian(deviated, mu_sun)
    r_nom, v_nom = equinoctial_to_cartesian(nominal, mu_sun)
    _, v_earth = equinoctial_to_cartesian(earth, mu_sun)
    v_hat = bplane_normal(v_nom - v_earth)
    return float(np.linalg.norm(bplane_offset(r_dev - r_nom, v_hat)))


# ---------------------------------------------------------------------------
# FPET arc: the array form of the first-order quadrature
# ---------------------------------------------------------------------------

def mean_longitude_reference(eq: EquinoctialState, ell: float) -> float:
    """Mean longitude at true longitude ``ell``, every constant solved
    afresh from the state."""
    e = math.hypot(eq.p1, eq.p2)
    if e < 1e-15:
        k_long = ell
    else:
        pomega = math.atan2(eq.p1, eq.p2)
        theta = ell - pomega
        denom = 1.0 + e * math.cos(theta)
        sin_ecc = math.sqrt(1.0 - e * e) * math.sin(theta) / denom
        cos_ecc = (e + math.cos(theta)) / denom
        ecc_anom = math.atan2(sin_ecc, cos_ecc)
        ecc_anom += 2.0 * math.pi * round((theta - ecc_anom) / (2.0 * math.pi))
        k_long = ecc_anom + pomega
    return k_long + eq.p1 * math.cos(k_long) - eq.p2 * math.sin(k_long)


def kepler_time_of_flight_reference(eq: EquinoctialState, dl: float, mu: float) -> float:
    """Reference form of ``orbits.kepler_time_of_flight``: both mean
    longitudes solved per call."""
    n = math.sqrt(mu / eq.a**3)
    return (mean_longitude_reference(eq, eq.ell + dl) - mean_longitude_reference(eq, eq.ell)) / n


def dot_in_node_order(values: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``values @ matrix`` summed over the nodes (the last axis of
    ``values``, the first of ``matrix``) one node at a time in node order:
    the order of the package's sums of products in plain floats, where a
    BLAS kernel may pair, block or fuse the products its own way."""
    total = np.multiply.outer(values[..., 0], matrix[0])
    for j in range(1, len(matrix)):
        total = total + np.multiply.outer(values[..., j], matrix[j])
    return total


def first_order_integrands(
    eq0: EquinoctialState, dl: float, f: ThrustRTN, mu: float,
    cheb_map: np.ndarray = _CHEB_MAP, cheb_cum_t: np.ndarray = _CHEB_CUM.T,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The array form of the first-order integrands of an in-plane thrust at
    the nodes of a Chebyshev quadrature (``cheb_map``: the nodes mapped to
    [0, 1]; ``cheb_cum_t``: the transposed antiderivative matrix; by default
    the package's): the rates of a, P1 and P2 per unit eps over the
    longitude rate, their running integrals in units of half the arc, and
    the three parts of the first-order time integrand, summed in order."""
    a, p1, p2 = eq0.a, eq0.p1, eq0.p2
    p = a * (1.0 - p1 * p1 - p2 * p2)
    h = math.sqrt(mu * p)
    half = 0.5 * dl

    ell = eq0.ell + dl * cheb_map
    sl = np.sin(ell)
    cl = np.cos(ell)
    phi = 1.0 + p1 * sl + p2 * cl
    r_h = (p / h) / phi
    w = (p / phi) * r_h

    f_r = math.cos(f.alpha)
    f_t = math.sin(f.alpha)

    g = np.empty((3, ell.size))
    g[0] = (2.0 * a * a / h) * ((p2 * sl - p1 * cl) * f_r + phi * f_t)
    g[1] = r_h * (-phi * cl * f_r + (p1 + (1.0 + phi) * sl) * f_t)
    g[2] = r_h * (phi * sl * f_r + (p2 + (1.0 + phi) * cl) * f_t)
    g *= w

    y = dot_in_node_order(g, cheb_cum_t)
    y1_nodes = half * y
    time_parts = (
        (1.5 / a) * w * y1_nodes[0],
        w * ((-3.0 * a * p1 / p) - 2.0 * sl / phi) * y1_nodes[1],
        w * ((-3.0 * a * p2 / p) - 2.0 * cl / phi) * y1_nodes[2],
    )
    return g, y, time_parts


def first_order_terms_numpy(
    eq0: EquinoctialState, dl: float, f: ThrustRTN, mu: float
) -> tuple[tuple[tuple[float, ...], ...], float]:
    """Reference form of ``fpet._first_order_terms``: the integrands at the
    five Chebyshev nodes evaluated as numpy arrays. The package evaluates
    them node by node in plain floats; both must agree to the last bit."""
    _, y, (t_a, t_p1, t_p2) = first_order_integrands(eq0, dl, f, mu)
    t11 = float(dot_in_node_order(t_a + t_p1 + t_p2, _CHEB_CUM[-1]))
    return tuple(map(tuple, y.tolist())), 0.5 * dl * t11


def fpet_step_numpy(eq0: EquinoctialState, dl: float, f: ThrustRTN, mu: float) -> EquinoctialState:
    """Reference form of ``fpet.fpet_step`` on top of the array quadrature:
    the in-plane thrust carries Q1 and Q2 over."""
    t00 = kepler_time_of_flight_reference(eq0, dl, mu)
    if f.eps == 0.0:
        return EquinoctialState(
            a=eq0.a, p1=eq0.p1, p2=eq0.p2, q1=eq0.q1, q2=eq0.q2,
            ell=eq0.ell + dl, t=eq0.t + t00,
        )
    y, t11 = first_order_terms_numpy(eq0, dl, f, mu)
    y1 = [0.5 * dl * row[-1] for row in y]
    eps = f.eps
    return EquinoctialState(
        a=eq0.a + eps * y1[0],
        p1=eq0.p1 + eps * y1[1],
        p2=eq0.p2 + eps * y1[2],
        q1=eq0.q1,
        q2=eq0.q2,
        ell=eq0.ell + dl,
        t=eq0.t + t00 + eps * t11,
    )


# ---------------------------------------------------------------------------
# Thrust sample and trajectory: the unit functions and the arc loop, plainly
# ---------------------------------------------------------------------------

def ellipsoid_radius(ast: AsteroidProperties, theta_va: float, t: float) -> float:
    """Radius of the spinning rotation ellipsoid under the spot [m], ``t``
    seconds after the reference epoch: the reference form of the spin
    radius that ``ThrustModel`` writes out."""
    angle = ast.omega_a * t + theta_va
    return ast.a1 * ast.b1 / math.sqrt(
        (ast.b1 * math.cos(angle)) ** 2 + (ast.a1 * math.sin(angle)) ** 2
    )


def ablation_acceleration(
    mdot: float,
    vbar: float,
    ast: AsteroidProperties,
    v_r: float,
    v_t: float,
) -> ThrustRTN:
    """Deflection acceleration from the ejecta momentum, tangent to the
    orbit: the reference form of the acceleration that ``ThrustModel``
    writes out.

    The modulus is Lambda * vbar * mdot / m_A (converted to km/s^2); the
    direction is the heliocentric velocity unit vector, in the orbit plane
    at azimuth atan2(v_t, v_r) in the RTN frame, from the radial and
    transversal velocity in any common unit (``radius_and_heading``).
    """
    if mdot < 0.0:
        raise ValueError("mass flow must be non-negative")
    eps_si = LAMBDA_SCATTER * vbar * mdot / ast.mass
    return ThrustRTN(eps_si / 1000.0, math.atan2(v_t, v_r))


def thrust_sample(design, tech, ast, geom, contamination, eq, elapsed, h_cond):
    """One thrust sample composed of the unit functions, from a fresh
    copy of the asteroid (so no derived constant is shared with the model):
    the thrust and the layer growth rate [m/s] under the layer h_cond [cm],
    ``elapsed`` seconds after the model's reference epoch."""
    ast = replace(ast)
    a_spot, d_spot = spot_area(math.pi * design.d_m**2 / 4.0, design.c_r)
    vbar = ejecta_velocity(ast)
    tau = math.exp(-2.0 * ETA_ABS * h_cond)
    p_in = input_power_density(absorbed_flux_1au(system_efficiency(tech), design.c_r, ast, tau),
                               eq.radius())
    r_ell = ellipsoid_radius(ast, geom.theta_va, elapsed)
    mdot = mass_flow_rate(p_in, ast, design.n_sc, 0.5 * d_spot, r_ell)
    growth = 0.0
    if contamination and geom.x > 0.0 and mdot > 0.0:
        rho = plume_density(mdot, vbar, a_spot, d_spot, geom, r_ell)
        growth = (2.0 * vbar * rho / RHO_LAYER) * math.cos(geom.psi_vf)
    _, v_r, v_t = radius_and_heading(eq)
    return ablation_acceleration(mdot, vbar, ast, v_r, v_t), growth


def arc_length_law(
    eps_now: float, eps_max: float, a_const: float, k_const: float, dl_max: float
) -> float:
    """The adaptive arc-length law of ``fpet.ArcControl``:
    min(A*exp((-log10 e + log10 e_max + 1)/k), dL_max), and dL_max without
    thrust."""
    if eps_now <= 0.0 or eps_max <= 0.0:
        return dl_max
    exponent = (-math.log10(eps_now) + math.log10(eps_max) + 1.0) / k_const
    return min(a_const * math.exp(exponent), dl_max)


def midpoint_state(eq: EquinoctialState, dl: float, start) -> EquinoctialState:
    """The midpoint probe of ``fpet.propagate_trajectory``: the Keplerian
    state half an arc of ``dl`` ahead of ``eq``, timed from its Kepler
    start."""
    return EquinoctialState(eq.a, eq.p1, eq.p2, eq.q1, eq.q2, eq.ell + 0.5 * dl,
                            eq.t + kepler_time_of_flight(eq, 0.5 * dl, start))


def propagate_reference(eq0, sample, dark_until, t_end, ctrl, mu, max_arcs=200000):
    """Reference form of ``fpet.propagate_trajectory``: its arc loop written
    plainly, with the Kepler start of every arc solved afresh, the law by
    ``arc_length_law``, each sample ``sample(state, t, h_cond)`` and each
    arc by ``fpet_step``. A certified-dark spell (``dark_until``, or None
    to step every arc) is stepped as zero-thrust capped arcs, kept while
    their midpoint probes lie before the certified longitude, and replaced
    by their last state, or by the two-body state at t_end when they pass
    it."""
    if t_end <= eq0.t:
        raise ValueError("t_end must be later than the initial epoch")
    states, eps_history = [eq0], []
    eq, eps_max = eq0, 0.0
    h_c, g_c, t_c = 0.0, 0.0, eq0.t  # the layer of the last accepted sample
    dl_guess = ctrl.dl_max

    def law(eps):
        return arc_length_law(eps, eps_max, ctrl.a_const, ctrl.k_const, ctrl.dl_max)

    while t_end - eq.t > 1.0:
        if len(eps_history) >= max_arcs:
            raise ArcOverflowError(f"exceeded {max_arcs} arcs before reaching t_end")
        start = kepler_start(eq, mu)
        probe = midpoint_state(eq, dl_guess, start)
        h = h_c + g_c * (probe.t - t_c) * 100.0
        f, growth = sample(probe, probe.t, h)
        eps_max = max(eps_max, f.eps)
        dl = law(f.eps)
        if not 0.5 <= dl / dl_guess <= 2.0:
            probe = midpoint_state(eq, dl, start)
            h = h_c + g_c * (probe.t - t_c) * 100.0
            f, growth = sample(probe, probe.t, h)
            eps_max = max(eps_max, f.eps)
            dl = law(f.eps)
        dl_guess = dl
        h_c, g_c, t_c = h, growth, probe.t
        nxt = None
        if (f.eps == 0.0 and growth == 0.0 and dark_until is not None
                and (not eps_history or eps_history[-1] > 0.0)):
            ell_dark = dark_until(probe, h)
            end = propagate_keplerian(eq, t_end, mu)
            half_cap = 0.5 * ctrl.dl_max
            state = end if end.ell + half_cap < ell_dark else eq
            while state.ell < end.ell and state.ell + half_cap < ell_dark:
                state = fpet_step(state, ctrl.dl_max, ThrustRTN(0.0), mu, kepler_start(state, mu))
            if state.ell >= end.ell:
                nxt = end
            elif state.ell > eq.ell:
                nxt = state
        if nxt is None:
            nxt = fpet_step(eq, dl, f, mu, start)
            if nxt.t > t_end:
                dl = propagate_keplerian(eq, t_end, mu).ell - eq.ell
                nxt = fpet_step(eq, dl, f, mu, start)
        eq = nxt
        eps_history.append(f.eps)
        states.append(eq)
    return Trajectory(states=states, eps_history=eps_history)


# ---------------------------------------------------------------------------
# Evidence: Belief / Plausibility by full enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FocalElement:
    """One box of the joint structure with its product BPA.

    ``box`` holds the physical (lo, hi) per dimension, ``unit_box`` the
    image cell in the unit hypercube, ``index`` the per-dimension interval
    indices.
    """

    box: tuple[tuple[float, float], ...]
    bpa: float
    unit_box: tuple[tuple[float, float], ...]
    index: tuple[int, ...]


def focal_element(structure: FocalStructure, index: tuple[int, ...]) -> FocalElement:
    """The focal element of a structure at per-dimension interval indices."""
    box = []
    unit = []
    bpa = 1.0
    for d, j in enumerate(index):
        iv = structure.params[d].intervals[j]
        box.append((iv.lo, iv.hi))
        unit.append((float(structure.cum[d][j]), float(structure.cum[d][j + 1])))
        bpa *= iv.bpa
    return FocalElement(box=tuple(box), bpa=bpa, unit_box=tuple(unit), index=index)


def n_elements(structure: FocalStructure) -> int:
    """Number of focal elements of the Cartesian product."""
    return math.prod(structure.counts())


def focal_elements(structure: FocalStructure, max_elements: int = 10**7):
    """Iterate every focal element of the Cartesian product; more than
    ``max_elements`` of them is a ValueError."""
    if n_elements(structure) > max_elements:
        raise ValueError(f"focal element count exceeds the cap of {max_elements}")
    ranges = [range(len(p.intervals)) for p in structure.params]
    for index in itertools.product(*ranges):
        yield focal_element(structure, index)


def build_focal_elements(
    params: list[ParameterBPA], max_elements: int = 10**7
) -> list[FocalElement]:
    """Materialize the full Cartesian product of focal elements."""
    return list(focal_elements(FocalStructure(params), max_elements))


def bel_pl_of_threshold(bounds_by_element, v: float) -> tuple[float, float]:
    """Accumulate Belief and Plausibility from per-element objective bounds.

    ``bounds_by_element`` yields (bpa, vmin, vmax) triples covering every
    focal element exactly once.
    """
    bel_terms = []
    pl_terms = []
    for bpa, vmin, vmax in bounds_by_element:
        # Bel: y < v on the whole element, i.e. its maximum does not exceed v;
        # Pl: the elements of Bel and every element whose minimum is below v
        if vmax <= v:
            bel_terms.append(bpa)
        if vmax <= v or vmin < v:
            pl_terms.append(bpa)
    return math.fsum(bel_terms), math.fsum(pl_terms)


def enumerate_bel_pl(f_bounds, structure: FocalStructure, v: float) -> tuple[float, float]:
    """Brute-force Bel/Pl by enumerating every focal element.

    ``f_bounds(unit_box)`` must return (min, max) of the objective over a
    unit-space box.
    """
    triples = (
        (el.bpa, *f_bounds(el.unit_box)) for el in focal_elements(structure)
    )
    return bel_pl_of_threshold(triples, v)


@dataclass
class DualityReport:
    """Checks of the complementarity relations between Bel and Pl."""

    bel_sum: float
    pl_sum: float
    bel_pl_sum: float
    bel_subadditive: bool
    pl_superadditive: bool
    bel_pl_complementary: bool

    @property
    def all_hold(self) -> bool:
        return self.bel_subadditive and self.pl_superadditive and self.bel_pl_complementary

    def failures(self) -> list[str]:
        out = []
        if not self.bel_subadditive:
            out.append(f"Bel(A) + Bel(not A) = {self.bel_sum} > 1")
        if not self.pl_superadditive:
            out.append(f"Pl(A) + Pl(not A) = {self.pl_sum} < 1")
        if not self.bel_pl_complementary:
            out.append(f"Bel(A) + Pl(not A) = {self.bel_pl_sum} != 1")
        return out


def duality_check(
    bel_a: float, pl_a: float, bel_not_a: float, pl_not_a: float, tol: float = 1e-9
) -> DualityReport:
    """Verify Bel/Pl complementarity for a proposition and its negation."""
    bel_sum = bel_a + bel_not_a
    pl_sum = pl_a + pl_not_a
    bel_pl_sum = bel_a + pl_not_a
    return DualityReport(
        bel_sum=bel_sum,
        pl_sum=pl_sum,
        bel_pl_sum=bel_pl_sum,
        bel_subadditive=bel_sum <= 1.0 + tol,
        pl_superadditive=pl_sum >= 1.0 - tol,
        bel_pl_complementary=abs(bel_pl_sum - 1.0) <= tol,
    )


def complement_bel_pl(f_bounds, structure: FocalStructure, v: float) -> tuple[float, float]:
    """Bel/Pl of the complementary proposition y >= v by enumeration."""
    bel_terms = []
    pl_terms = []
    for el in focal_elements(structure):
        vmin, vmax = f_bounds(el.unit_box)
        if vmin >= v:
            bel_terms.append(el.bpa)
        if vmax >= v:
            pl_terms.append(el.bpa)
    return math.fsum(bel_terms), math.fsum(pl_terms)


def box_search(f, unit_box, sense: str, budget: int, pop: int, seed: int) -> float:
    """The value of the restart-DE search of f over a unit box that the box
    bounds of b run for ``sense``, under the generator key each sense has
    always had (k 0 for the minimum, 1 for the maximum), a lower face at
    the first point of the box's cells."""
    lo, hi = np.array(unit_box).T
    floor = np.array([first_inside(edge) for edge in lo])
    tag = int.from_bytes(hashlib.sha256(repr(unit_box).encode()).digest()[:8], "big")
    rng = np.random.default_rng(np.random.SeedSequence([seed, tag, ("min", "max").index(sense)]))
    return inner_bound_search(lambda u: f(np.maximum(lo + u * (hi - lo), floor)),
                              len(unit_box), sense, budget, pop, rng).value


def b_at(model, design, structure: FocalStructure):
    """b [km] of a design as a function of a unit point of ``structure``,
    every uncertain parameter outside it at the scenario's fixed value,
    evaluated afresh at every call."""
    fixed = model.scenario.fixed_uncertain
    return lambda u: model.evaluate(design, {**fixed, **uncertain_dict(structure, u)}).b


def lit_b_structure(structure: FocalStructure, fixed: dict, scale: float = 0.01) -> FocalStructure:
    """``structure`` with every interval of a parameter b reads
    (``mission.B_NAMES``) shrunk toward that parameter's fixed value by
    ``scale``, its cells and masses kept. At 0.01 the dark corner of the b
    marginal ablates at 20,10,2,3000 (b 1489.4 km with contamination off,
    18.18 km on) while 2,1,1,1000 stays dark (b 0.0)."""
    def shrunk(p: ParameterBPA) -> ParameterBPA:
        x = fixed[p.name]
        return ParameterBPA(p.name, tuple(
            UncertainInterval(x + scale * (iv.lo - x), x + scale * (iv.hi - x), iv.bpa)
            for iv in p.intervals))

    return FocalStructure([shrunk(p) if p.name in B_NAMES else p for p in structure.params])


# b [km] is the b-plane projection of the difference of two heliocentric
# positions of about 1.2e8 km, each the end of a few hundred arcs, so it
# carries an absolute rounding of a few 1e-5 km, whatever its size. Lines
# of 6 points in each b parameter, 1e-3 and 1e-6 of its hull wide, at 1400
# drawn designs and base points with contamination off, fell against b's
# direction by at most 2.8e-5 km (b of 6.4 km); none of the 1400 lines
# across the whole hull fell. The RK referee resolves about 0.01 km, so
# below this slack FPET's b is not known to be wrong.
B_ROUNDING_KM = 1e-4


def hull_corners(structure: FocalStructure, unit_box) -> list[np.ndarray]:
    """Unit points at the 2**dim corners of a box's hull
    (``FocalStructure.hull_ends``), in ``itertools.product`` order: the
    first dimension varies slowest, and each takes its lower end first."""
    return [np.array(point) for point in itertools.product(*structure.hull_ends(unit_box))]


def technology_at(scenario, structure: FocalStructure, u: np.ndarray):
    """The scenario's technology baseline with the values of the unit point
    ``u`` of the technology marginal ``structure``."""
    return replace(scenario.technology, **uncertain_dict(structure, u))


def mass_extreme(model, design, structure: FocalStructure, unit_box, sense: str):
    """The least (``sense`` ``min``) or greatest (``max``) ``m_sys`` over a
    unit box of the technology marginal ``structure`` and the first of its
    ``hull_corners`` that attains it, by evaluating every one: m_sys is
    linear in each technology parameter, so its extremes lie at them."""
    corners = hull_corners(structure, unit_box)
    masses = [model.mass_only(design, technology_at(model.scenario, structure, u))
              for u in corners]
    k = masses.index((min if sense == "min" else max)(masses))
    return masses[k], corners[k]
