"""Laser-ablation thrust, plume expansion and optics contamination.

The sublimation yield comes from an energy balance over the laser spot:
input flux minus black-body re-radiation minus transient heat conduction
into the surface. Surface material streams through the spot as the
asteroid rotates; each strip of the spot sees a dwell time set by its
chord length, with the conduction transient integrated analytically in
time. The strip contributions are integrated across the spot by a
six-node Gauss rule in the square root of the chord, whose integrand is
analytic on the whole support (``mass_flow_rate``).

The ejecta plume expands like a rocket exhaust into the half space above
the spot; whatever condenses on the collector mirror attenuates the
delivered power through an exponential degradation factor. All inputs in
SI units; the contamination layer thickness is tracked in cm to match the
per-cm absorption coefficient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import (
    AU_KM,
    BOLTZMANN,
    ETA_ABS,
    J_C,
    KAPPA,
    LAMBDA_SCATTER,
    PHI_MAX,
    RHO_LAYER,
    S0,
    STEFAN_BOLTZMANN,
)
from .orbits import EquinoctialState, ThrustRTN
from .sizing import DesignVector, TechnologyParams, system_efficiency

# the six positive nodes of the 12-point Gauss-Legendre rule, as (node**2,
# weight) pairs of plain floats (numpy scalars cost several times more): the
# strip integral of ``mass_flow_rate`` in the variable t is even in t
_CHORD_NODES = tuple((node * node, weight) for node, weight in zip(
    *(arr.tolist() for arr in np.polynomial.legendre.leggauss(12))) if node > 0.0)


@dataclass(frozen=True)
class AsteroidProperties:
    """Physical properties of the target asteroid, each read from the
    scenario's ``asteroid_properties`` block; the five uncertain ones
    (``mission.PHYSICAL_NAMES``) restate its ``fixed_uncertain`` values.

    Attributes:
        c_a: specific heat [J/(kg K)].
        k_a: thermal conductivity [W/(m K)].
        rho_a: bulk density [kg/m^3].
        t_subl: sublimation temperature [K].
        e_sub: sublimation enthalpy [J/kg].
        t_0: pre-ablation surface temperature [K].
        albedo: fraction of incident laser power reflected.
        emiss_bb: black-body emissivity of the hot spot.
        a1, b1: semi-axes of the rotation ellipsoid [m].
        omega_a: spin rate [rad/s].
        m_a: asteroid mass [kg], or None (the scenario's ``null``) to
            derive it from the ellipsoid volume and density.
        mol_mass: molecular mass of the ablated species [kg].
    """

    c_a: float
    k_a: float
    rho_a: float
    t_subl: float
    e_sub: float
    t_0: float
    albedo: float
    emiss_bb: float
    a1: float
    b1: float
    omega_a: float
    m_a: float | None
    mol_mass: float

    def __post_init__(self):
        for name in ("c_a", "k_a", "rho_a", "t_subl", "e_sub", "a1", "b1",
                     "omega_a", "mol_mass"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.albedo < 1.0:
            raise ValueError("albedo must lie in [0, 1)")
        if not 0.0 < self.emiss_bb <= 1.0:
            raise ValueError("emiss_bb must lie in (0, 1]")
        if self.t_subl <= self.t_0:
            raise ValueError("sublimation temperature must exceed the deep temperature")
        if self.m_a is not None and self.m_a <= 0.0:
            raise ValueError("m_a must be positive")

    @cached_property
    def mass(self) -> float:
        if self.m_a is not None:
            return self.m_a
        return self.rho_a * (4.0 / 3.0) * math.pi * self.a1 * self.b1**2

    @cached_property
    def q_subl(self) -> float:  # re-radiation [W/m^2] at the sublimation temperature
        return radiation_loss(self.t_subl, self.emiss_bb)

    @cached_property
    def c_cond(self) -> float:  # conduction loss C / sqrt(t) [W/m^2] after time t
        return (self.t_subl - self.t_0) * math.sqrt(self.c_a * self.k_a * self.rho_a / math.pi)


@dataclass(frozen=True)
class StationGeometry:
    """Spacecraft station and spot pointing in the asteroid Hill frame.

    x points along the Sun-asteroid line (away from the Sun), y along
    track, z out of plane; all in meters. ``theta_va`` is the elevation of
    the laser spot over the y axis (pi/2 puts the spot on the x axis,
    facing a sun-side station) and ``psi_vf`` the angle between the mirror
    normal and the incident plume flow.
    """

    x: float
    y: float
    z: float
    theta_va: float
    psi_vf: float

    def __post_init__(self):
        # a negative view factor would thin the mirror's layer below zero
        if math.cos(self.psi_vf) < 0.0:
            raise ValueError(f"psi_vf must have cos(psi_vf) >= 0, got {self.psi_vf}")


def spot_area(a_m1: float, c_r: float) -> tuple[float, float]:
    """Area [m^2] and diameter [m] of the laser spot for a given collector.

    The concentration ratio is the power-density ratio between collector
    and spot, so the spot area is the primary area divided by it.
    """
    a_spot = a_m1 / c_r
    return a_spot, math.sqrt(4.0 * a_spot / math.pi)


def absorbed_flux_1au(
    sys_eff: float, c_r: float, ast: AsteroidProperties, tau: float = 1.0
) -> float:
    """Absorbed laser flux on the spot [W/m^2] at 1 AU from the Sun, under
    the mirror degradation factor tau."""
    return tau * sys_eff * c_r * (1.0 - ast.albedo) * S0


def input_power_density(flux_1au: float, r_a: float) -> float:
    """Absorbed laser flux on the spot [W/m^2] at heliocentric range r_a
    [km], from its value ``absorbed_flux_1au`` at 1 AU."""
    if r_a <= 0.0:
        raise ValueError("heliocentric distance must be positive")
    return flux_1au * (AU_KM / r_a) ** 2


def radiation_loss(t_surface: float, emiss_bb: float) -> float:
    """Black-body re-radiation flux [W/m^2] of the spot surface."""
    if t_surface < 0.0:
        raise ValueError("surface temperature must be non-negative")
    return STEFAN_BOLTZMANN * emiss_bb * t_surface**4


def mass_flow_rate(
    p_in: float, ast: AsteroidProperties, n_sc: int, half: float, r_ell: float
) -> float:
    """Sublimated mass flow [kg/s] from the energy balance over a spot of
    half-diameter ``half`` [m] on the ellipsoid radius ``r_ell`` [m].

    Strips of surface at transverse offset y cross the spot with dwell
    time tau(y) = 2 c(y) / v_rot, c(y) = sqrt(half^2 - y^2) the half chord.
    Net flux is clamped at zero wherever the conduction transient exceeds
    the available input, which makes the time integral per strip
    closed-form:

        integral max(0, P_net - C/sqrt(t)) dt over (0, tau]
            = P_net * (sqrt(tau) - sqrt(t*))^2   for tau > t* = (C/P_net)^2

    with P_net the input flux net of re-radiation at the sublimation
    temperature and C the conduction constant. Nothing ablates with no
    input, with input below the re-radiation, or where no strip dwells past
    the conduction threshold: with P_in <= q_subl + C*sqrt(v_rot/d), d the
    spot diameter. Less input or a faster surface never lights a dark spot.

    The strips that dwell past t* have c(y) > c_min = v_rot t* / 2. Over
    them the integrand (sqrt(2 c(y) / v_rot) - sqrt(t*))^2 has a branch
    point (half^2 - y^2)^(1/4) only about c_min^2 / (2 half) past the end
    of the support, so a Gauss rule in y converges slowly there: 16 nodes
    missed the integral by up to 4.0e-5. In eta = sqrt(c / half), from
    eta0 = sqrt(c_min / half) to 1, and eta = 1 - (1 - eta0) t^2, the strip
    integral is

        4 half sqrt(1 - eta0) * integral over t in [0, 1] of
            (A eta - sqrt(t*))^2 eta^3 / sqrt((1 + eta) (1 + eta^2)) dt

    with A = sqrt(2 half / v_rot). The substitution takes the branch point
    sqrt(1 - eta) out, so the integrand is analytic, and it depends on t
    only through t^2, so it is even: the six positive nodes of the 12-point
    Gauss-Legendre rule integrate it over [0, 1] (the 6-point Gauss-Jacobi
    rule of weight (1 - eta)^(-1/2) on [eta0, 1]), one square root each. It
    is within 9e-9 of the integral (as c_min / half -> 0; five nodes: 4e-7),
    gated against an adaptive quadrature in y in ``tests/test_ablation.py``.
    Near the dim edge (c_min / half -> 1) the width 1 - eta0 of the support
    cancels, so the relative error grows as about 1e-16 over that width:
    5e-11 at 1 - c_min / half = 1e-6, where the strip integral is 2.4e-16 of
    its value at c_min -> 0, and 2.5e-8 at 1e-8.
    """
    if p_in <= 0.0:
        return 0.0
    p_net = p_in - ast.q_subl
    if p_net <= 0.0:
        return 0.0
    v_rot = ast.omega_a * r_ell
    sqrt_t_star = ast.c_cond / p_net
    chord_min = 0.5 * v_rot * sqrt_t_star * sqrt_t_star
    if chord_min >= half:
        return 0.0
    sqrt = math.sqrt
    width = 1.0 - sqrt(chord_min / half)
    a = sqrt((half + half) / v_rot)
    strip_integral = 0.0
    for t_sq, weight in _CHORD_NODES:
        eta = 1.0 - width * t_sq
        gain = a * eta - sqrt_t_star
        strip_integral += weight * gain * gain * eta * eta * eta / sqrt(
            (1.0 + eta) * (1.0 + eta * eta))
    strip_integral *= 4.0 * half * sqrt(width) * p_net
    return 2.0 * n_sc * v_rot * strip_integral / ast.e_sub


def ejecta_velocity(ast: AsteroidProperties) -> float:
    """Mean thermal speed of the ablated gas [m/s]."""
    return math.sqrt(8.0 * BOLTZMANN * ast.t_subl / (math.pi * ast.mol_mass))


def plume_density(
    mdot: float,
    vbar: float,
    a_spot: float,
    d_spot: float,
    geom: StationGeometry,
    r_ell: float,
) -> float:
    """Ejecta gas density [kg/m^3] at the spacecraft station, for the
    ellipsoid radius ``r_ell`` [m] under the spot.

    The plume fills the half space over the spot like a rocket exhaust
    whose axis is the outward Sun-asteroid direction (the comet-tail
    analogy of the contamination model); phi is the angular separation of
    the station from that axis and the density falls to zero at the
    hemisphere edge PHI_MAX.
    """
    if mdot <= 0.0:
        return 0.0
    # Hill-frame vector from the spot to the spacecraft
    dx = geom.x - r_ell * math.sin(geom.theta_va)
    dy = geom.y - r_ell * math.cos(geom.theta_va)
    r_s_sc = math.sqrt(dx * dx + dy * dy + geom.z * geom.z)
    cos_phi = dx / r_s_sc if r_s_sc > 0.0 else 1.0
    phi = math.acos(max(-1.0, min(1.0, cos_phi)))
    if phi >= PHI_MAX:
        return 0.0
    theta = math.pi * phi / (2.0 * PHI_MAX)
    spread = (d_spot / (2.0 * r_s_sc + d_spot)) ** 2
    directivity = math.cos(theta) ** (2.0 / (KAPPA - 1.0))
    return J_C * (mdot / (vbar * a_spot)) * spread * directivity


class ThrustModel:
    """Thrust sample for the trajectory propagators.

    Composes absorbed flux, sublimation mass flow and ejecta momentum into
    an RTN acceleration. A sample reads the condensed mirror layer
    ``h_cond`` [cm] it is given, which dims the flux by the degradation
    factor ``tau = exp(-2 * eta * h_cond)``, and returns the thrust with the
    layer's growth rate [m/s] at that instant: 0.0 with contamination off.
    The layer itself is state of the propagation that carries it
    (``fpet.propagate_trajectory``, ``mission.rk_impact_parameter``).
    ``dark_until`` tells the propagator how far along the Keplerian orbit
    the spot stays dark under a layer that has stopped growing.

    An instance holds one trajectory's constants, fixed at construction
    (efficiency, areas, spot radius, the undimmed flux at 1 AU, ejecta
    speed, view factor; the asteroid caches mass, re-radiation,
    conduction). A sample calls ``mass_flow_rate`` and ``plume_density``
    and writes the rest out in one frame, and it equals the composition of
    the unit functions (``tests/oracles.py`` keeps the spin radius and the
    acceleration as functions) bit for bit.
    """

    def __init__(
        self,
        design: DesignVector,
        tech: TechnologyParams,
        ast: AsteroidProperties,
        geom: StationGeometry,
        contamination_on: bool,
        t_reference: float,
    ):
        self.design = design
        self.tech = tech
        self.ast = ast
        self.geom = geom
        self.contamination_on = contamination_on
        self.eta_sys = system_efficiency(tech)
        self.a_spot, self.d_spot = spot_area(math.pi * design.d_m**2 / 4.0, design.c_r)
        self.half_spot = 0.5 * self.d_spot
        self.flux_1au = absorbed_flux_1au(self.eta_sys, design.c_r, ast)
        self.vbar = ejecta_velocity(ast)
        self.view_factor = math.cos(geom.psi_vf)
        self.t_reference = t_reference

    def __call__(
        self, eq: EquinoctialState, t: float, h_cond: float
    ) -> tuple[ThrustRTN, float]:
        """Thrust at state ``eq`` and epoch ``t`` under a layer of ``h_cond``
        cm, and the layer's growth rate [m/s]: twice the ejecta speed (vacuum
        expansion doubles the incident speed) times the density ratio,
        projected by the view factor, while contamination is on, the spot
        ablates and the station is on the exposed (x > 0) side."""
        ast, geom = self.ast, self.geom
        tau = math.exp(-2.0 * ETA_ABS * h_cond)
        # the flux at 1 AU kept per trajectory is the undimmed one
        flux_1au = (self.flux_1au if tau == 1.0 else
                    absorbed_flux_1au(self.eta_sys, self.design.c_r, ast, tau))
        # in this one frame: the heliocentric radius and the radial and
        # transversal velocity in units of sqrt(mu/p), P2 sin L - P1 cos L
        # and 1 + P1 sin L + P2 cos L = p/r, from one sin/cos pair of the
        # longitude, the radius of the spinning ellipsoid under the spot,
        # the input flux (``input_power_density``; an elliptic orbit's
        # radius is positive) and the acceleration Lambda * vbar * mdot /
        # m_A [km/s^2] along the heliocentric velocity, in the orbit plane,
        # in the operation order of their reference forms
        p1, p2, ell = eq.p1, eq.p2, eq.ell
        sl, cl = math.sin(ell), math.cos(ell)
        v_t = 1.0 + p1 * sl + p2 * cl
        r_a = eq.a * (1.0 - p1 * p1 - p2 * p2) / v_t
        angle = ast.omega_a * (t - self.t_reference) + geom.theta_va
        a1, b1 = ast.a1, ast.b1
        r_ell = a1 * b1 / math.sqrt((b1 * math.cos(angle)) ** 2 + (a1 * math.sin(angle)) ** 2)
        mdot = mass_flow_rate(flux_1au * (AU_KM / r_a) ** 2, ast, self.design.n_sc,
                              self.half_spot, r_ell)
        thrust = ThrustRTN(LAMBDA_SCATTER * self.vbar * mdot / ast.mass / 1000.0,
                           math.atan2(v_t, p2 * sl - p1 * cl))
        if not self.contamination_on or geom.x <= 0.0 or mdot <= 0.0:
            return thrust, 0.0
        rho = plume_density(mdot, self.vbar, self.a_spot, self.d_spot, geom, r_ell)
        return thrust, (2.0 * self.vbar * rho / RHO_LAYER) * self.view_factor

    def dark_until(self, eq: EquinoctialState, h_cond: float) -> float:
        """The true longitude, unwrapped from ``eq.ell``, up to which no
        sample under the layer ``h_cond`` [cm] can ablate while the motion
        stays on the Keplerian orbit of ``eq``: ``math.inf`` when that holds
        on the whole orbit, ``eq.ell`` when it fails at ``eq`` already.

        The layer must have stopped growing, which the caller knows: a dark
        sample grows nothing, so ``tau`` stays as it is. A sample is then
        dark wherever the input flux, which falls as 1/r^2, is at most
        ``q_subl + c_cond*sqrt(v_rot/d_spot)`` (``mass_flow_rate``), and a
        faster surface only darkens the spot. So at the slowest surface
        speed of the spinning ellipsoid the spot is dark outside one
        heliocentric radius ``r_lit``, and the orbit is inside it on one arc
        centred on the perihelion. The returned longitude is where the orbit
        next enters that arc. ``r_lit`` is taken 1e-9 above and the speed
        1e-9 below their exact values, far beyond the rounding of the radius
        of a sample, its spin radius and the arc's end.
        """
        ast = self.ast
        tau = math.exp(-2.0 * ETA_ABS * h_cond)
        flux_at_1km = input_power_density(
            absorbed_flux_1au(self.eta_sys, self.design.c_r, ast, tau), 1.0)
        v_rot = ast.omega_a * min(ast.a1, ast.b1) * (1.0 - 1e-9)
        r_lit = math.sqrt(flux_at_1km / (ast.q_subl + ast.c_cond * math.sqrt(v_rot / self.d_spot)))
        r_lit *= 1.0 + 1e-9
        p, e = eq.semi_latus(), math.hypot(eq.p1, eq.p2)
        if p / (1.0 + e) >= r_lit:
            return math.inf
        if eq.radius() < r_lit:
            return eq.ell
        # inside r_lit where 1 + e*cos(ell - pomega) > p / r_lit
        half_arc = math.acos(max(-1.0, min(1.0, (p / r_lit - 1.0) / e)))
        to_lit = (math.atan2(eq.p1, eq.p2) - half_arc - eq.ell) % (2.0 * math.pi)
        # a state the rounding of the angles puts just past the entry is
        # inside, not a turn before the next entry
        return eq.ell + to_lit if to_lit + 2.0 * half_arc < 2.0 * math.pi else eq.ell
