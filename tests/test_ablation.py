"""Sublimation energy balance, plume and contamination models."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from neodeflect.constants import (
    AU_KM, ETA_ABS, J_C, KAPPA, MU_SUN, PHI_MAX, RHO_LAYER, STEFAN_BOLTZMANN,
)
from neodeflect.ablation import (
    StationGeometry,
    ThrustModel,
    absorbed_flux_1au,
    ejecta_velocity,
    input_power_density,
    mass_flow_rate,
    plume_density,
    radiation_loss,
    spot_area,
)
from neodeflect.mission import (
    apply_uncertain,
    evidence_structure,
    uncertain_dict,
)
from neodeflect.orbits import (
    EquinoctialState,
    KeplerianElements,
    equinoctial_to_cartesian,
    keplerian_to_equinoctial,
    propagate_keplerian,
)
from neodeflect.sizing import DesignVector

import oracles
from conftest import REFERENCE
from oracles import ablation_acceleration, ellipsoid_radius

# forsterite's (Mg2SiO4) molecular mass from standard atomic weights [kg];
# the reference scenario rounds it to 2.3363374e-25
FORSTERITE_MOL_MASS = (2 * 24.305 + 28.085 + 4 * 15.999) * 1e-3 / 6.02214076e23
# reference physical values
TABLE_AST = replace(REFERENCE.asteroid_properties, mol_mass=FORSTERITE_MOL_MASS)
# a station nearer than the reference scenario's (x 3000 m)
GEOM = replace(REFERENCE.station, x=2000.0)


# ---------------------------------------------------------------------------
# Flux terms
# ---------------------------------------------------------------------------

def test_input_power_density_solar_constant():
    ast = replace(TABLE_AST, albedo=0.0)
    p = input_power_density(absorbed_flux_1au(1.0, 1.0, ast, tau=1.0), AU_KM)
    assert p == pytest.approx(1367.0)


def test_input_power_density_total_reflection():
    ast = replace(TABLE_AST, albedo=0.999999)
    p = input_power_density(absorbed_flux_1au(1.0, 1.0, ast), AU_KM)
    assert p == pytest.approx(0.0, abs=1e-2)


def test_input_power_density_inverse_square():
    ast = replace(TABLE_AST, albedo=0.0)
    p1 = input_power_density(absorbed_flux_1au(0.25, 2000.0, ast), AU_KM)
    p2 = input_power_density(absorbed_flux_1au(0.25, 2000.0, ast), 2 * AU_KM)
    assert p2 == pytest.approx(p1 / 4)


def test_input_power_density_tau_multiplies():
    p1 = input_power_density(absorbed_flux_1au(0.25, 2000.0, TABLE_AST, tau=1.0), AU_KM)
    p2 = input_power_density(absorbed_flux_1au(0.25, 2000.0, TABLE_AST, tau=0.37), AU_KM)
    assert p2 == pytest.approx(0.37 * p1)


def test_radiation_loss():
    assert radiation_loss(0.0, 1.0) == 0.0
    assert radiation_loss(1800.0, 1.0) == pytest.approx(5.952e5, rel=1e-3)
    assert radiation_loss(3600.0, 1.0) == pytest.approx(16 * radiation_loss(1800.0, 1.0))


# ---------------------------------------------------------------------------
# Mass flow
# ---------------------------------------------------------------------------

def mass_flow_oracle(p_in, ast, geom, n_sc, c_r, a_m1, n_y=1500, n_t=3000):
    """Fine-grid 2-D trapezoid evaluation of the clamped energy balance."""
    p_net = p_in - STEFAN_BOLTZMANN * ast.emiss_bb * ast.t_subl**4
    if p_net <= 0:
        return 0.0
    _, d_spot = spot_area(a_m1, c_r)
    v_rot = ast.omega_a * ellipsoid_radius(ast, geom.theta_va, 0.0)
    c_cond = (ast.t_subl - ast.t_0) * math.sqrt(ast.c_a * ast.k_a * ast.rho_a / math.pi)
    half = d_spot / 2
    ys = np.linspace(0.0, half, n_y)
    strip = np.zeros(n_y)
    for i, y in enumerate(ys):
        dwell = 2 * math.sqrt(max(half**2 - y**2, 0.0)) / v_rot
        if dwell <= 0:
            continue
        ts = np.linspace(dwell * 1e-9, dwell, n_t)
        integrand = np.maximum(p_net - c_cond / np.sqrt(ts), 0.0)
        strip[i] = np.trapezoid(integrand, ts)
    return 2 * n_sc * v_rot * np.trapezoid(strip, ys) / ast.e_sub


def flow(p_in, ast, n_sc, c_r, a_m1):
    """``mass_flow_rate`` at spin phase 0 for a collector of area a_m1."""
    _, d_spot = spot_area(a_m1, c_r)
    return mass_flow_rate(p_in, ast, n_sc, 0.5 * d_spot, ellipsoid_radius(ast, GEOM.theta_va, 0.0))


def reference_flux(tau=1.0):
    eta_sys = 0.6 * 0.41 * 0.95 * 0.95
    return input_power_density(absorbed_flux_1au(eta_sys, 3000.0, TABLE_AST, tau=tau), AU_KM)


def test_mass_flow_matches_trapezoid_oracle():
    a_m1 = math.pi * 20.0**2 / 4
    p_in = reference_flux()
    got = flow(p_in, TABLE_AST, 10, 3000.0, a_m1)
    want = mass_flow_oracle(p_in, TABLE_AST, GEOM, 10, 3000.0, a_m1)
    assert got > 0.0
    assert got == pytest.approx(want, rel=5e-3)


def test_mass_flow_oracle_various_regimes():
    a_m1 = math.pi * 12.0**2 / 4
    for scale in (0.8, 1.5, 3.0):
        p_in = reference_flux() * scale
        got = flow(p_in, TABLE_AST, 3, 2000.0, a_m1)
        want = mass_flow_oracle(p_in, TABLE_AST, GEOM, 3, 2000.0, a_m1)
        assert got == pytest.approx(want, rel=5e-3)


def test_mass_flow_zero_below_radiation_threshold():
    q_rad = radiation_loss(TABLE_AST.t_subl, TABLE_AST.emiss_bb)
    assert flow(0.99 * q_rad, TABLE_AST, 10, 3000.0, 300.0) == 0.0
    assert flow(0.0, TABLE_AST, 10, 3000.0, 300.0) == 0.0


def test_mass_flow_inverse_in_enthalpy():
    a_m1 = math.pi * 100.0
    p_in = reference_flux()
    base = flow(p_in, TABLE_AST, 5, 3000.0, a_m1)
    doubled = replace(TABLE_AST, e_sub=2 * TABLE_AST.e_sub)
    assert flow(p_in, doubled, 5, 3000.0, a_m1) == pytest.approx(
        base / 2, rel=1e-12
    )


def test_mass_flow_monotone_in_input_and_enthalpy():
    a_m1 = math.pi * 100.0
    flux = reference_flux()
    flows_p = [
        flow(f, TABLE_AST, 5, 3000.0, a_m1)
        for f in np.linspace(0.5 * flux, 2 * flux, 10)
    ]
    assert all(b >= a for a, b in zip(flows_p, flows_p[1:]))
    flows_e = [
        flow(flux, replace(TABLE_AST, e_sub=e), 5, 3000.0, a_m1)
        for e in np.linspace(1e6, 2e7, 10)
    ]
    assert all(b <= a for a, b in zip(flows_e, flows_e[1:]))


# the error allowed to ``mass_flow_rate``'s strip rule against an adaptive
# quadrature in y; the six-node rule measures up to 9e-9 (as the threshold
# chord c_min -> 0), five nodes 4e-7 and a 16-node Gauss rule in y 4.0e-5
MASS_FLOW_REL_ERROR = 1e-7
# within this of the dim edge (1 - c_min/half) the width of the support
# cancels in any rule, and the flow is below 1e-15 of ``full_flow``
DIM_EDGE = 1e-6


def mass_flow_in_y(p_in, ast, n_sc, half, r_ell):
    """``mass_flow_rate`` with its strip integral over the transverse
    offset y, the form it is derived in, by ``scipy.integrate.quad`` to a
    relative 1e-13, and the threshold chord c_min over ``half``."""
    p_net = p_in - ast.q_subl
    v_rot = ast.omega_a * r_ell
    sqrt_t_star = ast.c_cond / p_net
    chord_min = 0.5 * v_rot * sqrt_t_star**2
    if chord_min >= half:
        return 0.0, chord_min / half
    support = math.sqrt(half**2 - chord_min**2)

    def strip(y):  # the yield of the strip at offset y over P_net
        return (math.sqrt(2.0 * math.sqrt(max(half**2 - y * y, 0.0)) / v_rot) - sqrt_t_star)**2

    integral = quad(strip, 0.0, support, epsabs=0.0, epsrel=1e-13, limit=200,
                    full_output=1)[0]
    return 2.0 * n_sc * v_rot * p_net * integral / ast.e_sub, chord_min / half


def full_flow(p_in, ast, n_sc, half):
    """The flow if the spot's whole net flux sublimated, with no conduction
    loss: an upper bound of ``mass_flow_rate``."""
    return n_sc * math.pi * half**2 * (p_in - ast.q_subl) / ast.e_sub


def lit_threshold(ast, half, r_ell):
    """The input flux at and below which the spot is dark (up to rounding)."""
    return ast.q_subl + ast.c_cond * math.sqrt(ast.omega_a * r_ell / (2.0 * half))


def assert_strip_rule_accurate(p_in, ast, n_sc, half, r_ell):
    got = mass_flow_rate(p_in, ast, n_sc, half, r_ell)
    want, chord_ratio = mass_flow_in_y(p_in, ast, n_sc, half, r_ell)
    if 1.0 - chord_ratio >= DIM_EDGE:
        assert got > 0.0
        assert abs(got - want) <= MASS_FLOW_REL_ERROR * want, (got, want, chord_ratio)
    else:
        assert max(got, want) <= 1e-15 * full_flow(p_in, ast, n_sc, half)


HALF_20M = 0.5 * spot_area(math.pi * 20.0**2 / 4.0, 3000.0)[1]


@pytest.mark.parametrize("chord_ratio", [
    *np.logspace(-10.0, 0.0, 41)[:-1].tolist(), *(1.0 - np.logspace(-1.0, -6.0, 11)).tolist()])
def test_mass_flow_strip_rule_against_adaptive_quadrature(chord_ratio):
    """The strip rule within 1e-7 of an adaptive quadrature in y, over the
    threshold chord c_min/half from 1e-10 to 1 - 1e-6, on the reference
    asteroid and the largest design's spot: the rule's error is largest as
    c_min -> 0, where the branch point of the dwell nears the support."""
    ast, r_ell = TABLE_AST, TABLE_AST.a1
    v_rot = ast.omega_a * r_ell
    p_in = ast.q_subl + ast.c_cond * math.sqrt(0.5 * v_rot / (chord_ratio * HALF_20M))
    assert_strip_rule_accurate(p_in, ast, 10, HALF_20M, r_ell)


@settings(max_examples=200, deadline=None)
@example(u=[0.5] * 10, above=0.0, r_ell=135.0, d_m=20.0, n_sc=10, c_r=3000.0)  # at the threshold
@given(
    u=st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10),
    above=st.floats(0.0, 1.0),
    r_ell=st.floats(60.0, 200.0),
    d_m=st.floats(2.0, 20.0),
    n_sc=st.integers(1, 10),
    c_r=st.floats(1000.0, 3000.0),
)
def test_mass_flow_strip_rule_against_adaptive_quadrature_at_drawn_inputs(
        u, above, r_ell, d_m, n_sc, c_r):
    """The same gate at drawn physical inputs: the asteroid anywhere in the
    hull of the evidence structure, the input flux from the dark threshold
    up to ten times above it, the spin radius from 60 to 200 m and the spot
    of a drawn design. Within 1e-6 of the dim edge, where the support's
    width cancels, both flows are below 1e-15 of the flow with no
    conduction loss."""
    ast, _ = apply_uncertain(SCENARIO, uncertain_dict(STRUCTURE, np.array(u)))
    half = 0.5 * spot_area(math.pi * d_m**2 / 4.0, c_r)[1]
    p_in = lit_threshold(ast, half, r_ell) * 10.0**above
    assert_strip_rule_accurate(p_in, ast, n_sc, half, r_ell)


# ---------------------------------------------------------------------------
# Ejecta velocity and acceleration
# ---------------------------------------------------------------------------

def test_ejecta_velocity_forsterite():
    assert ejecta_velocity(replace(TABLE_AST, t_subl=1800.0)) == pytest.approx(520.0, rel=2e-3)


def test_ejecta_velocity_scalings():
    v0 = ejecta_velocity(TABLE_AST)
    assert ejecta_velocity(replace(TABLE_AST, t_subl=4 * 1800.0)) == pytest.approx(2 * v0)
    half_mol = replace(TABLE_AST, mol_mass=TABLE_AST.mol_mass / 2)
    assert ejecta_velocity(half_mol) == pytest.approx(math.sqrt(2) * v0)


def _state():
    return keplerian_to_equinoctial(
        KeplerianElements(0.9224 * AU_KM, 0.19, 0.058, 3.57, 2.21, 1.3)
    )


def _heading(eq):
    """Radial and transversal velocity of ``eq`` in units of sqrt(mu/p)."""
    _, v_r, v_t = oracles.radius_and_heading(eq)
    return v_r, v_t


def test_ablation_acceleration_hand_value():
    ast = replace(TABLE_AST, m_a=2.7e10)
    thr = ablation_acceleration(1e-3, 520.0, ast, *_heading(_state()))
    assert thr.eps * 1000.0 == pytest.approx(1.23e-11, rel=5e-3)  # m/s^2


def test_ablation_acceleration_zero_flow():
    assert ablation_acceleration(0.0, 520.0, TABLE_AST, *_heading(_state())).eps == 0.0


def test_ablation_acceleration_linearities():
    heading = _heading(_state())
    base = ablation_acceleration(1e-3, 520.0, replace(TABLE_AST, m_a=2.7e10), *heading).eps
    tenx = ablation_acceleration(1e-3, 520.0, replace(TABLE_AST, m_a=2.7e11), *heading).eps
    assert tenx == pytest.approx(base / 10, rel=1e-12)
    twice = ablation_acceleration(2e-3, 520.0, replace(TABLE_AST, m_a=2.7e10), *heading).eps
    assert twice == pytest.approx(2 * base, rel=1e-12)


def test_ablation_acceleration_tangent_to_orbit():
    eq = _state()
    thr = ablation_acceleration(1e-3, 520.0, TABLE_AST, *_heading(eq))
    r_vec, v_vec = equinoctial_to_cartesian(eq, MU_SUN)
    r_hat, t_hat, n_hat = oracles.rtn_basis(r_vec, v_vec)
    f = oracles.rtn_vector(thr)
    inertial = f[0] * r_hat + f[1] * t_hat + f[2] * n_hat
    cosang = np.dot(inertial, v_vec) / (np.linalg.norm(inertial) * np.linalg.norm(v_vec))
    assert cosang == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Spot geometry and plume
# ---------------------------------------------------------------------------

def test_ellipsoid_radius_sphere_and_phase():
    sphere = replace(TABLE_AST, a1=100.0, b1=100.0)
    for t in np.linspace(0, 1e5, 7):
        assert ellipsoid_radius(sphere, 0.3, t) == pytest.approx(100.0)
    ell = replace(TABLE_AST, a1=200.0, b1=100.0)
    assert ellipsoid_radius(ell, 0.0, 0.0) == pytest.approx(200.0)  # angle 0 -> a1


@pytest.mark.parametrize(
    "geom, spot_to_station",
    [
        # spot on the x axis, under a station out of the orbit plane
        (replace(GEOM, x=2000.0, z=700.0, theta_va=math.pi / 2), (1865.0, 0.0, 700.0)),
        # spot on the y axis: the station sees it 135 m along -y
        (replace(GEOM, x=2000.0, y=0.0, z=0.0, theta_va=0.0), (2000.0, -135.0, 0.0)),
    ],
    ids=["spot-on-x", "spot-on-y"],
)
def test_plume_density_of_the_spot_to_station_vector(geom, spot_to_station):
    """The density is the jet law at the range and the angle off the x axis
    of the Hill-frame vector from the spot (r_ell 135 m) to the station."""
    a_spot, d_spot = spot_area(math.pi * 100.0, 3000.0)
    r = math.hypot(*spot_to_station)
    phi = math.acos(spot_to_station[0] / r)
    expected = (J_C * 1e-3 / (520.0 * a_spot) * (d_spot / (2.0 * r + d_spot)) ** 2
                * math.cos(math.pi * phi / (2.0 * PHI_MAX)) ** (2.0 / (KAPPA - 1.0)))
    rho = plume_density(1e-3, 520.0, a_spot, d_spot, geom, 135.0)
    assert rho == pytest.approx(expected, rel=1e-12)


def test_plume_density_matches_the_numpy_norm_at_the_reference_stations():
    """At the test station GEOM (x 2000 m) and the reference scenario's (x
    3000 m), both with y = z = 0 and theta_va pi/2, dy**2 is below half an
    ulp of dx**2, so the plain-float norm equals the former numpy 3-vector
    and BLAS dot bit for bit."""

    def numpy_plume_density(mdot, vbar, a_spot, d_spot, geom, r_ell):
        r_vec = np.array([geom.x - r_ell * math.sin(geom.theta_va),
                          geom.y - r_ell * math.cos(geom.theta_va), geom.z])
        r_s_sc = math.sqrt(r_vec.dot(r_vec))
        phi = math.acos(max(-1.0, min(1.0, float(r_vec[0]) / r_s_sc)))
        if phi >= PHI_MAX:
            return 0.0
        theta = math.pi * phi / (2.0 * PHI_MAX)
        spread = (d_spot / (2.0 * r_s_sc + d_spot)) ** 2
        directivity = math.cos(theta) ** (2.0 / (KAPPA - 1.0))
        return J_C * (mdot / (vbar * a_spot)) * spread * directivity

    a_spot, d_spot = spot_area(math.pi * 100.0, 3000.0)
    rng = np.random.default_rng(23)
    for geom in (GEOM, REFERENCE.station):
        for r_ell, mdot in zip(rng.uniform(10.0, 1000.0, 1000), rng.uniform(1e-6, 1e-2, 1000)):
            args = (float(mdot), 520.0, a_spot, d_spot, geom, float(r_ell))
            assert plume_density(*args) == numpy_plume_density(*args)


def test_plume_density_edge_and_axis():
    a_spot, d_spot = spot_area(math.pi * 100.0, 3000.0)
    r_ell = 135.0
    # station at the hemisphere edge (y axis, phi = pi/2): zero density
    edge = replace(GEOM, x=0.0, y=2000.0, z=0.0, theta_va=0.0)
    assert plume_density(1e-3, 520.0, a_spot, d_spot, edge, r_ell) == 0.0
    # on axis at range d_spot/2 from the spot: quarter of the throat density
    onaxis = replace(GEOM, x=r_ell + d_spot / 2, y=0.0, z=0.0, theta_va=math.pi / 2)
    rho = plume_density(1e-3, 520.0, a_spot, d_spot, onaxis, r_ell)
    assert rho == pytest.approx(J_C * 1e-3 / (4 * 520.0 * a_spot), rel=1e-9)


def test_plume_density_far_field_quadratic():
    a_spot, d_spot = spot_area(math.pi * 100.0, 3000.0)
    rhos = []
    for x in (1e5, 2e5):
        geom = replace(GEOM, x=x, theta_va=math.pi / 2)
        rhos.append(plume_density(1e-3, 520.0, a_spot, d_spot, geom, 135.0))
    assert rhos[0] / rhos[1] == pytest.approx(4.0, rel=1e-2)


def test_plume_density_even_in_offset():
    a_spot, d_spot = spot_area(math.pi * 100.0, 3000.0)
    up = replace(GEOM, x=2000.0, z=700.0, theta_va=math.pi / 2)
    down = replace(GEOM, x=2000.0, z=-700.0, theta_va=math.pi / 2)
    assert plume_density(1e-3, 520.0, a_spot, d_spot, up, 135.0) == pytest.approx(
        plume_density(1e-3, 520.0, a_spot, d_spot, down, 135.0)
    )


# ---------------------------------------------------------------------------
# Contamination
# ---------------------------------------------------------------------------

DESIGN = DesignVector(d_m=20.0, n_sc=10, t_warn=8.0, c_r=3000.0)
TECH = REFERENCE.technology
AT_1AU = keplerian_to_equinoctial(KeplerianElements(AU_KM, 0.0, 0.0, 0.0, 0.0, 0.0))


def _flow_at_1au(model, tau):
    """Mass flow [kg/s] of ``model``'s spot at 1 AU, spin phase 0, under
    the degradation factor tau."""
    p_in = input_power_density(absorbed_flux_1au(model.eta_sys, DESIGN.c_r, TABLE_AST, tau),
                               AT_1AU.radius())
    return mass_flow_rate(p_in, TABLE_AST, DESIGN.n_sc, 0.5 * model.d_spot,
                          ellipsoid_radius(TABLE_AST, model.geom.theta_va, 0.0))


def test_contamination_step_zero_density_no_change():
    # exposed station (x > 0) inside the spot radius: the plume misses it
    geom = replace(GEOM, x=100.0)
    model = ThrustModel(DESIGN, TECH, TABLE_AST, geom, contamination_on=True, t_reference=0.0)
    thrust, growth = model(AT_1AU, 0.0, 0.0)
    assert thrust.eps > 0.0 and growth == 0.0
    assert [model(AT_1AU, t, 0.0) for t in (1e3, 1e5, 1e7)] == [(thrust, 0.0)] * 3


def test_contamination_tau_analytic():
    model = ThrustModel(DESIGN, TECH, TABLE_AST, GEOM, contamination_on=True, t_reference=0.0)
    r_ell = ellipsoid_radius(TABLE_AST, GEOM.theta_va, 0.0)
    rho = plume_density(_flow_at_1au(model, 1.0), model.vbar, model.a_spot, model.d_spot,
                        GEOM, r_ell)
    _, growth = model(AT_1AU, 0.0, 0.0)
    assert growth == pytest.approx(
        2 * model.vbar * rho / RHO_LAYER, rel=1e-15, abs=0.0
    )
    # a layer of 0.005 / eta cm dims the flux by the factor exp(-0.01)
    thrust, _ = model(AT_1AU, 0.0, 0.005 / ETA_ABS)
    want = ablation_acceleration(_flow_at_1au(model, math.exp(-0.01)), model.vbar, TABLE_AST,
                                 *_heading(AT_1AU))
    assert thrust.eps == pytest.approx(want.eps, rel=1e-12)
    assert 0.0 < thrust.eps < model(AT_1AU, 0.0, 0.0)[0].eps


def test_contamination_not_exposed():
    # station on the x < 0 side, yet in the plume of a spot pointed at it
    shadow = replace(GEOM, x=-50.0, theta_va=-math.pi / 2)
    model = ThrustModel(DESIGN, TECH, TABLE_AST, shadow, contamination_on=True, t_reference=0.0)
    assert plume_density(_flow_at_1au(model, 1.0), model.vbar, model.a_spot, model.d_spot,
                         shadow, ellipsoid_radius(TABLE_AST, shadow.theta_va, 0.0)) > 0.0
    for t in np.linspace(0.0, 1e7, 5):
        thrust, growth = model(AT_1AU, t, 0.0)
        assert thrust.eps > 0.0 and growth == 0.0


def test_contamination_monotone():
    """A thicker layer never thrusts or grows more, and a thick enough one
    darkens the spot."""
    model = ThrustModel(DESIGN, TECH, TABLE_AST, GEOM, contamination_on=True, t_reference=0.0)
    samples = [model(AT_1AU, 0.0, h) for h in np.linspace(0.0, 5.0 / ETA_ABS, 50)]
    eps = [thrust.eps for thrust, _ in samples]
    growth = [g for _, g in samples]
    assert all(b <= a for a, b in zip(eps, eps[1:]))
    assert all(b <= a for a, b in zip(growth, growth[1:]))
    assert eps[0] > 0.0 and growth[0] > 0.0
    assert eps[-1] == 0.0 and growth[-1] == 0.0


# ---------------------------------------------------------------------------
# Composed thrust model
# ---------------------------------------------------------------------------

def test_thrust_model_mass_scaling_exact():
    eq = _state()
    big = replace(TABLE_AST, m_a=2.7e10)
    bigger = replace(TABLE_AST, m_a=2.7e11)
    f1, _ = ThrustModel(DESIGN, TECH, big, GEOM, contamination_on=False,
                        t_reference=0.0)(eq, 0.0, 0.0)
    f2, _ = ThrustModel(DESIGN, TECH, bigger, GEOM, contamination_on=False,
                        t_reference=0.0)(eq, 0.0, 0.0)
    assert f2.eps == pytest.approx(f1.eps / 10, rel=1e-12)


def test_thrust_model_reference_magnitude():
    """Full composition at 1 AU lands inside the expected amplitude band."""
    f, _ = ThrustModel(DESIGN, TECH, TABLE_AST, GEOM, contamination_on=False,
                       t_reference=0.0)(AT_1AU, 0.0, 0.0)
    eps_m_s2 = f.eps * 1000.0
    assert 1e-12 <= eps_m_s2 <= 1e-7


def test_thrust_model_contamination_off_keeps_tau_one():
    """With contamination off the layer never grows, so a propagation keeps
    it at 0 and tau at 1."""
    eq = _state()
    model = ThrustModel(DESIGN, TECH, TABLE_AST, GEOM, contamination_on=False, t_reference=0.0)
    for t in np.linspace(0, 1e7, 5):
        thrust, growth = model(eq, t, 0.0)
        assert thrust.eps > 0.0 and growth == 0.0


def test_thrust_model_contamination_decays_thrust():
    """The layer grown over a year at the clean mirror's rate dims the
    thrust."""
    model = ThrustModel(DESIGN, TECH, TABLE_AST, GEOM, contamination_on=True, t_reference=0.0)
    thrust0, growth = model(AT_1AU, 0.0, 0.0)
    assert thrust0.eps > 0.0 and growth > 0.0
    thrust, _ = model(AT_1AU, 3e7, growth * 3e7 * 100.0)  # m -> cm
    assert thrust.eps < thrust0.eps


SCENARIO = REFERENCE
STRUCTURE = evidence_structure(SCENARIO)


@settings(max_examples=200, deadline=None)
@example(a_au=0.9, e=0.2, pomega=1.0, ells=(0.3, 0.4), u=[0.5] * 10, b1=None, d_m=20.0,
         n_sc=10, c_r=3000.0, station=(3000.0, 0.0, 0.0, 0.5 * math.pi, 0.0), h_cond=0.0,
         contamination=True, elapsed=1e4, dt=1e5)  # ablates and grows the layer
@example(a_au=0.9, e=0.2, pomega=1.0, ells=(0.3, 0.4), u=[0.5] * 10, b1=60.0, d_m=20.0,
         n_sc=10, c_r=3000.0, station=(3000.0, 0.0, 0.0, 0.5 * math.pi, 0.0), h_cond=0.0,
         contamination=True, elapsed=1e4, dt=1e5)  # the same on a spinning spheroid
@given(
    a_au=st.floats(0.4, 2.0),
    e=st.floats(0.0, 0.7),
    pomega=st.floats(0.0, 2 * math.pi),
    ells=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
    u=st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10),
    b1=st.one_of(st.none(), st.floats(60.0, 200.0)),  # None keeps the reference sphere
    d_m=st.floats(2.0, 20.0),
    n_sc=st.integers(1, 10),
    c_r=st.floats(1000.0, 3000.0),
    station=st.tuples(st.floats(-500.0, 5000.0), st.floats(-500.0, 500.0),
                      st.floats(-500.0, 500.0), st.floats(0.0, 2 * math.pi),
                      st.floats(0.0, 1.5)),
    h_cond=st.one_of(st.just(0.0), st.floats(0.0, 3.5e-4)),  # tau from 1 to 1e-3
    contamination=st.booleans(),
    elapsed=st.floats(0.0, 3e8),
    dt=st.floats(1.0, 1e7),
)
def test_thrust_model_sample_is_the_composition_of_the_unit_functions(
        a_au, e, pomega, ells, u, b1, d_m, n_sc, c_r, station, h_cond, contamination, elapsed,
        dt):
    """Two samples of a ThrustModel, the first under a drawn layer and the
    second under that layer grown at the first's rate, equal bit for bit,
    thrust and growth rate, the composition of the heliocentric radius,
    ellipsoid_radius, input_power_density, mass_flow_rate,
    ablation_acceleration and plume_density: the constants the model keeps
    per trajectory and the unit functions it writes out change no bit. The
    asteroid is the reference sphere or a drawn spheroid (b1 != a1), whose
    radius under the spot turns with the spin phase."""
    ast, tech = apply_uncertain(SCENARIO, uncertain_dict(STRUCTURE, np.array(u)))
    if b1 is not None:
        ast = replace(ast, b1=b1)
    geom = StationGeometry(*station)
    design = DesignVector(d_m=d_m, n_sc=n_sc, t_warn=2.0, c_r=c_r)
    t_ref = 1e6
    model = ThrustModel(design, tech, ast, geom, contamination_on=contamination,
                        t_reference=t_ref)
    eq1, eq2 = (EquinoctialState(a_au * AU_KM, e * math.sin(pomega), e * math.cos(pomega),
                                 0.0, 0.0, ell) for ell in ells)
    t1 = t_ref + elapsed
    t2 = t1 + dt
    want = oracles.thrust_sample(design, tech, ast, geom, contamination, eq1, t1 - t_ref, h_cond)
    assert model(eq1, t1, h_cond) == want
    assert want[1] >= 0.0 and (contamination or want[1] == 0.0)
    h_cond += want[1] * (t2 - t1) * 100.0
    want = oracles.thrust_sample(design, tech, ast, geom, contamination, eq2, t2 - t_ref, h_cond)
    assert model(eq2, t2, h_cond) == want


# ---------------------------------------------------------------------------
# Dark-orbit certificate
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@example(a_au=1.0, e=0.0, pomega=0.0, b1=60.0, d_m=5.0, n_sc=6, c_r=1000.0, t_sub=1700.0,
         preheat_s=398110.0, ells=[0.0] * 4, spins=[0.0] * 4)  # the layer darkens the spot
@given(
    a_au=st.floats(0.6, 3.0),
    e=st.one_of(st.just(0.0), st.floats(0.0, 1e-9), st.floats(0.0, 0.7)),
    pomega=st.floats(0.0, 2 * math.pi),
    b1=st.floats(60.0, 200.0),
    d_m=st.floats(2.0, 20.0),
    n_sc=st.integers(1, 10),
    c_r=st.floats(1000.0, 3000.0),
    t_sub=st.floats(1700.0, 1812.0),
    preheat_s=st.one_of(st.none(), st.floats(1e2, 1e6)),
    ells=st.lists(st.floats(0.0, 2 * math.pi), min_size=4, max_size=4),
    spins=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
)
def test_certify_dark_is_sound(a_au, e, pomega, b1, d_m, n_sc, c_r, t_sub, preheat_s,
                               ells, spins):
    """Where the model certifies an orbit dark, the sampled model returns
    exactly zero thrust on it: at its perihelion and at random longitudes,
    at the slowest spin phase of the ellipsoid and at random ones. With
    ``preheat_s`` the layer is the one a propagation with contamination on
    leaves after sampling at 0.4 AU at the start and after ``preheat_s``
    (tau below 1), then once at 6 AU, where nothing ablates and the layer
    stops growing; the certificate and the samples read that layer."""
    near = keplerian_to_equinoctial(KeplerianElements(0.4 * AU_KM, 0.0, 0.0, 0.0, 0.0, 0.0))
    ast = replace(TABLE_AST, b1=b1, t_subl=t_sub)
    design = DesignVector(d_m=d_m, n_sc=n_sc, t_warn=8.0, c_r=c_r)
    model = ThrustModel(design, TECH, ast, GEOM, contamination_on=preheat_s is not None,
                        t_reference=0.0)
    t = h = 0.0
    if preheat_s is not None:
        far = keplerian_to_equinoctial(KeplerianElements(6.0 * AU_KM, 0.0, 0.0, 0.0, 0.0, 0.0))
        thrust, growth = model(near, 0.0, h)
        assert thrust.eps > 0.0
        h += growth * preheat_s * 100.0
        _, growth = model(near, preheat_s, h)
        h += growth * 1.0 * 100.0
        thrust, growth = model(far, preheat_s + 1.0, h)
        assert thrust.eps == 0.0 and growth == 0.0
        assert h > 0.0
        t = preheat_s + 1.0
    orbit = keplerian_to_equinoctial(KeplerianElements(a_au * AU_KM, e, 0.0, 0.0, pomega, 0.0))
    if model.dark_until(orbit, h) != math.inf:
        return
    quarter_turn = 0.5 * math.pi / ast.omega_a
    perihelion = math.atan2(orbit.p1, orbit.p2)
    for ell, spin in zip([perihelion] + ells, [0.0] + spins):
        for phase in (2.0 * quarter_turn, 3.0 * quarter_turn, spin * 4.0 * quarter_turn):
            t += 4.0 * quarter_turn
            assert model(replace(orbit, ell=ell), t + phase, h)[0].eps == 0.0


@pytest.mark.parametrize("e, b1", [(0.0, 135.0), (0.3, 90.0)])
def test_certify_dark_is_sound_at_its_edge(e, b1):
    """Bisected to the edge of the certified orbits, the nearest certified
    orbit is dark at its perihelion at the slowest spin phase, and an orbit
    1e-7 nearer ablates there: the margin is tight as well as safe."""
    model = ThrustModel(DESIGN, TECH, replace(TABLE_AST, b1=b1), GEOM, contamination_on=False,
                        t_reference=0.0)

    def at_perihelion(a_au):  # true longitude 0; spin phase 0 shows the b1 radius
        return keplerian_to_equinoctial(KeplerianElements(a_au * AU_KM, e, 0.0, 0.0, 0.0, 0.0))

    lo, hi = 0.2, 20.0
    assert model.dark_until(at_perihelion(lo), 0.0) != math.inf
    assert model.dark_until(at_perihelion(hi), 0.0) == math.inf
    while hi / lo - 1.0 > 1e-13:
        mid = math.sqrt(lo * hi)
        lo, hi = (lo, mid) if model.dark_until(at_perihelion(mid), 0.0) == math.inf else (mid, hi)
    assert model(at_perihelion(hi), 0.0, 0.0)[0].eps == 0.0
    assert model(at_perihelion(lo * (1.0 - 1e-7)), 0.0, 0.0)[0].eps > 0.0


def _dark_edge_au(model):
    """Semi-major axis [AU] of the nearest circular orbit the model
    certifies dark, bisected to 1e-13 relative."""
    lo, hi = 0.05, 50.0
    while hi / lo - 1.0 > 1e-13:
        mid = math.sqrt(lo * hi)
        orbit = keplerian_to_equinoctial(KeplerianElements(mid * AU_KM, 0.0, 0.0, 0.0, 0.0, 0.0))
        lo, hi = (lo, mid) if model.dark_until(orbit, 0.0) == math.inf else (mid, hi)
    return hi


@settings(max_examples=200, deadline=None)
@given(
    scale=st.floats(0.85, 0.97),
    e=st.floats(0.1, 0.7),
    pomega=st.floats(0.0, 2 * math.pi),
    radius=st.floats(60.0, 200.0),
    d_m=st.floats(2.0, 20.0),
    n_sc=st.integers(1, 10),
    c_r=st.floats(1000.0, 3000.0),
    ell0=st.floats(0.0, 6 * math.pi),
    spin=st.floats(0.0, 1.0),
)
def test_dark_until_is_tight(scale, e, pomega, radius, d_m, n_sc, c_r, ell0, spin):
    """Just past the longitude ``dark_until`` returns, the sampled model
    ablates: 1e-6 rad past it, on a sphere, whose every spin phase is the
    slowest. The soundness tests cannot see a dark range that ends too
    early. The perihelia lie 3-15% inside the edge of the certified circular
    orbits, the aphelia outside it. Asked again at that longitude, where the
    radius and the angles round either way, it returns no more than that
    longitude."""
    ast = replace(TABLE_AST, a1=radius, b1=radius)
    model = ThrustModel(DesignVector(d_m=d_m, n_sc=n_sc, t_warn=8.0, c_r=c_r), TECH, ast, GEOM,
                        contamination_on=False, t_reference=0.0)
    a = scale * _dark_edge_au(model) * AU_KM / (1.0 - e)
    probe = replace(keplerian_to_equinoctial(KeplerianElements(a, e, 0.0, 0.0, pomega, 0.0)),
                    ell=ell0)
    ell_dark = model.dark_until(probe, 0.0)
    assert ell0 <= ell_dark < ell0 + 2.0 * math.pi
    t = spin * 2.0 * math.pi / ast.omega_a
    assert model(replace(probe, ell=ell_dark + 1e-6), t, 0.0)[0].eps > 0.0
    # a state at the returned longitude, or a few units in the last place
    # past it, is at the end of its dark range, not a turn before the next
    ell = ell_dark
    for _ in range(4):
        assert model.dark_until(replace(probe, ell=ell), 0.0) - ell < 1e-6
        ell = math.nextafter(ell, math.inf)


DL_MAX = REFERENCE.arc_control.dl_max


@settings(max_examples=200, deadline=None)
@given(
    scale=st.floats(0.8, 1.4),
    e=st.one_of(st.just(0.0), st.floats(0.0, 0.7)),
    pomega=st.floats(0.0, 2 * math.pi),
    b1=st.floats(60.0, 200.0),
    d_m=st.floats(2.0, 20.0),
    n_sc=st.integers(1, 10),
    c_r=st.floats(1000.0, 3000.0),
    ell0=st.floats(0.0, 6 * math.pi),
    log_periods=st.floats(-3.0, 0.2),
    spins=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
)
def test_certify_dark_is_sound_over_its_range(scale, e, pomega, b1, d_m, n_sc, c_r, ell0,
                                              log_periods, spins):
    """Where the model certifies the longitudes from a probe to half a
    capped arc past the two-body longitude at t_end dark, dense thrust
    samples along that Keplerian arc, its perihelia included, are exactly
    zero at both extreme spin phases and at random ones. The orbits straddle
    the edge of the circular orbits the model certifies, and the flights
    to t_end span 1e-3 to 1.6 periods, so that the perihelion often ablates
    while the range leaves it out (about a fifth of the draws)."""
    ast = replace(TABLE_AST, b1=b1)
    model = ThrustModel(DesignVector(d_m=d_m, n_sc=n_sc, t_warn=8.0, c_r=c_r), TECH, ast, GEOM,
                        contamination_on=False, t_reference=0.0)
    a = scale * _dark_edge_au(model) * AU_KM
    orbit = keplerian_to_equinoctial(KeplerianElements(a, e, 0.0, 0.0, pomega, 0.0))
    probe = replace(orbit, ell=ell0)
    period = 2.0 * math.pi * math.sqrt(a**3 / MU_SUN)
    ell_end = propagate_keplerian(probe, probe.t + 10.0**log_periods * period, MU_SUN).ell + 0.5 * DL_MAX
    if not ell_end < model.dark_until(probe, 0.0):
        return
    perihelion = math.atan2(orbit.p1, orbit.p2)
    perihelia = perihelion + 2.0 * math.pi * np.arange(
        math.ceil((ell0 - perihelion) / (2.0 * math.pi)),
        math.floor((ell_end - perihelion) / (2.0 * math.pi)) + 1,
    )
    quarter_turn = 0.5 * math.pi / ast.omega_a
    t = 0.0
    for k, ell in enumerate([*np.linspace(ell0, ell_end, 400), *perihelia]):
        # phases 0 and one quarter turn show the b1 and a1 radii
        for phase in (0.0, quarter_turn, spins[k % 4] * 4.0 * quarter_turn):
            t += 4.0 * quarter_turn
            assert model(replace(probe, ell=float(ell)), t + phase, 0.0)[0].eps == 0.0


@pytest.mark.parametrize("start, end, certified", [
    (3e-3, 2 * math.pi - 3e-3, True),  # the perihelion just outside both ends
    (-3e-3, math.pi, False),  # just inside at the start
    (3e-3, 2 * math.pi + 3e-3, False),  # the next one just inside at the end
])
def test_certify_dark_range_at_the_perihelion(start, end, certified):
    """An orbit whose perihelion ablates, 1e-7 nearer the Sun than the edge
    of the certified circular orbits, while the longitudes 3e-3 rad either
    side of it are dark: a range of longitudes (offsets from the perihelion,
    several turns along the unwrapped longitude) is certified exactly when
    it leaves the perihelion out."""
    model = ThrustModel(DESIGN, TECH, TABLE_AST, GEOM, contamination_on=False, t_reference=0.0)
    e, pomega, turns = 0.3, 2.0, 6 * math.pi
    a = _dark_edge_au(model) * AU_KM * (1.0 - 1e-7) / (1.0 - e)
    orbit = keplerian_to_equinoctial(KeplerianElements(a, e, 0.0, 0.0, pomega, 0.0))
    at = lambda offset: replace(orbit, ell=pomega + turns + offset)  # noqa: E731
    assert model(at(0.0), 0.0, 0.0)[0].eps > 0.0  # spin phase 0 shows the b1 radius
    assert model(at(-3e-3), 0.0, 0.0)[0].eps == 0.0
    assert model(at(3e-3), 0.0, 0.0)[0].eps == 0.0
    assert model.dark_until(at(start), 0.0) != math.inf
    assert (pomega + turns + end < model.dark_until(at(start), 0.0)) is certified
