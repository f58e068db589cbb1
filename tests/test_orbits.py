"""Element conversions, Kepler machinery, Gauss rates and b-plane geometry."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neodeflect.constants import MU_SUN, AU_KM
from neodeflect import orbits
from neodeflect.orbits import (
    DegenerateBPlaneError,
    EquinoctialState,
    KeplerianElements,
    ThrustRTN,
    bplane_normal,
    bplane_offset,
    equinoctial_to_cartesian,
    gauss_rhs,
    kepler_start,
    kepler_time_of_flight,
    keplerian_to_equinoctial,
    propagate_keplerian,
)

import oracles
from oracles import equinoctial_to_keplerian, impact_parameter

MU = MU_SUN


def random_keplerian(rng):
    return KeplerianElements(
        a=rng.uniform(0.3, 5.0) * AU_KM,
        e=rng.uniform(0.0, 0.95),
        i=rng.uniform(0.0, 3.0),
        raan=rng.uniform(0.0, 2 * math.pi),
        argp=rng.uniform(0.0, 2 * math.pi),
        theta=rng.uniform(0.0, 2 * math.pi),
    )


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------

def test_circular_equatorial_forward():
    eq = keplerian_to_equinoctial(KeplerianElements(1.0, 0.0, 0.0, 0.0, 0.0, 0.3))
    assert eq.a == 1.0
    assert eq.p1 == eq.p2 == eq.q1 == eq.q2 == 0.0
    assert eq.ell == pytest.approx(0.3, abs=1e-15)


def test_forward_quarter_turn_periapsis():
    eq = keplerian_to_equinoctial(
        KeplerianElements(1.0, 0.2, 0.0, 0.0, math.pi / 2, 0.0)
    )
    assert eq.p1 == pytest.approx(0.2, abs=1e-15)
    assert eq.p2 == pytest.approx(0.0, abs=1e-15)
    assert eq.q1 == eq.q2 == 0.0
    assert eq.ell == pytest.approx(math.pi / 2)


def test_inverse_trivial():
    kep = equinoctial_to_keplerian(EquinoctialState(1.0, 0.0, 0.0, 0.0, 0.0, 1.0))
    assert kep.e == 0.0
    assert kep.i == 0.0
    assert (kep.raan + kep.argp + kep.theta) % (2 * math.pi) == pytest.approx(1.0)


def test_inverse_p1_only():
    kep = equinoctial_to_keplerian(EquinoctialState(1.0, 0.1, 0.0, 0.0, 0.0, 2.0))
    assert kep.e == pytest.approx(0.1)
    assert (kep.raan + kep.argp) % (2 * math.pi) == pytest.approx(math.pi / 2)


def test_rejects_hyperbolic_and_polar_singularity():
    with pytest.raises(ValueError):
        KeplerianElements(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        keplerian_to_equinoctial(KeplerianElements(1.0, 0.1, math.pi, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        EquinoctialState(1.0, 0.8, 0.7, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        EquinoctialState(0.0, 0.1, 0.1, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        EquinoctialState(-1.0, 0.1, 0.1, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ThrustRTN(-1e-12)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(0.3, 5.0),
    e=st.floats(0.0, 0.95),
    i=st.floats(0.0, 3.0),
    raan=st.floats(0.0, 2 * math.pi, exclude_max=True),
    argp=st.floats(0.0, 2 * math.pi, exclude_max=True),
    theta=st.floats(0.0, 2 * math.pi, exclude_max=True),
)
def test_roundtrip_identity(a, e, i, raan, argp, theta):
    kep = KeplerianElements(a * AU_KM, e, i, raan, argp, theta)
    eq = keplerian_to_equinoctial(kep)
    back = equinoctial_to_keplerian(eq)
    assert back.a == pytest.approx(kep.a, rel=1e-12)
    assert back.e == pytest.approx(kep.e, abs=1e-12)
    assert back.i == pytest.approx(kep.i, abs=1e-12)
    # Individual angles are ambiguous at e=0 / i=0; the composed longitude
    # is the invariant quantity.
    l_in = (raan + argp + theta) % (2 * math.pi)
    l_out = (back.raan + back.argp + back.theta) % (2 * math.pi)
    assert math.cos(l_in - l_out) == pytest.approx(1.0, abs=1e-9)
    assert math.sin(l_in - l_out) == pytest.approx(0.0, abs=1e-9)
    # And the equinoctial elements round-trip exactly
    eq2 = keplerian_to_equinoctial(back)
    for name in ("a", "p1", "p2", "q1", "q2"):
        assert getattr(eq2, name) == pytest.approx(getattr(eq, name), abs=1e-12)


def test_cartesian_matches_classical_chain():
    rng = np.random.default_rng(7)
    for _ in range(50):
        kep = random_keplerian(rng)
        eq = keplerian_to_equinoctial(kep)
        r1, v1 = equinoctial_to_cartesian(eq, MU)
        r2, v2 = oracles.kep_to_cartesian_classical(kep, MU)
        np.testing.assert_allclose(r1, r2, rtol=1e-10, atol=1e-6)
        np.testing.assert_allclose(v1, v2, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# Kepler time of flight and epoch propagation
# ---------------------------------------------------------------------------

def test_time_of_flight_full_revolution_is_period():
    rng = np.random.default_rng(3)
    for _ in range(20):
        kep = random_keplerian(rng)
        eq = keplerian_to_equinoctial(kep)
        period = 2 * math.pi * math.sqrt(eq.a**3 / MU)
        tof = kepler_time_of_flight(eq, 2 * math.pi, kepler_start(eq, MU))
        assert tof == pytest.approx(period, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    e=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
    pomega=st.floats(0.0, 2 * math.pi),
    ell=st.floats(-50.0, 50.0),
    dl=st.one_of(st.just(2 * math.pi), st.just(1e-12), st.floats(1e-9, 2 * math.pi)),
)
def test_carried_start_time_of_flight_is_bit_identical(e, pomega, ell, dl):
    """The time of flight from a start solved once has the bits of the
    per-call reference, and the start moved past a coasting arc equals
    one solved afresh there."""
    eq = EquinoctialState(
        a=1.2 * AU_KM, p1=e * math.sin(pomega), p2=e * math.cos(pomega),
        q1=0.01, q2=-0.02, ell=ell, t=0.0,
    )
    carried = kepler_start(eq, MU)
    tof = oracles.kepler_time_of_flight_reference(eq, dl, MU)
    assert kepler_time_of_flight(eq, dl, carried) == tof

    end = EquinoctialState(
        a=eq.a, p1=eq.p1, p2=eq.p2, q1=eq.q1, q2=eq.q2, ell=eq.ell + dl, t=eq.t + tof,
    )
    fresh = kepler_start(end, MU)
    carried.lam = carried.mean_longitude(end.ell)  # moved past the coasting arc
    assert (carried.n, carried.e, carried.pomega, carried.root, carried.lam) == (
        fresh.n, fresh.e, fresh.pomega, fresh.root, fresh.lam,
    )
    assert kepler_time_of_flight(end, 0.3, carried) == (
        oracles.kepler_time_of_flight_reference(end, 0.3, MU)
    )


def test_propagate_keplerian_against_cartesian_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        kep = random_keplerian(rng)
        eq = keplerian_to_equinoctial(kep)
        r0, v0 = oracles.kep_to_cartesian_classical(kep, MU)
        dt = rng.uniform(0.05, 2.0) * 2 * math.pi * math.sqrt(eq.a**3 / MU)
        sol = oracles.propagate_cartesian(r0, v0, MU, dt)
        eq1 = propagate_keplerian(eq, eq.t + dt, MU)
        r1, v1 = equinoctial_to_cartesian(eq1, MU)
        np.testing.assert_allclose(r1, sol.y[:3, -1], rtol=1e-8, atol=1e-3)
        np.testing.assert_allclose(v1, sol.y[3:, -1], rtol=1e-8, atol=1e-9)


def test_propagate_keplerian_backward_in_time():
    eq = replace(keplerian_to_equinoctial(
        KeplerianElements(AU_KM, 0.2, 0.1, 1.0, 2.0, 0.5)
    ), t=1000.0)
    back = propagate_keplerian(eq, 0.0, MU)
    again = propagate_keplerian(back, 1000.0, MU)
    assert math.cos(again.ell - eq.ell) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Gauss variational rates
# ---------------------------------------------------------------------------

def test_gauss_rhs_zero_thrust_keplerian_rate():
    rng = np.random.default_rng(5)
    for _ in range(20):
        eq = keplerian_to_equinoctial(random_keplerian(rng))
        rates = gauss_rhs(eq, ThrustRTN(0.0), MU)
        assert np.all(rates[:5] == 0.0)
        p = eq.semi_latus()
        h = math.sqrt(MU * p)
        r = eq.radius()
        assert rates[5] == pytest.approx(h / r**2, rel=1e-14)


def test_gauss_rhs_circular_transversal_da():
    a = 1.2 * AU_KM
    eq = keplerian_to_equinoctial(KeplerianElements(a, 0.0, 0.0, 0.0, 0.0, 0.7))
    eps = 1e-10
    rates = gauss_rhs(eq, ThrustRTN(eps, alpha=math.pi / 2), MU)
    assert rates[0] == pytest.approx(2 * eps * math.sqrt(a**3 / MU), rel=1e-12)


def test_gauss_rhs_matches_cartesian_finite_difference():
    """Central finite difference of osculating elements along a thrusted
    Cartesian propagation must reproduce the variational rates."""
    rng = np.random.default_rng(42)
    for _ in range(12):
        kep = random_keplerian(rng)
        # keep away from the extremes where element differencing gets stiff
        kep = KeplerianElements(kep.a, min(kep.e, 0.8), min(kep.i, 2.8),
                                kep.raan, kep.argp, kep.theta)
        eq = keplerian_to_equinoctial(kep)
        # The rates are exactly linear in eps, so validate the formulas at a
        # thrust level large enough for the finite-difference signal to sit
        # well above the oracle's integration noise.
        eps = 10 ** rng.uniform(-7.5, -7.0)
        alpha = rng.uniform(0, 2 * math.pi)
        thrust = ThrustRTN(eps, alpha)
        rates = gauss_rhs(eq, thrust, MU)

        r0, v0 = oracles.kep_to_cartesian_classical(kep, MU)
        f_rtn = (eps * math.cos(alpha), eps * math.sin(alpha), 0.0)
        dt = 150.0

        def osculating(t_span):
            sol = oracles.propagate_cartesian(
                r0, v0, MU, t_span, thrust_rtn=lambda t, r, v: f_rtn,
                rtol=3e-14, atol=[1e-10] * 3 + [1e-16] * 3,
            )
            r_c, v_c = sol.y[:3, -1], sol.y[3:, -1]
            kep_c = oracles.cartesian_to_keplerian(r_c, v_c, MU)
            eq_c = keplerian_to_equinoctial(kep_c)
            return np.array([eq_c.a, eq_c.p1, eq_c.p2, eq_c.q1, eq_c.q2])

        num = (osculating(dt) - osculating(-dt)) / (2 * dt)
        scale = np.array([eq.a, 1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(
            rates[:5] / scale, num / scale, rtol=1e-6, atol=1e-15
        )


# ---------------------------------------------------------------------------
# b-plane
# ---------------------------------------------------------------------------

def _states_at_impact():
    ast = replace(keplerian_to_equinoctial(
        KeplerianElements(0.92 * AU_KM, 0.19, 0.05, 3.5, 2.2, 1.0)
    ), t=100.0)
    earth = replace(keplerian_to_equinoctial(
        KeplerianElements(AU_KM, 0.0, 0.0, 0.0, 0.0, 2.0)
    ), t=100.0)
    return ast, earth


def test_impact_parameter_zero_for_undeviated():
    ast, earth = _states_at_impact()
    assert impact_parameter(ast, ast, earth, 100.0, MU) == 0.0


def test_bplane_projection_geometry():
    v_inf = np.array([3.0, -1.0, 0.5])
    v_hat = bplane_normal(v_inf)
    # parallel offset is annihilated
    b_vec = bplane_offset(1234.5 * v_hat, v_hat)
    assert np.linalg.norm(b_vec) == pytest.approx(0.0, abs=1e-9)
    # perpendicular offset passes through at full length
    d_perp = np.cross(v_hat, [0.0, 0.0, 1.0])
    d_perp = 321.0 * d_perp / np.linalg.norm(d_perp)
    b_vec = bplane_offset(d_perp, v_hat)
    b = np.linalg.norm(b_vec)
    assert b == pytest.approx(321.0, rel=1e-12)
    assert abs(np.dot(b_vec, v_inf)) <= 1e-9 * b * np.linalg.norm(v_inf)


def test_bplane_orthogonality_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        d = rng.normal(size=3) * 1e5
        v = rng.normal(size=3) * 10.0
        b_vec = bplane_offset(d, bplane_normal(v))
        b = np.linalg.norm(b_vec)
        assert abs(np.dot(b_vec, v)) <= 1e-9 * max(b, 1e-30) * np.linalg.norm(v)


def test_degenerate_bplane_raises():
    with pytest.raises(DegenerateBPlaneError):
        bplane_normal(np.zeros(3))


def test_impact_parameter_epoch_mismatch_rejected():
    ast, earth = _states_at_impact()
    with pytest.raises(ValueError):
        impact_parameter(ast, ast, earth, 5000.0, MU)
