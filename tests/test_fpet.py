"""Arc-wise analytic propagation: exactness, first-order scaling, arc law."""
import bisect
import dataclasses
import functools
import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from neodeflect import fpet
from neodeflect.ablation import ThrustModel
from neodeflect.cli import parse_design
from neodeflect.constants import MU_SUN, AU_KM
from neodeflect.fpet import (
    ArcControl,
    ArcOverflowError,
    _first_order_terms,
    fpet_step,
    propagate_trajectory,
)
from neodeflect.orbits import (
    EquinoctialState,
    KeplerianElements,
    ThrustRTN,
    equinoctial_to_cartesian,
    gauss_rhs,
    kepler_start,
    keplerian_to_equinoctial,
    propagate_keplerian,
)
from neodeflect.mission import (
    evidence_structure,
    load_scenario,
    make_model,
    reference_scenario_path,
)
from neodeflect.sizing import DesignVector

import oracles
from conftest import REFERENCE
from test_behaviour_lock import LOCKED_EVALUATIONS

MU = MU_SUN
ARC_CONTROL = REFERENCE.arc_control  # the shipped arc-length law

APOPHIS_LIKE = KeplerianElements(
    a=0.9224 * AU_KM, e=0.191, i=0.0581, raan=3.568, argp=2.206, theta=0.8
)


def _deviation_vs_oracle(eq0, thrust, dl_total, n_arcs):
    """Propagate with fixed arcs and return per-element errors vs the
    Cartesian oracle, scaled by the semi-major axis where dimensional."""
    eq = eq0
    dl = dl_total / n_arcs
    for _ in range(n_arcs):
        eq = fpet_step(eq, dl, thrust, MU, kepler_start(eq, MU))

    f_rtn = tuple(oracles.rtn_vector(thrust))
    r0, v0 = oracles.equinoctial_state_to_cartesian_classical(eq0, MU)
    sol = oracles.propagate_cartesian(
        r0, v0, MU, eq.t - eq0.t, thrust_rtn=lambda t, r, v: f_rtn,
        rtol=3e-14, atol=[1e-10] * 3 + [1e-16] * 3,
    )
    kep_ref = oracles.cartesian_to_keplerian(sol.y[:3, -1], sol.y[3:, -1], MU)
    eq_ref = keplerian_to_equinoctial(kep_ref)
    err = np.array(
        [
            (eq.a - eq_ref.a) / eq0.a,
            eq.p1 - eq_ref.p1,
            eq.p2 - eq_ref.p2,
            eq.q1 - eq_ref.q1,
            eq.q2 - eq_ref.q2,
        ]
    )
    return err


# ---------------------------------------------------------------------------
# Zero-thrust exactness
# ---------------------------------------------------------------------------

def test_zero_thrust_step_is_keplerian():
    eq0 = keplerian_to_equinoctial(APOPHIS_LIKE)
    dl = 0.7
    eq1 = fpet_step(eq0, dl, ThrustRTN(0.0), MU, kepler_start(eq0, MU))
    assert (eq1.a, eq1.p1, eq1.p2, eq1.q1, eq1.q2) == (
        eq0.a, eq0.p1, eq0.p2, eq0.q1, eq0.q2,
    )
    assert eq1.ell == eq0.ell + dl
    # epoch advance equals the two-body time of flight from the oracle
    r0, v0 = oracles.equinoctial_state_to_cartesian_classical(eq0, MU)
    sol = oracles.propagate_cartesian(r0, v0, MU, eq1.t - eq0.t)
    r1, _ = equinoctial_to_cartesian(eq1, MU)
    np.testing.assert_allclose(sol.y[:3, -1], r1, rtol=1e-10, atol=1e-3)


def test_zero_thrust_ten_revolutions_preserves_elements():
    eq = keplerian_to_equinoctial(APOPHIS_LIKE)
    eq0 = eq
    period = 2 * math.pi * math.sqrt(eq.a**3 / MU)
    ctrl = ArcControl(a_const=0.1, k_const=2.0, dl_max=0.4)
    traj = propagate_trajectory(
        eq, lambda s, t, h: (ThrustRTN(0.0), 0.0), eq.t + 10 * period, ctrl, MU
    )
    final = traj.final
    assert final.a == pytest.approx(eq0.a, rel=1e-12)
    for name in ("p1", "p2", "q1", "q2"):
        assert getattr(final, name) == pytest.approx(getattr(eq0, name), abs=1e-12)
    # closure: ten revolutions of true longitude in ten periods
    assert final.t == pytest.approx(eq0.t + 10 * period, abs=1.0)
    assert final.ell == pytest.approx(eq0.ell + 20 * math.pi, abs=1e-6)


# ---------------------------------------------------------------------------
# Node-by-node kernel against the array oracle, bit for bit
# ---------------------------------------------------------------------------

def _arc_state(a_au, e, i, pomega, raan, ell, t):
    return EquinoctialState(
        a=a_au * AU_KM, p1=e * math.sin(pomega), p2=e * math.cos(pomega),
        q1=math.tan(0.5 * i) * math.sin(raan), q2=math.tan(0.5 * i) * math.cos(raan),
        ell=ell, t=t,
    )


def _assert_step_matches_oracle(eq, dl, thrust):
    # the first-order terms themselves, at every node: in the end state
    # most of their low bits vanish into the much larger elements and epoch
    assert _first_order_terms(eq, dl, thrust, MU) == oracles.first_order_terms_numpy(
        eq, dl, thrust, MU
    )
    try:
        want = oracles.fpet_step_numpy(eq, dl, thrust, MU)
    except ValueError:  # thrust strong enough to leave the elliptic domain
        with pytest.raises(ValueError):
            fpet_step(eq, dl, thrust, MU, kepler_start(eq, MU))
        return
    assert fpet_step(eq, dl, thrust, MU, kepler_start(eq, MU)) == want


angles = st.floats(0.0, 2 * math.pi)


@settings(max_examples=300, deadline=None)
@given(
    a_au=st.floats(0.3, 5.0),
    e=st.one_of(st.just(0.0), st.just(1e-16), st.floats(0.0, 0.95)),
    i=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    pomega=angles, raan=angles,
    ell=st.floats(-50.0, 50.0),
    t=st.one_of(st.just(0.0), st.floats(-1e9, 1e9)),
    dl=st.one_of(st.just(2 * math.pi), st.just(1e-12), st.floats(1e-9, 2 * math.pi)),
    log_ratio=st.one_of(st.none(), st.floats(-12.0, -0.5)),
    alpha=st.floats(-math.pi, math.pi),
)
def test_fpet_step_equals_array_oracle(a_au, e, i, pomega, raan, ell, t, dl, log_ratio,
                                       alpha):
    """Thrust from zero up to a third of the local gravity, where the
    first-order terms carry most bits of the end state."""
    eq = _arc_state(a_au, e, i, pomega, raan, ell, t)
    eps = 0.0 if log_ratio is None else 10.0**log_ratio * MU / eq.a**2
    _assert_step_matches_oracle(eq, dl, ThrustRTN(eps, alpha))


@pytest.mark.parametrize("e", [0.0, 0.191])
@pytest.mark.parametrize("i", [0.0, 0.0581])
@pytest.mark.parametrize("eps", [0.0, 1e-10])
@pytest.mark.parametrize("dl", [1e-12, 0.05, 2 * math.pi])
def test_fpet_step_equals_array_oracle_at_edges(e, i, eps, dl):
    """Circular (the e < 1e-15 branch) and equatorial orbits, coasting
    arcs, and the shortest and longest arcs."""
    eq = _arc_state(0.9224, e, i, 2.206, 3.568, 0.8, 1e7)
    _assert_step_matches_oracle(eq, dl, ThrustRTN(eps, 1.1))


near_zero = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e-6, 1e-6))


@settings(max_examples=200, deadline=None)
@given(
    a_au=st.floats(0.3, 5.0),
    e=st.floats(0.0, 0.9),
    pomega=angles,
    ell=st.floats(-50.0, 50.0),
    dl=st.one_of(st.just(2 * math.pi), st.floats(1e-6, 2 * math.pi)),
    q1=near_zero, q2=near_zero,
    log_ratio=st.one_of(st.none(), st.floats(-12.0, -3.0)),
    alpha=st.floats(-math.pi, math.pi),
)
def test_near_equatorial_step_is_continuous_at_q_zero(a_au, e, pomega, ell, dl, q1, q2,
                                                      log_ratio, alpha):
    """As the inclination goes to zero (q1, q2 -> 0), ``fpet_step`` and
    ``equinoctial_to_cartesian`` stay finite and tend to their equatorial
    values. The orbit plane is tilted by an angle of 2|q| to first order, so
    position and velocity move by at most about 2|q| of their size; the
    in-plane thrust's first-order time term does not see the plane, so the
    epoch of an arc does not move."""
    eq = _arc_state(a_au, e, 0.0, pomega, 0.0, ell, 1e7)
    flat, eq = eq, dataclasses.replace(eq, q1=q1, q2=q2)
    eps = 0.0 if log_ratio is None else 10.0**log_ratio * MU / eq.a**2
    thrust = ThrustRTN(eps, alpha)
    q = math.hypot(q1, q2)
    for start, flat_start in ((eq, flat), (fpet_step(eq, dl, thrust, MU, kepler_start(eq, MU)),
                                           fpet_step(flat, dl, thrust, MU, kepler_start(flat, MU)))):
        assert all(math.isfinite(x) for x in dataclasses.astuple(start))
        assert start.t == flat_start.t
        for tilted, level in zip(equinoctial_to_cartesian(start, MU),
                                 equinoctial_to_cartesian(flat_start, MU)):
            assert np.all(np.isfinite(tilted))
            size = np.linalg.norm(level)
            assert np.linalg.norm(tilted - level) <= (2.5 * q + 1e-12) * size


# ---------------------------------------------------------------------------
# The orbit plane under in-plane thrust
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("contamination", [False, True], ids=["off", "on"])
def test_the_ablation_thrust_keeps_the_orbit_plane(contamination):
    """``ThrustModel`` pushes along the heliocentric velocity, in the orbit
    plane: every state of a thrusting trajectory has the start's Q1 and Q2,
    bit for bit."""
    scenario, _ = _scenario_and_structure()
    model = make_model(scenario, "deterministic", contamination)
    eq0, thrust = model.deflection_start(parse_design("20,10,8,3000"), scenario.fixed_uncertain)
    traj = propagate_trajectory(eq0, thrust, scenario.t_impact, scenario.arc_control, scenario.mu)
    assert any(traj.eps_history)
    plane = (eq0.q1.hex(), eq0.q2.hex())
    assert all((state.q1.hex(), state.q2.hex()) == plane for state in traj.states)


@settings(max_examples=200, deadline=None)
@given(
    a_au=st.floats(0.3, 5.0),
    e=st.floats(0.0, 0.9),
    i=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    pomega=angles,
    raan=st.floats(-math.pi, math.pi),
    ell=st.floats(-50.0, 50.0),
    dl=st.floats(1e-9, 2 * math.pi),
    log_ratio=st.floats(-12.0, -4.0),
    alpha=st.floats(-math.pi, math.pi),
)
# an equatorial orbit whose node lies in (-pi, 0): Q1 is -0.0
@example(a_au=0.9224, e=0.191, i=0.0, pomega=2.206, raan=-1.0, ell=0.8, dl=0.05,
         log_ratio=-6.0, alpha=1.1)
def test_in_plane_thrust_keeps_the_orbit_plane(a_au, e, i, pomega, raan, ell, dl, log_ratio,
                                               alpha):
    """Under an in-plane thrust ``gauss_rhs`` has dQ1 = dQ2 = 0.0 and dL/dt
    the Keplerian h/r^2, and ``fpet_step`` carries Q1 and Q2 over bit for
    bit, a signed zero included."""
    eq = _arc_state(a_au, e, i, pomega, raan, ell, 1e7)
    thrust = ThrustRTN(10.0**log_ratio * MU / eq.a**2, alpha)
    rates = gauss_rhs(eq, thrust, MU)
    assert (rates[3].hex(), rates[4].hex()) == ((0.0).hex(), (0.0).hex())
    assert rates[5] == math.sqrt(MU * eq.semi_latus()) / eq.radius()**2
    nxt = fpet_step(eq, dl, thrust, MU, kepler_start(eq, MU))
    assert (nxt.q1.hex(), nxt.q2.hex()) == (eq.q1.hex(), eq.q2.hex())


# ---------------------------------------------------------------------------
# First-order structure
# ---------------------------------------------------------------------------

def test_doubling_eps_doubles_deviation_to_first_order():
    eq0 = keplerian_to_equinoctial(APOPHIS_LIKE)
    dl = 0.5
    kep = fpet_step(eq0, dl, ThrustRTN(0.0), MU, kepler_start(eq0, MU))
    base = np.array([kep.a, kep.p1, kep.p2, kep.q1, kep.q2, kep.t])

    def deviation(eps):
        s = fpet_step(eq0, dl, ThrustRTN(eps, 1.1), MU, kepler_start(eq0, MU))
        return np.array([s.a, s.p1, s.p2, s.q1, s.q2, s.t]) - base

    eps = 1e-9
    d1 = deviation(eps)
    d2 = deviation(2 * eps)
    # the first-order terms are exactly linear in eps by construction; the
    # tolerance only absorbs float cancellation in the epoch subtraction
    np.testing.assert_allclose(d2, 2 * d1, rtol=1e-9, atol=1e-9)


def test_fpet_step_accuracy_small_thrust():
    """Single arc at ablation-scale thrust against the Cartesian oracle."""
    eq0 = keplerian_to_equinoctial(APOPHIS_LIKE)
    thrust = ThrustRTN(1e-10, alpha=math.pi / 2)
    err = _deviation_vs_oracle(eq0, thrust, dl_total=0.05, n_arcs=1)
    assert np.max(np.abs(err)) < 1e-8


def test_first_order_error_scales_quadratically():
    """Fixed arcs, thrust swept over four decades: log-log slope of the
    worst element error vs the oracle must be 2 within 0.2."""
    eq0 = keplerian_to_equinoctial(APOPHIS_LIKE)
    eps_values = [1e-12, 1e-11, 1e-10, 1e-9]  # km/s^2
    errors = []
    for eps in eps_values:
        thrust = ThrustRTN(eps, alpha=1.2)
        err = _deviation_vs_oracle(eq0, thrust, dl_total=4 * math.pi, n_arcs=50)
        errors.append(np.max(np.abs(err)))
    slope = np.polyfit(np.log10(eps_values), np.log10(errors), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def _quadrature(order):
    """Nodes mapped to [0, 1], transposed antiderivative matrix and
    integral weights of the Chebyshev quadrature of an order."""
    nodes, cumulative = fpet._chebyshev_cumulative(order)
    return 0.5 * (nodes + 1.0), np.ascontiguousarray(cumulative.T), cumulative[-1]


FINE_MAP, FINE_CUM_T, FINE_W = _quadrature(12)
# the largest error of a first-order term over the integral of its
# integrand's absolute value, allowed at the shipped order (measured on 4000
# drawn arcs of 0.1 rad: 6.3e-8 at five nodes, 4.8e-5 at four)
QUADRATURE_REL_ERROR = 1e-6
# an absolute floor under that bound, a few of the smallest subnormals: it
# acts only where the bound itself underflows, on subnormal terms, whose
# rounding is coarser than any relative error
QUADRATURE_ABS_FLOOR = 16 * math.ulp(0.0)


@settings(max_examples=300, deadline=None)
@given(
    a_au=st.floats(0.3, 5.0),
    e=st.floats(0.0, 0.7),
    i=st.floats(0.0, 1.0),
    pomega=angles, raan=angles,
    ell=st.floats(-50.0, 50.0),
    dl=st.floats(1e-6, ARC_CONTROL.dl_max),
    alpha=st.floats(-math.pi, math.pi),
)
def test_first_order_terms_match_a_finer_quadrature(a_au, e, i, pomega, raan, ell, dl,
                                                     alpha):
    """The shipped quadrature's first-order terms, of a, P1, P2 and the
    epoch, against the same integrals at order 12, on eccentric orbits, up
    to the shipped arc cap. Each term's
    error is measured against the integral of its integrand's absolute
    value, which vanishes only with the integrand. The array oracle shares
    the shipped nodes, so only this test holds their order to an accuracy."""
    eq = _arc_state(a_au, e, i, pomega, raan, ell, 0.0)
    thrust = ThrustRTN(1.0, alpha)
    half = 0.5 * dl
    rows, t11 = _first_order_terms(eq, dl, thrust, MU)
    g, y, time_parts = oracles.first_order_integrands(eq, dl, thrust, MU, FINE_MAP, FINE_CUM_T)
    t_a, t_p1, t_p2 = time_parts
    got = [half * row[-1] for row in rows] + [t11]
    want = list(half * y[:, -1]) + [half * float((t_a + t_p1 + t_p2) @ FINE_W)]
    scales = list(half * (np.abs(g) @ FINE_W)) + [
        half * float(sum(np.abs(part) for part in time_parts) @ FINE_W)]
    for name, value, fine, scale in zip(("a", "p1", "p2", "t"), got, want, scales):
        assert abs(value - fine) <= max(QUADRATURE_REL_ERROR * scale, QUADRATURE_ABS_FLOOR), name


# ---------------------------------------------------------------------------
# Adaptive arc law
# ---------------------------------------------------------------------------

def test_arc_law_examples():
    # the reference law (``oracles.arc_length_law``) that trajectories are
    # checked against; raw law arithmetic at A=1, k=1: exponent 1 at the
    # running peak, one extra decade of decay per factor-10 drop in thrust
    assert oracles.arc_length_law(1e-9, 1e-9, 1.0, 1.0, 10.0) == pytest.approx(math.e)
    assert oracles.arc_length_law(1e-10, 1e-9, 1.0, 1.0, 10.0) == pytest.approx(math.e**2)
    assert oracles.arc_length_law(1e-15, 1e-9, 1.0, 1.0, 10.0) == 10.0
    assert oracles.arc_length_law(0.0, 1e-9, 1.0, 1.0, 10.0) == 10.0
    assert oracles.arc_length_law(1e-9, 0.0, 1.0, 1.0, 10.0) == 10.0
    # at a new peak, the law gives A*e again
    assert oracles.arc_length_law(5e-9, 5e-9, 1.0, 1.0, 10.0) == pytest.approx(math.e)
    assert oracles.arc_length_law(1e-15, 1e-9, 1.0, 1.0, 6.0) == 6.0


def test_arc_law_updates_running_max():
    """Arcs follow the law at the running maximum of the thrust modulus,
    which every propagation starts afresh: reusing one ArcControl gives
    the same trajectory twice."""
    eq0 = keplerian_to_equinoctial(APOPHIS_LIKE)
    year = 365.25 * 86400.0

    def pulse(state, t, h_cond):
        # weak, strong, weak: the last third runs below an earlier peak
        eps = 1e-10 if 0.3 * year <= t - eq0.t < 0.6 * year else 1e-11
        return ThrustRTN(eps, alpha=math.pi / 2), 0.0

    ctrl = ArcControl(a_const=0.05, k_const=2.0, dl_max=0.1)
    first = propagate_trajectory(eq0, pulse, eq0.t + year, ctrl, MU)
    second = propagate_trajectory(eq0, pulse, eq0.t + year, ctrl, MU)
    assert second.states == first.states
    assert second.eps_history == first.eps_history

    eps = first.eps_history
    dls = [b.ell - a.ell for a, b in zip(first.states, first.states[1:])]
    for k, dl in enumerate(dls[:-1]):  # the last arc is cut to land on t_end
        want = oracles.arc_length_law(eps[k], max(eps[: k + 1]), 0.05, 2.0, 0.1)
        assert dl == pytest.approx(want, rel=1e-9)
    # the weak tail runs at the capped length, below the peak
    assert dls[-2] == pytest.approx(0.1, rel=1e-9)
    assert dls[0] == pytest.approx(0.05 * math.exp(0.5), rel=1e-9)


def test_arc_control_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(ARC_CONTROL, a_const=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(ARC_CONTROL, dl_max=7.0)
    # configuration only: no per-run state to carry between trajectories
    ctrl = ARC_CONTROL
    assert [f.name for f in dataclasses.fields(ctrl)] == ["a_const", "k_const", "dl_max"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctrl.dl_max = 0.2


# ---------------------------------------------------------------------------
# Trajectory propagation
# ---------------------------------------------------------------------------

def test_trajectory_constant_thrust_vs_oracle():
    eq0 = keplerian_to_equinoctial(APOPHIS_LIKE)
    eps = 1e-10
    thrust = ThrustRTN(eps, alpha=math.pi / 2)
    t_end = eq0.t + 1.0 * 365.25 * 86400
    ctrl = ArcControl(a_const=0.05, k_const=2.0, dl_max=0.4)
    traj = propagate_trajectory(eq0, lambda s, t, h: (thrust, 0.0), t_end, ctrl, MU)
    final = traj.final
    assert abs(final.t - t_end) <= 1.0

    f_rtn = tuple(oracles.rtn_vector(thrust))
    r0, v0 = oracles.equinoctial_state_to_cartesian_classical(eq0, MU)
    sol = oracles.propagate_cartesian(
        r0, v0, MU, final.t - eq0.t, thrust_rtn=lambda t, r, v: f_rtn,
        rtol=1e-12,
    )
    kep_ref = oracles.cartesian_to_keplerian(sol.y[:3, -1], sol.y[3:, -1], MU)
    eq_ref = keplerian_to_equinoctial(kep_ref)
    assert final.a == pytest.approx(eq_ref.a, rel=1e-6)
    for name in ("p1", "p2", "q1", "q2"):
        assert getattr(final, name) == pytest.approx(getattr(eq_ref, name), abs=1e-6)


@pytest.mark.parametrize("contamination", [False, True])
def test_trajectory_lands_on_epoch_with_one_extra_step(monkeypatch, contamination):
    """The last arc is cut once in closed form: the maximum design lands
    within a millisecond of t_end with at most one step more than arcs."""
    scenario = load_scenario(reference_scenario_path())
    model = make_model(scenario, "deterministic", contamination)
    eq0, thrust = model.deflection_start(
        parse_design("20,10,8,3000"), scenario.fixed_uncertain
    )
    steps = 0

    def counting_step(*args, **kwargs):
        nonlocal steps
        steps += 1
        return fpet_step(*args, **kwargs)

    monkeypatch.setattr(fpet, "fpet_step", counting_step)
    traj = propagate_trajectory(
        eq0, thrust, scenario.t_impact, scenario.arc_control, scenario.mu
    )
    assert abs(traj.final.t - scenario.t_impact) <= 1e-3
    assert steps <= traj.n_arcs + 1


def test_trajectory_callback_errors_propagate():
    eq0 = keplerian_to_equinoctial(APOPHIS_LIKE)

    def bad_callback(state, t, h_cond):
        raise RuntimeError("ablation model exploded")

    ctrl = ARC_CONTROL
    with pytest.raises(RuntimeError, match="ablation model exploded"):
        propagate_trajectory(eq0, bad_callback, eq0.t + 1e6, ctrl, MU)


def test_trajectory_arc_overflow():
    eq0 = keplerian_to_equinoctial(APOPHIS_LIKE)
    ctrl = ArcControl(a_const=1e-4, k_const=2.0, dl_max=1e-4)
    with pytest.raises(ArcOverflowError), mock.patch.object(fpet, "_MAX_ARCS", 1000):
        propagate_trajectory(eq0, lambda s, t, h: (ThrustRTN(0.0), 0.0), eq0.t + 3.2e7, ctrl, MU)


def test_trajectory_rejects_past_epoch():
    eq0 = keplerian_to_equinoctial(APOPHIS_LIKE)
    with pytest.raises(ValueError):
        propagate_trajectory(eq0, lambda s, t, h: (ThrustRTN(0.0), 0.0), eq0.t - 1.0,
                             ARC_CONTROL, MU)


# ---------------------------------------------------------------------------
# Coasting once the thrust model certifies the rest of a trajectory dark
# ---------------------------------------------------------------------------

# unit-cube sides of the thrust-weakest corner: high heat capacity,
# conductivity, density, sublimation temperature and enthalpy, low laser and
# solar-array efficiencies; the strongest corner is the opposite one (up to
# t_sub, whose two effects pull opposite ways); the three sizing densities
# do not reach the thrust
WEAK_SIDE = (1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.5, 0.5, 0.5)
STRONG_SIDE = (0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 0.5)


@functools.cache
def _scenario_and_structure():
    scenario = load_scenario(reference_scenario_path())
    return scenario, evidence_structure(scenario)


def _uncertain(unit_point) -> dict:
    _, structure = _scenario_and_structure()
    return dict(zip(structure.names, structure.unit_to_physical(np.array(unit_point))))


@contextmanager
def _counting_thrust_calls():
    """Epochs of the ``ThrustModel`` calls made inside the block."""
    calls = []
    call = ThrustModel.__call__

    def counted(self, eq, t, h_cond):
        calls.append(t)
        return call(self, eq, t, h_cond)

    with mock.patch.object(ThrustModel, "__call__", counted):
        yield calls


def _propagate_both(design, u, contamination, dl_max=None):
    """One evaluation driven by the thrust model itself, which may jump
    certified-dark spells, and the trajectory of a plain-function wrapper of
    a fresh model, which steps every arc; with the thrust calls each side
    made. ``dl_max`` replaces the scenario's arc cap."""
    scenario, _ = _scenario_and_structure()
    if dl_max is not None:
        scenario = dataclasses.replace(
            scenario, arc_control=dataclasses.replace(scenario.arc_control, dl_max=dl_max))
    model = make_model(scenario, "deterministic", contamination)
    with _counting_thrust_calls() as calls:
        ev = model.evaluate(design, u)
    eq0, thrust = model.deflection_start(design, u)
    with _counting_thrust_calls() as sampled_calls:
        sampled = propagate_trajectory(eq0, lambda state, t, h: thrust(state, t, h),
                                       scenario.t_impact, scenario.arc_control, scenario.mu)
    return ev, sampled, len(calls), len(sampled_calls)


def _sampled_b(sampled, contamination):
    """b of a stepped trajectory, closed by the two-body coast to impact."""
    scenario, _ = _scenario_and_structure()
    model = make_model(scenario, "deterministic", contamination)
    return model.impact_b(propagate_keplerian(sampled.final, scenario.t_impact, scenario.mu))


def _assert_jumps_keep_the_stepped_partition(coast, sampled):
    """The trajectory that jumps certified-dark spells against the one that
    steps every arc: every arc starts on a stepped arc's start, in the same
    state to the bit (epoch included) and with the same thrust; the
    thrusting arcs are as many, and no stepped arc a jump skipped thrusts.
    The end is the two-body state at impact from the last jump's start, or
    the stepped end within 1e-6 s."""
    scenario, _ = _scenario_and_structure()
    starts = [s.ell for s in sampled.states[:-1]]
    skipped = set(range(len(starts)))
    for state, eps in zip(coast.states, coast.eps_history):
        k = bisect.bisect_left(starts, state.ell)
        assert state == sampled.states[k]
        assert eps == sampled.eps_history[k]
        skipped.discard(k)
    assert sum(e > 0.0 for e in coast.eps_history) == sum(e > 0.0 for e in sampled.eps_history)
    assert not any(sampled.eps_history[k] for k in skipped)
    if coast.final != propagate_keplerian(coast.states[-2], scenario.t_impact, scenario.mu):
        assert abs(coast.final.t - sampled.final.t) <= 1e-6


@pytest.mark.parametrize("contamination", [False, True], ids=["off", "on"])
@pytest.mark.parametrize("point", ["reference", "strong", "weak"])
def test_coast_keeps_the_bits_of_the_sampled_path(contamination, point):
    """Jumping certified-dark spells keeps the partition of the thrusting
    arcs of the stepped path, on the behaviour-lock designs at the reference
    point and at both thrust-extreme corners; b moves by at most 5e-5 km
    (the two paths close on the impact epoch from different last arcs) and
    the thrust is sampled no more often."""
    scenario, _ = _scenario_and_structure()
    u = {"reference": scenario.fixed_uncertain, "strong": _uncertain(STRONG_SIDE),
         "weak": _uncertain(WEAK_SIDE)}[point]
    saved = 0
    for text in sorted({design for design, _ in LOCKED_EVALUATIONS}):
        ev, sampled, calls, sampled_calls = _propagate_both(parse_design(text), u, contamination)
        _assert_jumps_keep_the_stepped_partition(ev.trajectory, sampled)
        assert abs(ev.b - _sampled_b(sampled, contamination)) <= 5e-5, text
        assert calls <= sampled_calls, text
        saved += sampled.n_arcs - ev.n_arcs
    if (point, contamination) != ("strong", False):  # that corner thrusts on every arc
        assert saved > 0


DARK_EDGE_UNIT = [0.0, 0.2890625, 0.8125, 0.3753609058683415, 0.0,
                  0.5206813478557698, 0.9375, 0.0, 0.0, 0.0]


@settings(max_examples=40, deadline=None)
@given(
    dl_max=st.sampled_from([None, 2 * math.pi, 1e-2]),
    d_m=st.floats(2.0, 20.0),
    n_sc=st.integers(1, 10),
    t_warn=st.floats(1.0, 8.0),
    c_r=st.floats(1000.0, 3000.0),
    unit=st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10),
    contamination=st.booleans(),
)
# near the dark edge of a contaminated path, where a jump's epoch once
# missed the stepped path's sum by 1.2e-6 s and the thrust by 4e-11
@example(dl_max=1e-2, d_m=14.380070246563278, n_sc=4, t_warn=5.721444932713489,
         c_r=1671.421875, unit=DARK_EDGE_UNIT, contamination=True)
@example(dl_max=1e-2, d_m=17.0, n_sc=4, t_warn=5.721444932713489,
         c_r=1671.421875, unit=DARK_EDGE_UNIT, contamination=True)
def test_spell_jumps_keep_the_stepped_partition(dl_max, d_m, n_sc, t_warn, c_r, unit,
                                                contamination):
    """The same contract over drawn designs and uncertain points, at the
    scenario's arc cap, at the largest one (a whole turn) and at 1e-2 rad,
    where both trajectories also end within 1 s of t_end, and a jump sums
    the epochs of thousands of skipped arcs."""
    scenario, _ = _scenario_and_structure()
    ev, sampled, calls, sampled_calls = _propagate_both(
        DesignVector(d_m, n_sc, t_warn, c_r), _uncertain(unit), contamination, dl_max)
    for traj in (ev.trajectory, sampled):
        assert abs(traj.final.t - scenario.t_impact) <= 1.0
    _assert_jumps_keep_the_stepped_partition(ev.trajectory, sampled)
    assert abs(ev.b - _sampled_b(sampled, contamination)) <= 5e-5
    assert calls <= sampled_calls


def _assert_dark_coast(ev, sampled, calls, _sampled_calls):
    assert not any(sampled.eps_history)
    assert calls == 1
    assert ev.trajectory.eps_history == [0.0]
    assert ev.b == 0.0


@pytest.mark.parametrize("contamination", [False, True], ids=["off", "on"])
@pytest.mark.parametrize("text, point", [("2,1,1,1000", "reference"),
                                         ("20,10,2,3000", "weak")])
def test_dark_trajectory_samples_the_thrust_once(contamination, text, point):
    """Where no arc ablates, the model certifies the orbit dark at the
    first arc: the propagator samples the thrust once, jumps to impact in
    one arc, and b is exactly the undeflected 0."""
    scenario, _ = _scenario_and_structure()
    u = scenario.fixed_uncertain if point == "reference" else _uncertain(WEAK_SIDE)
    _assert_dark_coast(*_propagate_both(parse_design(text), u, contamination))


@settings(max_examples=40, deadline=None)
@given(
    d_m=st.floats(2.0, 20.0),
    n_sc=st.integers(1, 10),
    t_warn=st.floats(1.0, 8.0),
    c_r=st.floats(1000.0, 3000.0),
    toward_weak=st.lists(st.floats(0.0, 0.6), min_size=10, max_size=10),
    contamination=st.booleans(),
)
def test_dark_trajectories_coast_from_the_first_arc(d_m, n_sc, t_warn, c_r, toward_weak,
                                                    contamination):
    """Designs and uncertain points near the thrust-weakest corner that do
    not ablate on any sampled arc: one thrust call, one zero-thrust arc, and
    b exactly 0."""
    unit = [abs(w - d) for w, d in zip(WEAK_SIDE, toward_weak)]
    both = _propagate_both(DesignVector(d_m, n_sc, t_warn, c_r), _uncertain(unit), contamination)
    assume(not any(both[1].eps_history))
    _assert_dark_coast(*both)


class _LitFrom:
    """A thrust that ablates from the true longitude ``ell_lit`` on, whose
    ``dark_until`` returns ``ell_cert`` (or the state's own longitude past
    it): the first longitude not certified dark."""

    def __init__(self, ell_lit, ell_cert):
        self.ell_lit, self.ell_cert = ell_lit, ell_cert

    def __call__(self, eq, t, h_cond):
        return ThrustRTN(1e-12 if eq.ell >= self.ell_lit else 0.0, 0.5 * math.pi), 0.0

    def dark_until(self, eq, h_cond):
        return max(eq.ell, self.ell_cert)


def test_probe_at_the_end_of_the_dark_range_is_stepped():
    """An arc whose midpoint probe lies exactly at the longitude
    ``dark_until`` returns is stepped, not jumped: the first arc, whose
    probe is dark but not certified (a spot that is dark at its spin phase
    and lit at the slowest), and the second, whose probe ablates. With
    ``<=`` in place of ``<`` the first would be one jumped arc, the second
    would be skipped."""
    eq0 = EquinoctialState(AU_KM, 0.1, 0.05, 0.0, 0.0, 0.3)
    ctrl = ARC_CONTROL
    args = (0.5 * 365.25 * 86400.0, ctrl, MU)

    def stepped(model):
        return propagate_trajectory(eq0, lambda state, t, h: model(state, t, h), *args)

    never_certified = _LitFrom(math.inf, -math.inf)
    assert propagate_trajectory(eq0, never_certified, *args) == stepped(never_certified)
    second_probe = (eq0.ell + ctrl.dl_max) + 0.5 * ctrl.dl_max
    lit_at_second = _LitFrom(second_probe, second_probe)
    traj, plain = propagate_trajectory(eq0, lit_at_second, *args), stepped(lit_at_second)
    assert traj.eps_history[1] > 0.0
    assert traj.eps_history == plain.eps_history
    assert [s.ell for s in traj.states] == [s.ell for s in plain.states]
    assert all(abs(a.t - b.t) <= 1e-6 for a, b in zip(traj.states, plain.states))


def test_contamination_layer_grows_from_the_last_accepted_sample_only():
    """Each thrust sample reads the mirror layer committed by the last
    accepted sample, grown at that sample's rate to its own epoch, bit for
    bit: a re-sample never sees the layer of the sample it replaces. The arc
    control spans 0.008 to 0.1 rad, so arcs re-sample, some of them while
    the layer grows. An arc's samples share its start (the state whose
    Kepler time of flight times the sample's probe, the last one taken
    before the sample) and its last sample is the accepted one."""
    scenario, _ = _scenario_and_structure()
    scenario = dataclasses.replace(scenario, arc_control=ArcControl(0.005, 2.0, 0.1))
    model = make_model(scenario, "deterministic", True)
    samples, timed_from = [], []
    call, time_of_flight = ThrustModel.__call__, fpet.kepler_time_of_flight

    def recorded(self, eq, t, h_cond):
        f, growth = call(self, eq, t, h_cond)
        samples.append((timed_from[-1], (t, h_cond, growth)))
        return f, growth

    def timed(eq, dl, start):
        timed_from.append(eq.ell)
        return time_of_flight(eq, dl, start)

    with (mock.patch.object(ThrustModel, "__call__", recorded),
          mock.patch.object(fpet, "kepler_time_of_flight", timed)):
        ev = model.evaluate(parse_design("20,10,8,3000"), scenario.fixed_uncertain)
    arcs = {}
    for ell, sample in samples:
        arcs.setdefault(ell, []).append(sample)
    assert len(arcs) == ev.n_arcs
    h_c = g_c = t_c = 0.0
    resampled_while_growing = 0
    for arc in arcs.values():
        for t, h_cond, _ in arc:
            assert h_cond == h_c + g_c * (t - t_c) * 100.0
        resampled_while_growing += len(arc) > 1 and g_c > 0.0
        t_c, h_c, g_c = arc[-1]
    assert resampled_while_growing > 0


def _bits(traj) -> tuple:
    """Every bit of a trajectory: the thrust of each arc and all seven
    fields of each arc-boundary state, signed zeros included."""
    return (tuple(eps.hex() for eps in traj.eps_history),
            tuple(tuple(v.hex() for v in dataclasses.astuple(state)) for state in traj.states))


# re-samples where the thrust rises or falls steeply: arcs from 0.008 to 0.1
RESAMPLING = ArcControl(0.005, 2.0, 0.1)


@settings(max_examples=60, deadline=None)
@given(
    d_m=st.floats(2.0, 20.0),
    n_sc=st.integers(1, 10),
    t_warn=st.floats(1.0, 8.0),
    c_r=st.floats(1000.0, 3000.0),
    unit=st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10),
    contamination=st.booleans(),
    ctrl=st.sampled_from([None, RESAMPLING]),
)
# re-samples while the mirror layer grows
@example(d_m=20.0, n_sc=10, t_warn=8.0, c_r=3000.0, unit=[0.5] * 10, contamination=True,
         ctrl=RESAMPLING)
def test_trajectory_equals_the_reference_stepper(d_m, n_sc, t_warn, c_r, unit, contamination,
                                                 ctrl):
    """``propagate_trajectory`` driven by ``ThrustModel`` equals, state for
    state and bit for bit, the plain arc loop of the oracles driven by the
    composition of the unit functions, with the model's dark certificate:
    at the scenario's arc control (None) and at one that re-samples."""
    scenario, _ = _scenario_and_structure()
    ctrl = ctrl or scenario.arc_control
    design = DesignVector(d_m, n_sc, t_warn, c_r)
    model = make_model(scenario, "deterministic", contamination)
    eq0, thrust = model.deflection_start(design, _uncertain(unit))
    traj = propagate_trajectory(eq0, thrust, scenario.t_impact, ctrl, scenario.mu)

    def sample(eq, t, h_cond):
        return oracles.thrust_sample(design, thrust.tech, thrust.ast, thrust.geom, contamination,
                                     eq, t - thrust.t_reference, h_cond)

    want = oracles.propagate_reference(eq0, sample, thrust.dark_until, scenario.t_impact, ctrl,
                                       scenario.mu)
    assert _bits(traj) == _bits(want)


def _samples_and_arcs(design, unit, contamination, ctrl) -> tuple[int, int]:
    """Thrust samples and arcs of one evaluation under the arc control ``ctrl``."""
    scenario, _ = _scenario_and_structure()
    scenario = dataclasses.replace(scenario, arc_control=ctrl)
    model = make_model(scenario, "deterministic", contamination)
    with _counting_thrust_calls() as calls:
        ev = model.evaluate(design, _uncertain(unit))
    return len(calls), ev.n_arcs


@pytest.mark.parametrize("contamination", [False, True], ids=["off", "on"])
@settings(max_examples=30, deadline=None)
@given(
    d_m=st.floats(2.0, 20.0),
    n_sc=st.integers(1, 10),
    t_warn=st.floats(1.0, 8.0),
    c_r=st.floats(1000.0, 3000.0),
    unit=st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10),
)
def test_one_thrust_sample_per_arc_at_the_shipped_arc_control(d_m, n_sc, t_warn, c_r, unit,
                                                              contamination):
    """The shipped ``ArcControl`` keeps every arc in [0.0824, 0.1] rad, a
    ratio below the factor of two that triggers a re-sample: each arc, a
    jumped dark spell included, samples the thrust once."""
    scenario, _ = _scenario_and_structure()
    assert scenario.arc_control == ARC_CONTROL
    calls, n_arcs = _samples_and_arcs(DesignVector(d_m, n_sc, t_warn, c_r), unit,
                                      contamination, ARC_CONTROL)
    assert calls == n_arcs


def test_resampling_arc_control_samples_more_than_once_per_arc():
    """The count above can fail: an arc control whose arcs span more than a
    factor of two re-samples some arcs."""
    calls, n_arcs = _samples_and_arcs(parse_design("20,10,8,3000"), [0.5] * 10, True,
                                      RESAMPLING)
    assert calls > n_arcs


@pytest.mark.parametrize("eps, years", [(1e-8, 0.3), (3e-8, 1.0)])
def test_arc_after_a_cut_equals_the_reference_stepper(eps, years):
    """A thrust strong enough that the cut last arc's first-order time term
    leaves the epoch more than a second short of t_end, so one more arc
    follows: it is probed at the law's arc length, not the cut one, state
    for state as in the plain arc loop."""
    eq0 = EquinoctialState(AU_KM, 0.1, 0.05, 0.01, 0.0, 0.3)

    def thrust(state, t, h_cond):
        return ThrustRTN(eps * (1.0 + 0.5 * math.sin(state.ell)), 0.5 * math.pi), 0.0

    t_end = years * 365.25 * 86400.0
    traj = propagate_trajectory(eq0, thrust, t_end, ARC_CONTROL, MU)
    assert 1.0 < t_end - traj.states[-2].t < 100.0  # the cut arc, then one more
    want = oracles.propagate_reference(eq0, thrust, None, t_end, ARC_CONTROL, MU)
    assert _bits(traj) == _bits(want)


def test_arc_cap_counts_coasting_arcs():
    """The cap still stops a trajectory that steps every arc, and counts the
    jump to impact as one arc, whether the thrust is dark from the first arc
    or goes dark after a thrusting prefix."""
    scenario, _ = _scenario_and_structure()
    args = (scenario.t_impact, scenario.arc_control, scenario.mu)
    model = make_model(scenario, "deterministic", False)
    eq0, thrust = model.deflection_start(parse_design("2,1,1,1000"), scenario.fixed_uncertain)
    with pytest.raises(ArcOverflowError), mock.patch.object(fpet, "_MAX_ARCS", 10):
        propagate_trajectory(eq0, lambda state, t, h: thrust(state, t, h), *args)
    eq0, thrust = model.deflection_start(parse_design("2,1,1,1000"), scenario.fixed_uncertain)
    with mock.patch.object(fpet, "_MAX_ARCS", 1):
        traj = propagate_trajectory(eq0, thrust, *args)
    assert traj.eps_history == [0.0]
    assert traj.final == propagate_keplerian(eq0, scenario.t_impact, scenario.mu)

    model = make_model(scenario, "deterministic", True)
    design = parse_design("20,10,1,3000")
    n_arcs = model.evaluate(design, scenario.fixed_uncertain).n_arcs
    eq0, thrust = model.deflection_start(design, scenario.fixed_uncertain)
    with mock.patch.object(fpet, "_MAX_ARCS", n_arcs):
        traj = propagate_trajectory(eq0, thrust, *args)
    assert traj.eps_history[-2] > 0.0 and traj.eps_history[-1] == 0.0
    eq0, thrust = model.deflection_start(design, scenario.fixed_uncertain)
    with pytest.raises(ArcOverflowError), mock.patch.object(fpet, "_MAX_ARCS", n_arcs - 1):
        propagate_trajectory(eq0, thrust, *args)


class _NoNumpy:
    """Stands in for ``numpy`` in ``fpet``: every use of it fails."""

    def __getattr__(self, name):
        raise AssertionError(f"an arc used numpy.{name}")


def test_an_arc_runs_on_plain_floats(monkeypatch):
    """No arc calls numpy: with ``fpet.np`` unusable, steps under a
    mostly radial and a transversal thrust and a thrusting trajectory driven
    by ``ThrustModel`` run with the bits they have with numpy, and the
    first-order terms are Python floats."""
    eq = _arc_state(1.0, 0.191, 0.0581, 2.206, 3.568, 0.8, 0.0)
    dl = ARC_CONTROL.dl_max
    thrusts = [ThrustRTN(1e-9, 0.3), ThrustRTN(1e-9, 0.5 * math.pi)]
    scenario = load_scenario(reference_scenario_path())
    model = make_model(scenario, "deterministic", False)

    def run():
        terms = [_first_order_terms(eq, dl, f, MU) for f in thrusts]
        steps = [fpet_step(eq, dl, f, MU, kepler_start(eq, MU)) for f in thrusts]
        eq0, thrust = model.deflection_start(parse_design("20,10,1,3000"),
                                             scenario.fixed_uncertain)
        assert isinstance(thrust, ThrustModel)
        traj = propagate_trajectory(eq0, thrust, scenario.t_impact, scenario.arc_control,
                                    scenario.mu)
        return terms, steps, _bits(traj)

    want = run()
    assert any(float.fromhex(eps) > 0.0 for eps in want[2][0])  # thrusting arcs
    monkeypatch.setattr(fpet, "np", _NoNumpy())
    got = run()
    assert got == want
    for rows, t11 in got[0]:
        assert all(type(v) is float for row in rows for v in row) and type(t11) is float
