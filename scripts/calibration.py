"""Intercept calibration of a scenario's asteroid phase.

Builds the shipped reference scenario (``make_reference_scenario.py``) and
checks it in the tests; no CLI mode needs it. Import it with ``src`` (or
an installed ``neodeflect``) on the path.
"""
import math
from dataclasses import replace

import numpy as np

from neodeflect.mission import Scenario
from neodeflect.orbits import (
    EquinoctialState,
    bplane_normal,
    bplane_offset,
    equinoctial_to_cartesian,
    keplerian_to_equinoctial,
    propagate_keplerian,
)


class CalibrationError(RuntimeError):
    """No intercept phasing found within the scan window."""


def earth_miss_distance(
    asteroid: EquinoctialState, earth: EquinoctialState, mu_sun: float
) -> float:
    """b-plane miss distance of an asteroid state relative to the Earth [km]."""
    r_ast, v_ast = equinoctial_to_cartesian(asteroid, mu_sun)
    r_earth, v_earth = equinoctial_to_cartesian(earth, mu_sun)
    v_hat = bplane_normal(v_ast - v_earth)
    return float(np.linalg.norm(bplane_offset(r_ast - r_earth, v_hat)))


def nominal_miss(scenario: Scenario, theta0: float | None = None) -> float:
    """b-plane miss [km] of the unperturbed asteroid at the impact epoch."""
    kep = scenario.asteroid if theta0 is None else replace(scenario.asteroid, theta=theta0)
    ast = propagate_keplerian(keplerian_to_equinoctial(kep), scenario.t_impact, scenario.mu)
    earth = propagate_keplerian(
        keplerian_to_equinoctial(scenario.earth), scenario.t_impact, scenario.mu
    )
    return earth_miss_distance(ast, earth, scenario.mu)


def _golden_min(f, lo: float, hi: float, xtol: float) -> tuple[float, float]:
    """Golden-section minimization with absolute width control.

    The miss distance is V-shaped (|linear|) at an exact intercept, which
    defeats parabolic steps and relative-tolerance stops; plain golden
    section converges regardless.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def calibrate_scenario(scenario: Scenario, tol_km: float = 1.0) -> Scenario:
    """Phase the asteroid so its unperturbed orbit hits the Earth b-plane.

    One-dimensional search on the true anomaly at epoch: a coarse scan over
    a full revolution brackets the encounter, then a golden-section
    refinement drives the miss below ``tol_km``. Raises CalibrationError
    when no phasing achieves it (the orbit geometry simply never meets the
    Earth).
    """
    thetas = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    misses = [nominal_miss(scenario, th) for th in thetas]
    k = int(np.argmin(misses))
    span = 2.0 * math.pi / 720
    theta_star, best = _golden_min(
        lambda th: nominal_miss(scenario, th),
        thetas[k] - 2 * span, thetas[k] + 2 * span, xtol=1e-13,
    )
    if best > tol_km:
        raise CalibrationError(
            f"no intercept phasing found: best miss {best:.3e} km over a full scan"
        )
    return replace(
        scenario, asteroid=replace(scenario.asteroid, theta=theta_star % (2.0 * math.pi))
    )
