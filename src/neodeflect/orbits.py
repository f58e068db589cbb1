"""Orbital element sets, Kepler propagation and b-plane geometry.

Everything here is two-body mechanics in non-singular equinoctial elements
(a, P1, P2, Q1, Q2, L) plus the variational rates driven by a thrust
acceleration expressed in the radial-transversal-normal frame. Units are
km, s, rad; gravitational parameters in km^3/s^2.

``EquinoctialState`` and ``ThrustRTN``, built several times per arc, are
slotted rather than frozen (a frozen dataclass writes each field through
``object.__setattr__``), but they are values: no code assigns to a field
of a state once built, and code that needs another state builds a new one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Relative velocity below which the b-plane is considered degenerate, km/s
V_INF_MIN = 1e-8


class KeplerConvergenceError(RuntimeError):
    """The iterative solve of the generalized Kepler equation did not converge."""


class DegenerateBPlaneError(ValueError):
    """Incoming relative velocity too small to define a b-plane."""


@dataclass(frozen=True)
class KeplerianElements:
    """Classical elements of an elliptic orbit.

    Attributes:
        a: semi-major axis [km], > 0.
        e: eccentricity, 0 <= e < 1.
        i: inclination [rad].
        raan: right ascension of the ascending node [rad].
        argp: argument of periapsis [rad].
        theta: true anomaly [rad].
    """

    a: float
    e: float
    i: float
    raan: float
    argp: float
    theta: float

    def __post_init__(self):
        if self.a <= 0.0:
            raise ValueError(f"semi-major axis must be positive, got {self.a}")
        if not 0.0 <= self.e < 1.0:
            raise ValueError(f"only elliptic orbits supported, got e={self.e}")


@dataclass(slots=True)
class EquinoctialState:
    """Non-singular equinoctial state with epoch.

    Elements: a, P1 = e*sin(raan+argp), P2 = e*cos(raan+argp),
    Q1 = tan(i/2)*sin(raan), Q2 = tan(i/2)*cos(raan), true longitude
    ell = raan + argp + theta. ``t`` is the epoch in seconds past the
    scenario reference. A value (see the module docstring).
    """

    a: float
    p1: float
    p2: float
    q1: float
    q2: float
    ell: float
    t: float = 0.0

    def __post_init__(self):
        if self.a <= 0.0:
            raise ValueError(f"semi-major axis must be positive, got {self.a}")
        if self.p1 * self.p1 + self.p2 * self.p2 >= 1.0:
            raise ValueError("P1^2 + P2^2 must be < 1 for an elliptic orbit")

    def semi_latus(self) -> float:
        return self.a * (1.0 - self.p1 * self.p1 - self.p2 * self.p2)

    def radius(self) -> float:
        """Heliocentric radius [km], p / (1 + P1 sin L + P2 cos L)."""
        return self.semi_latus() / (1.0 + self.p1 * math.sin(self.ell)
                                    + self.p2 * math.cos(self.ell))


@dataclass(slots=True)
class ThrustRTN:
    """Thrust acceleration in the orbit plane, in the radial-transversal-
    normal frame.

    ``eps`` is the modulus [km/s^2] and ``alpha`` the azimuth measured from
    the radial axis (alpha = pi/2 is purely transversal). The Cartesian RTN
    vector is eps * [cos(alpha), sin(alpha), 0]: the ablation thrust pushes
    along the heliocentric velocity, which lies in the orbit plane.
    A value (see the module docstring).
    """

    eps: float
    alpha: float = 0.0

    def __post_init__(self):
        if self.eps < 0.0:
            raise ValueError("thrust modulus must be non-negative")


# ---------------------------------------------------------------------------
# Element conversions
# ---------------------------------------------------------------------------

def keplerian_to_equinoctial(kep: KeplerianElements) -> EquinoctialState:
    """Convert classical elements to the non-singular equinoctial set at
    epoch 0.

    Raises ValueError for e >= 1 (enforced by KeplerianElements) and for
    i = pi, where tan(i/2) is singular.
    """
    if abs(math.remainder(kep.i - math.pi, TWO_PI)) < 1e-12:
        raise ValueError("equinoctial elements are singular at i = pi")
    pomega = kep.raan + kep.argp
    ti2 = math.tan(0.5 * kep.i)
    return EquinoctialState(
        a=kep.a,
        p1=kep.e * math.sin(pomega),
        p2=kep.e * math.cos(pomega),
        q1=ti2 * math.sin(kep.raan),
        q2=ti2 * math.cos(kep.raan),
        ell=(pomega + kep.theta) % TWO_PI,
    )


# ---------------------------------------------------------------------------
# Kepler's equation in equinoctial form
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class KeplerStart:
    """What every time of flight from one state shares: the mean motion,
    the shape constants of Kepler's equation and the mean longitude at
    the state's own true longitude.

    A thrusting arc asks it three mean longitudes: the state's own, the
    midpoint probe's and the arc end's. A coasting arc leaves the orbit as
    it was, so the start of its end is the same one with ``lam`` moved to
    the end's mean longitude; after a thrusting arc the same object is
    ``refill``-ed from the end. ``true_longitude`` goes the other way, for
    a two-body propagation to an epoch.
    """

    n: float
    p1: float
    p2: float
    e: float
    pomega: float
    root: float  # sqrt(1 - e^2)
    lam: float

    def refill(self, eq: EquinoctialState, mu: float) -> None:
        """Take the Kepler constants and mean longitude of ``eq``, in place."""
        p1, p2 = eq.p1, eq.p2
        e = math.hypot(p1, p2)
        self.n = math.sqrt(mu / eq.a**3)
        self.p1 = p1
        self.p2 = p2
        self.e = e
        self.pomega = math.atan2(p1, p2)
        self.root = math.sqrt(1.0 - e * e)
        self.lam = self.mean_longitude(eq.ell)

    def mean_longitude(self, ell: float) -> float:
        """Mean longitude lambda = K + P1*cos(K) - P2*sin(K) at true
        longitude ``ell`` on the same orbit, unwrapped: the eccentric
        longitude K is taken on the branch within pi of ``ell``, so that
        differences of longitudes stay continuous."""
        e = self.e
        if e < 1e-15:
            k_long = ell
        else:
            theta = ell - self.pomega
            cos_th = math.cos(theta)
            denom = 1.0 + e * cos_th
            ecc_anom = math.atan2(self.root * math.sin(theta) / denom, (e + cos_th) / denom)
            ecc_anom += TWO_PI * round((theta - ecc_anom) / TWO_PI)
            k_long = ecc_anom + self.pomega
        return k_long + self.p1 * math.cos(k_long) - self.p2 * math.sin(k_long)

    def true_longitude(self, lam: float) -> float:
        """True longitude at mean longitude ``lam`` on the same orbit,
        unwrapped near the eccentric longitude K.

        K solves lambda = K + P1*cos(K) - P2*sin(K) by Newton iteration; the
        derivative 1 - P1*sin(K) - P2*cos(K) = r/a is strictly positive on
        elliptic orbits, so the iteration is well conditioned. Raises
        KeplerConvergenceError when the residual does not fall below 1e-13
        within 60 iterations.
        """
        p1, p2 = self.p1, self.p2
        k_long = lam
        for _ in range(60):
            g = k_long + p1 * math.cos(k_long) - p2 * math.sin(k_long) - lam
            if abs(g) < 1e-13:
                break
            k_long -= g / (1.0 - p1 * math.sin(k_long) - p2 * math.cos(k_long))
        else:
            raise KeplerConvergenceError(
                "Kepler solve did not reach |residual| < 1e-13 in 60 iterations"
            )
        e = self.e
        if e < 1e-15:
            return k_long
        ecc_anom = k_long - self.pomega
        denom = 1.0 - e * math.cos(ecc_anom)
        theta = math.atan2(self.root * math.sin(ecc_anom) / denom,
                           (math.cos(ecc_anom) - e) / denom)
        theta += TWO_PI * round((ecc_anom - theta) / TWO_PI)
        return theta + self.pomega


def kepler_start(eq: EquinoctialState, mu: float) -> KeplerStart:
    """Kepler constants and mean longitude of ``eq``, solved once."""
    start = KeplerStart.__new__(KeplerStart)  # every field set by refill
    start.refill(eq, mu)
    return start


def kepler_time_of_flight(eq: EquinoctialState, dl: float, start: KeplerStart) -> float:
    """Exact two-body time of flight from eq.ell to eq.ell + dl [s].

    ``start`` is ``kepler_start(eq, mu)``, solved once for every arc timed
    from the same state.
    """
    return (start.mean_longitude(eq.ell + dl) - start.lam) / start.n


def propagate_keplerian(eq: EquinoctialState, t_target: float, mu: float) -> EquinoctialState:
    """Two-body propagation of an equinoctial state to an epoch."""
    start = kepler_start(eq, mu)
    lam_target = start.lam + start.n * (t_target - eq.t)
    return EquinoctialState(eq.a, eq.p1, eq.p2, eq.q1, eq.q2,
                            start.true_longitude(lam_target), t_target)


# ---------------------------------------------------------------------------
# Cartesian state
# ---------------------------------------------------------------------------

def equinoctial_to_cartesian(eq: EquinoctialState, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Heliocentric position [km] and velocity [km/s] of an equinoctial state.

    Uses the equinoctial basis vectors built from Q1, Q2; valid for any
    elliptic orbit including circular and equatorial ones.
    """
    q1, q2 = eq.q1, eq.q2
    s2 = 1.0 + q1 * q1 + q2 * q2
    f_hat = np.array([1.0 - q1 * q1 + q2 * q2, 2.0 * q1 * q2, -2.0 * q1]) / s2
    g_hat = np.array([2.0 * q1 * q2, 1.0 + q1 * q1 - q2 * q2, 2.0 * q2]) / s2

    p = eq.semi_latus()
    sl, cl = math.sin(eq.ell), math.cos(eq.ell)
    r = p / (1.0 + eq.p1 * sl + eq.p2 * cl)
    sqrt_mu_p = math.sqrt(mu / p)

    pos = r * (cl * f_hat + sl * g_hat)
    vel = sqrt_mu_p * (-(eq.p1 + sl) * f_hat + (eq.p2 + cl) * g_hat)
    return pos, vel


# ---------------------------------------------------------------------------
# Variational rates (Gauss form, non-singular elements)
# ---------------------------------------------------------------------------

def gauss_rhs(eq: EquinoctialState, f: ThrustRTN, mu: float) -> np.ndarray:
    """Rates (da, dP1, dP2, dQ1, dQ2, dL)/dt under an in-plane RTN thrust
    acceleration.

    Standard non-singular Gauss variational form. An in-plane thrust leaves
    the orbit plane fixed, so dQ1 and dQ2 are 0 and dL/dt is the Keplerian
    rate h/r^2; with eps = 0 every element rate vanishes.
    """
    p = eq.semi_latus()
    h = math.sqrt(mu * p)
    sl, cl = math.sin(eq.ell), math.cos(eq.ell)
    phi = 1.0 + eq.p1 * sl + eq.p2 * cl
    r = p / phi

    f_r = f.eps * math.cos(f.alpha)
    f_t = f.eps * math.sin(f.alpha)

    da = (2.0 * eq.a**2 / h) * ((eq.p2 * sl - eq.p1 * cl) * f_r + phi * f_t)
    dp1 = (r / h) * (-phi * cl * f_r + (eq.p1 + (1.0 + phi) * sl) * f_t)
    dp2 = (r / h) * (phi * sl * f_r + (eq.p2 + (1.0 + phi) * cl) * f_t)
    return np.array([da, dp1, dp2, 0.0, 0.0, h / r**2])


# ---------------------------------------------------------------------------
# b-plane impact parameter
# ---------------------------------------------------------------------------

def bplane_normal(v_inf: np.ndarray) -> np.ndarray:
    """Unit normal of the b-plane: the direction of the incoming relative
    velocity. Raises DegenerateBPlaneError below ``V_INF_MIN``."""
    v_norm = math.hypot(*v_inf.tolist())
    if v_norm < V_INF_MIN:
        raise DegenerateBPlaneError(
            f"|v_inf| = {v_norm:.3e} km/s is below {V_INF_MIN}; b-plane undefined"
        )
    return v_inf / v_norm


def bplane_offset(d_vec: np.ndarray, v_hat: np.ndarray) -> np.ndarray:
    """Miss vector ``d_vec`` projected on the b-plane of unit normal
    ``v_hat`` (``bplane_normal``); its norm is the impact parameter.

    The dot product is summed in plain floats in index order, since a BLAS
    ``ddot`` rounds differently from one OpenBLAS kernel to another, and so
    would b; callers take the norm with ``math.hypot``, as
    ``bplane_normal`` does.
    """
    (d0, d1, d2), (v0, v1, v2) = d_vec.tolist(), v_hat.tolist()
    return d_vec - (d0 * v0 + d1 * v1 + d2 * v2) * v_hat
