"""Laser-spacecraft formation sizing: subsystem masses, powers, efficiencies.

A formation of identical spacecraft, each built around a primary collector
mirror that feeds a concentrated-light solar array powering the laser. The
mass model is a chain of closed-form subsystem estimates; the total
formation mass is the cost objective of the mission design problem.
All masses in kg, areas in m^2, powers in W.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
import math

from .constants import STEFAN_BOLTZMANN


@dataclass(frozen=True)
class DesignVector:
    """The four optimizable mission parameters, in the order of
    ``GENE_NAMES``; a scenario's ``design_bounds`` states their box.

    Attributes:
        d_m: primary mirror diameter [m].
        n_sc: number of spacecraft in the formation, an integer.
        t_warn: warning time from deflection start to impact [years].
        c_r: concentration ratio between collector and ablation spot
            power densities.
    """

    d_m: float
    n_sc: int
    t_warn: float
    c_r: float

    def __post_init__(self):
        if int(self.n_sc) != self.n_sc:
            raise ValueError("spacecraft count must be an integer")


# the design box's dimensions: the search's genes, the scenario's design
# bounds and the archive's first columns, in this order
GENE_NAMES = tuple(f.name for f in fields(DesignVector))


def check_design_bounds(design: DesignVector, bounds: dict) -> None:
    for name in GENE_NAMES:
        lo, hi = bounds[name]
        value = getattr(design, name)
        if not lo <= value <= hi:
            raise ValueError(f"{name}={value} outside bounds [{lo}, {hi}]")


@dataclass(frozen=True)
class TechnologyParams:
    """Efficiencies and specific masses of the laser spacecraft bus, each
    read from the scenario's ``technology`` block.

    Five entries are the technologically uncertain quantities
    (``mission.TECH_NAMES``: eta_l, eta_sa, rho_m, rho_l, rho_r), whose
    nominal values are the scenario's ``fixed_uncertain`` ones (the block
    must restate them); the remainder are fixed baseline assumptions.

    Attributes:
        eta_l: laser conversion efficiency.
        eta_sa: solar array efficiency.
        eta_p: power bus efficiency.
        emiss_m: mirror emissivity (throughput factor of the optical train).
        rho_r: radiator areal mass [kg/m^2].
        rho_l: laser specific mass per unit input power [kg/W].
        rho_m: mirror areal mass [kg/m^2].
        rho_s: solar array areal mass [kg/m^2].
        mf_c: harness mass fraction of laser plus array mass.
        mf_p: propellant mass fraction of dry mass.
        m_bus: fixed bus mass [kg].
        c_geo: geometric concentration of the collector onto the array;
            sizes the array area as primary area / c_geo.
        t_rad: radiator operating temperature [K].
        emiss_rad: radiator emissivity.
    """

    eta_l: float
    eta_sa: float
    eta_p: float
    emiss_m: float
    rho_r: float
    rho_l: float
    rho_m: float
    rho_s: float
    mf_c: float
    mf_p: float
    m_bus: float
    c_geo: float
    t_rad: float
    emiss_rad: float

    def __post_init__(self):
        for name in ("eta_l", "eta_sa", "eta_p", "emiss_m", "emiss_rad"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value}")
        for name in ("rho_r", "rho_l", "rho_m", "rho_s", "c_geo", "t_rad"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("m_bus", "mf_c", "mf_p"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class Margins:
    """Multiplicative system design margins (dry mass, arrays, mirrors, laser).

    All margins are 1 in evidence-theory runs, where the uncertainty is
    quantified explicitly instead of being absorbed by engineering margin.
    """

    k_dry: float
    k_s: float
    k_m: float
    k_l: float

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1.0:
                raise ValueError(f"margin {f.name} must be >= 1")


UNIT_MARGINS = Margins(1.0, 1.0, 1.0, 1.0)


@dataclass(slots=True)
class MassBudget:
    """Itemized mass and power budget of one spacecraft and the formation.

    Built at every mass evaluation, twice per design in the evidence modes,
    so slotted rather than frozen (a frozen dataclass writes each field
    through ``object.__setattr__``), but a value: no code assigns to a
    field of a budget once built."""

    m_c: float
    m_s: float
    m_m: float
    m_l: float
    m_r: float
    m_bus: float
    m_dry: float
    m_p: float
    m_sc: float
    m_sys: float
    p_l: float
    a_s: float
    a_r: float
    a_m1: float
    a_m2: float
    a_d: float
    eta_sys: float


def system_efficiency(tech: TechnologyParams) -> float:
    """Global optical-to-beam conversion efficiency of the laser system."""
    return tech.eta_l * tech.eta_sa * tech.eta_p * tech.emiss_m


def radiator_area(p_l: float, tech: TechnologyParams) -> float:
    """Radiator area from the steady-state balance of rejected heat.

    Everything collected that does not leave as laser light must be
    radiated: P_waste = (solar power on the arrays) * (1 - eta_sa*eta_l),
    at the radiator temperature and emissivity of ``tech``.
    """
    p_on_arrays = p_l / tech.eta_sa
    p_waste = p_on_arrays * (1.0 - tech.eta_sa * tech.eta_l)
    return p_waste / (tech.emiss_rad * STEFAN_BOLTZMANN * tech.t_rad**4)


def size_spacecraft(
    design: DesignVector,
    tech: TechnologyParams,
    margins: Margins,
    solar_flux_at_sc: float,
) -> MassBudget:
    """Size one spacecraft and the formation for a given design point.

    ``solar_flux_at_sc`` is the solar flux [W/m^2] at the formation's
    heliocentric distance (the formation flies with the asteroid).
    """
    a_m1 = math.pi * design.d_m**2 / 4.0
    a_m2 = 0.01 * a_m1
    a_d = a_m1 / design.c_r
    a_s = a_m1 / tech.c_geo

    p_l = tech.eta_sa * solar_flux_at_sc * a_m1
    m_l = margins.k_l * tech.rho_l * p_l * tech.eta_l
    m_s = margins.k_s * tech.rho_s * a_s
    m_m = margins.k_m * tech.rho_m * (a_d + a_m1 + 2.0 * a_m2)
    m_c = tech.mf_c * (m_s + m_l)
    a_r = radiator_area(p_l, tech)
    m_r = tech.rho_r * a_r

    m_dry = margins.k_dry * (m_c + m_s + m_m + m_l + m_r + tech.m_bus)
    m_p = tech.mf_p * m_dry
    m_sc = m_dry + 1.1 * m_p
    m_sys = design.n_sc * m_sc
    return MassBudget(
        m_c=m_c, m_s=m_s, m_m=m_m, m_l=m_l, m_r=m_r, m_bus=tech.m_bus,
        m_dry=m_dry, m_p=m_p, m_sc=m_sc, m_sys=m_sys,
        p_l=p_l, a_s=a_s, a_r=a_r, a_m1=a_m1, a_m2=a_m2, a_d=a_d,
        eta_sys=system_efficiency(tech),
    )
