"""Spacecraft sizing chain against an independent straight-line oracle."""
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import REFERENCE
from neodeflect.constants import STEFAN_BOLTZMANN
from neodeflect.sizing import (
    DesignVector,
    Margins,
    MassBudget,
    UNIT_MARGINS,
    check_design_bounds,
    radiator_area,
    size_spacecraft,
    system_efficiency,
)

# the design box of the paper and its engineering margins
DESIGN_BOUNDS = {
    "d_m": (2.0, 20.0),
    "n_sc": (1, 10),
    "t_warn": (1.0, 8.0),
    "c_r": (1000.0, 3000.0),
}
TABLE_MARGINS = REFERENCE.margins
TECH = REFERENCE.technology


def sizing_oracle(design, tech, margins, flux):
    """Straight-line re-statement of the mass chain, kept deliberately
    independent of the package implementation."""
    a_m1 = math.pi * design.d_m * design.d_m / 4
    a_m2 = 0.01 * a_m1
    a_d = a_m1 / design.c_r
    a_s = a_m1 / tech.c_geo
    p_l = tech.eta_sa * flux * a_m1
    m_l = margins.k_l * tech.rho_l * p_l * tech.eta_l
    m_s = margins.k_s * tech.rho_s * a_s
    m_m = margins.k_m * tech.rho_m * (a_d + a_m1 + 2 * a_m2)
    m_c = tech.mf_c * (m_s + m_l)
    p_waste = (p_l / tech.eta_sa) * (1 - tech.eta_sa * tech.eta_l)
    a_r = p_waste / (tech.emiss_rad * STEFAN_BOLTZMANN * tech.t_rad**4)
    m_r = tech.rho_r * a_r
    m_dry = margins.k_dry * (m_c + m_s + m_m + m_l + m_r + tech.m_bus)
    m_sc = m_dry + 1.1 * tech.mf_p * m_dry
    return design.n_sc * m_sc


def random_inputs(rng):
    design = DesignVector(
        d_m=rng.uniform(2, 20),
        n_sc=int(rng.integers(1, 11)),
        t_warn=rng.uniform(1, 8),
        c_r=rng.uniform(1000, 3000),
    )
    tech = replace(
        TECH,
        eta_l=rng.uniform(0.4, 0.664),
        eta_sa=rng.uniform(0.2, 0.5),
        eta_p=rng.uniform(0.9, 1.0),
        emiss_m=rng.uniform(0.9, 1.0),
        rho_r=rng.uniform(1, 4),
        rho_l=rng.uniform(0.005, 0.02),
        rho_m=rng.uniform(0.01, 0.5),
        rho_s=rng.uniform(0.5, 2.0),
        mf_c=rng.uniform(0.05, 0.2),
        mf_p=rng.uniform(0.02, 0.1),
        m_bus=rng.uniform(20, 200),
        c_geo=rng.uniform(10, 50),
    )
    margins = Margins(
        k_dry=rng.uniform(1.0, 1.5),
        k_s=rng.uniform(1.0, 1.5),
        k_m=rng.uniform(1.0, 1.5),
        k_l=rng.uniform(1.0, 1.8),
    )
    flux = rng.uniform(600, 2500)
    return design, tech, margins, flux


def test_oracle_equivalence_1000_samples():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        design, tech, margins, flux = random_inputs(rng)
        budget = size_spacecraft(design, tech, margins, flux)
        assert budget.m_sys == pytest.approx(
            sizing_oracle(design, tech, margins, flux), rel=1e-9
        )


def test_mass_linear_in_spacecraft_count():
    tech = TECH
    one = size_spacecraft(DesignVector(12.0, 1, 4.0, 2000.0), tech, TABLE_MARGINS, 1367.0)
    two = size_spacecraft(DesignVector(12.0, 2, 4.0, 2000.0), tech, TABLE_MARGINS, 1367.0)
    ten = size_spacecraft(DesignVector(12.0, 10, 4.0, 2000.0), tech, TABLE_MARGINS, 1367.0)
    assert two.m_sys == 2.0 * one.m_sys
    assert ten.m_sys == 10.0 * one.m_sys


def test_margins_inflate_every_component():
    tech = TECH
    design = DesignVector(20.0, 10, 8.0, 3000.0)
    margined = size_spacecraft(design, tech, TABLE_MARGINS, 1367.0)
    plain = size_spacecraft(design, tech, UNIT_MARGINS, 1367.0)
    for field in ("m_c", "m_s", "m_m", "m_l", "m_r", "m_dry", "m_sc", "m_sys"):
        assert getattr(plain, field) <= getattr(margined, field)
    assert plain.m_dry < margined.m_dry


def test_mass_increasing_in_mirror_diameter():
    tech = TECH
    masses = [
        size_spacecraft(DesignVector(d, 5, 4.0, 2500.0), tech, TABLE_MARGINS, 1367.0).m_sys
        for d in np.linspace(2, 20, 12)
    ]
    assert all(m2 > m1 for m1, m2 in zip(masses, masses[1:]))


def test_budget_internal_consistency():
    rng = np.random.default_rng(5)
    for _ in range(100):
        design, tech, margins, flux = random_inputs(rng)
        b = size_spacecraft(design, tech, margins, flux)
        parts = b.m_c + b.m_s + b.m_m + b.m_l + b.m_r + b.m_bus
        assert b.m_dry == pytest.approx(margins.k_dry * parts, rel=1e-12)
        assert b.m_sc / b.m_dry == pytest.approx(1 + 1.1 * tech.mf_p, rel=1e-12)
        assert b.m_sys == b.m_sc * design.n_sc


def test_system_efficiency():
    assert system_efficiency(replace(TECH, eta_l=1, eta_sa=1, eta_p=1, emiss_m=1)) == 1.0
    assert system_efficiency(
        replace(TECH, eta_l=0.6, eta_sa=0.41, eta_p=1.0, emiss_m=1.0)
    ) == pytest.approx(0.246)
    base = system_efficiency(TECH)
    assert system_efficiency(replace(TECH, eta_l=0.5)) < base


def test_radiator_balance_hand_value():
    # pick eta so that the waste power is exactly 10 kW
    tech = replace(TECH, eta_l=0.5, eta_sa=0.5, t_rad=350.0, emiss_rad=0.9)
    p_l = 10e3 * tech.eta_sa / (1 - tech.eta_sa * tech.eta_l)
    a_r = radiator_area(p_l, tech)
    assert a_r == pytest.approx(13.05, rel=2e-3)
    assert radiator_area(0.0, tech) == 0.0
    assert radiator_area(2 * p_l, tech) == pytest.approx(2 * a_r, rel=1e-12)


def test_design_bounds_check():
    check_design_bounds(DesignVector(2.0, 1, 1.0, 1000.0), DESIGN_BOUNDS)
    check_design_bounds(DesignVector(20.0, 10, 8.0, 3000.0), DESIGN_BOUNDS)
    with pytest.raises(ValueError):
        check_design_bounds(DesignVector(25.0, 5, 4.0, 2000.0), DESIGN_BOUNDS)
    with pytest.raises(ValueError):
        DesignVector(10.0, 2.5, 4.0, 2000.0)


@pytest.mark.parametrize("name", ["d_m", "n_sc", "t_warn", "c_r"])
def test_design_bounds_check_reads_every_gene(name):
    """A design outside the box in any one of the four genes is refused by
    name, just below the box and just above it."""
    inside = DesignVector(10.0, 5, 4.0, 2000.0)
    check_design_bounds(inside, DESIGN_BOUNDS)
    lo, hi = DESIGN_BOUNDS[name]
    for value in (lo - 1, hi + 1):
        with pytest.raises(ValueError, match=f"^{name}="):
            check_design_bounds(replace(inside, **{name: value}), DESIGN_BOUNDS)


def test_validation_errors():
    with pytest.raises(ValueError):
        replace(TECH, eta_l=0.0)
    with pytest.raises(ValueError):
        replace(TECH, rho_l=-1.0)
    with pytest.raises(ValueError):
        replace(TABLE_MARGINS, k_dry=0.9)
