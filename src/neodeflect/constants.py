"""Physical constants shared across the trajectory, ablation and sizing models.

Orbital mechanics works in km / s / rad; the ablation and spacecraft models
work in SI (m, kg, W, K) except where a field is explicitly documented
otherwise (the contamination layer is tracked in cm to match the absorption
coefficient, which is quoted per cm).
"""
from dataclasses import dataclass
import math

# Heliocentric two-body constants
MU_SUN = 1.32712440018e11   # km^3/s^2
AU_KM = 1.495978707e8       # km
YEAR_S = 365.25 * 86400.0   # Julian year, s

# Forsterite Mg2SiO4 molecular mass
MOL_MASS_FORSTERITE_KG = (2 * 24.305 + 28.085 + 4 * 15.999) * 1e-3 / 6.02214076e23

STEFAN_BOLTZMANN = 5.670374419e-8   # W/(m^2 K^4)
BOLTZMANN = 1.380649e-23            # J/K


@dataclass(frozen=True)
class PhysicalConstants:
    """Fixed constants of the ablation and plume models.

    Attributes:
        sigma: Stefan-Boltzmann constant [W/(m^2 K^4)].
        k_b: Boltzmann constant [J/K].
        s0: solar flux at 1 AU [W/m^2].
        au: astronomical unit [km].
        lambda_scatter: hemispherical scattering factor for the ejecta thrust.
        j_c: jet constant of the exhaust-plume density model.
        kappa: adiabatic index of the expanding gas.
        rho_layer: density of the condensed contamination layer [kg/m^3].
        eta_abs: optical absorption coefficient of the condensate [1/cm].
    """

    sigma: float = STEFAN_BOLTZMANN
    k_b: float = BOLTZMANN
    s0: float = 1367.0
    au: float = AU_KM
    lambda_scatter: float = 2.0 / math.pi
    j_c: float = 0.345
    kappa: float = 1.4
    rho_layer: float = 1000.0
    eta_abs: float = 1.0e4


DEFAULT_CONSTANTS = PhysicalConstants()
