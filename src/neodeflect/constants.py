"""Physical constants shared across the trajectory, ablation and sizing models.

Orbital mechanics works in km / s / rad; the ablation and spacecraft models
work in SI (m, kg, W, K) except where a field is explicitly documented
otherwise (the contamination layer is tracked in cm to match the absorption
coefficient, which is quoted per cm).
"""
import math

# Heliocentric two-body constants
MU_SUN = 1.32712440018e11   # km^3/s^2
AU_KM = 1.495978707e8       # km
YEAR_S = 365.25 * 86400.0   # Julian year, s

STEFAN_BOLTZMANN = 5.670374419e-8   # W/(m^2 K^4)
BOLTZMANN = 1.380649e-23            # J/K

# Ablation and plume models
S0 = 1367.0                         # solar flux at 1 AU, W/m^2
LAMBDA_SCATTER = 2.0 / math.pi      # hemispherical scattering factor of ejecta thrust
J_C = 0.345                         # jet constant of the exhaust-plume density model
KAPPA = 1.4                         # adiabatic index of the expanding gas
PHI_MAX = math.pi / 2.0             # plume edge: angle off its axis where density ends
RHO_LAYER = 1000.0                  # density of the condensed layer, kg/m^3
ETA_ABS = 1.0e4                     # absorption coefficient of the condensate, 1/cm
