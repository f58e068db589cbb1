#!/usr/bin/env python3
"""Build the shipped reference scenario.

Starts from public osculating elements of asteroid 99942 Apophis and
modifies them for an exact Earth intercept, the same way the study
scenario modifies the real object: the semi-major axis is nudged so that
a maximum-length deflection campaign starts on the approach to perihelion
(which gives the mirror-contamination dynamics their characteristic
first-revolution collapse), the eccentricity is solved so the
ascending-node radius equals 1 AU (an exact intersection with a circular
1 AU Earth orbit), the Earth is phased to sit at the node longitude at
the impact epoch, and the asteroid phase is calibrated (``calibration.py``,
next to this script) so the unperturbed miss distance is zero.

Usage: python3 scripts/make_reference_scenario.py [out.json]
"""
import json
import math
import sys
from pathlib import Path

if __name__ == "__main__":  # run from a checkout: the package next to this script
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from calibration import calibrate_scenario, nominal_miss
from neodeflect.constants import AU_KM, MU_SUN, YEAR_S
from neodeflect.mission import scenario_from_dict, scenario_to_dict

# Public Apophis osculating elements (heliocentric ecliptic, ~2011 epoch)
A_AST = 0.9325 * AU_KM
INC = math.radians(3.331)
RAAN = math.radians(204.446)
ARGP = math.radians(126.394)

T_IMPACT = 8.2 * YEAR_S


def node_matched_eccentricity() -> float:
    """Eccentricity putting the ascending node exactly at 1 AU.

    At the ascending node the true anomaly is -argp, so
    a (1 - e^2) = r_node (1 + e cos(argp)); solve the quadratic for the
    root nearest the published value (0.1914).
    """
    c = math.cos(ARGP)
    # a e^2 + AU c e + (AU - a) = 0
    disc = (AU_KM * c) ** 2 - 4.0 * A_AST * (AU_KM - A_AST)
    e1 = (-AU_KM * c + math.sqrt(disc)) / (2.0 * A_AST)
    e2 = (-AU_KM * c - math.sqrt(disc)) / (2.0 * A_AST)
    return min((e for e in (e1, e2) if 0.0 < e < 1.0), key=lambda e: abs(e - 0.1914))



def main(out_path: str) -> None:
    ecc = node_matched_eccentricity()
    print(f"node-matched eccentricity: {ecc:.12f}")

    # Earth: circular 1 AU orbit phased to the asteroid node at impact
    n_earth = math.sqrt(MU_SUN / AU_KM**3)
    theta_earth = (RAAN - n_earth * T_IMPACT) % (2.0 * math.pi)

    doc = {
        "schema_version": 1,
        "mu_sun_km3s2": MU_SUN,
        "t_impact_s": T_IMPACT,
        "asteroid": {
            "a_km": A_AST, "e": ecc, "i_rad": INC,
            "raan_rad": RAAN, "argp_rad": ARGP, "theta_rad": 0.0,
        },
        "earth": {
            "a_km": AU_KM, "e": 0.0, "i_rad": 0.0,
            "raan_rad": 0.0, "argp_rad": 0.0, "theta_rad": theta_earth,
        },
        "asteroid_properties": {
            "c_a": 750.0, "k_a": 2.0, "rho_a": 2600.0, "t_subl": 1800.0,
            "e_sub": 5.0e6, "t_0": 278.0, "albedo": 0.1, "emiss_bb": 0.9,
            "a1": 135.0, "b1": 135.0,
            "omega_a": 2.0 * math.pi / (30.4 * 3600.0),
            "m_a": None,
            "mol_mass": 2.3363374e-25,
        },
        "technology": {
            "eta_l": 0.6, "eta_sa": 0.41, "eta_p": 0.95, "emiss_m": 0.95,
            "rho_r": 1.4, "rho_l": 0.005, "rho_m": 0.1, "rho_s": 1.0,
            "mf_c": 0.1, "mf_p": 0.05, "m_bus": 50.0, "c_geo": 25.0,
            "t_rad": 350.0, "emiss_rad": 0.9,
        },
        "margins": {"k_dry": 1.2, "k_s": 1.15, "k_m": 1.25, "k_l": 1.5},
        "design_bounds": {
            "d_m": [2.0, 20.0], "n_sc": [1, 10],
            "t_warn": [1.0, 8.0], "c_r": [1000.0, 3000.0],
        },
        "arc_control": {"a_const": 0.05, "k_const": 2.0, "dl_max": 0.1},
        "station": {"x": 3000.0, "y": 0.0, "z": 0.0,
                    "theta_va": math.pi / 2.0, "psi_vf": 0.0},
        "contamination": False,
        "fixed_uncertain": {
            "c_a": 750.0, "k_a": 2.0, "rho_a": 2600.0, "t_sub": 1800.0,
            "e_sub": 5.0e6, "eta_l": 0.6, "eta_sa": 0.41, "rho_m": 0.1,
            "rho_l": 0.005, "rho_r": 1.4,
        },
        "expert_opinions_file": "expert_opinions.json",
        "solver": {
            "outer_budget": 30000, "outer_pop": 10, "explorers": 2,
            "inner_budget": 250, "inner_pop": 5, "archive_capacity": 200,
        },
        "seed": 20260809,
    }

    scenario = scenario_from_dict(doc)
    calibrated = calibrate_scenario(scenario)
    miss = nominal_miss(calibrated)
    print(f"calibrated theta0 = {calibrated.asteroid.theta:.12f} rad")
    print(f"nominal miss distance: {miss:.6e} km")
    assert miss < 1.0

    out = scenario_to_dict(calibrated)
    Path(out_path).write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else str(
        Path(__file__).parent.parent / "src" / "neodeflect" / "data" / "reference_scenario.json"
    )
    main(target)
