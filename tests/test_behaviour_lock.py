"""Behaviour lock: pinned model outputs and CLI payload digests.

A change that only restructures the code must leave every value here
unchanged. A change that alters behaviour on purpose updates the pinned
values in the same commit and records why in CHANGES.md.

The model values are (m_sys [kg], b [km], arcs) of one deterministic
evaluation at the reference uncertain values, with the scenario margins,
compared at a relative tolerance of 1e-12. The digests are sha256 of CLI
payloads at tiny solver budgets: the deterministic and minmax archives,
the two Bel/Pl curves of one bpcurve run and both propagate trajectories.
Both depend on the floating-point results of the platform they were
pinned on (x86-64, CPython 3, numpy).
"""
import hashlib

import pytest

from neodeflect.cli import main, parse_design
from neodeflect.mission import (
    load_scenario,
    make_model,
    reference_scenario_path,
)

REL = 1e-12

# (design, contamination) -> (m_sys, b, n_arcs)
LOCKED_EVALUATIONS = {
    ("20,10,8,3000", False): (23985.820596489633, 25704.441007288984, 468),
    ("20,10,1,3000", False): (17893.530740347065, 509.83498381415984, 59),
    ("12,4,3.5,2000", False): (3598.6783015856527, 2.562238474455058, 59),
    ("8,6,6,2500", False): (3249.536504610369, 95.38342820200039, 175),
    ("2,1,1,1000", False): (80.56086217837202, 0.0, 1),
    ("16,8,3,2800", False): (9808.653373524985, 1052.1649105988524, 136),
    ("5,3,7.5,2600", False): (529.5951006525997, 6.756266755970943, 170),
    ("14,7,5.25,2200", False): (9302.329003099374, 316.13660872968916, 158),
    ("20,10,8,3000", True): (23985.820596489633, 92.91852175585856, 82),
    ("20,10,1,3000", True): (17893.530740347065, 9.271275415931425, 34),
    ("12,4,3.5,2000", True): (3598.6783015856527, 1.3356231721823386, 50),
    ("8,6,6,2500", True): (3249.536504610369, 15.562464191105974, 100),
    ("2,1,1,1000", True): (80.56086217837202, 0.0, 1),
    ("16,8,3,2800", True): (9808.653373524985, 22.303660294498204, 51),
    ("5,3,7.5,2600", True): (529.5951006525997, 4.182878022864031, 142),
    ("14,7,5.25,2200", True): (9302.329003099374, 16.85299496913483, 68),
}

DETERMINISTIC_ARCHIVE_SHA256 = (
    "786999054bbf0eb0d894f56d69a9febd09f1e0f760bac605914e34a962fff162"
)
MINMAX_ARCHIVE_SHA256 = (
    "6eaad2320c2c35534a3a2337d4b74e0ab4b48967c15360ac7cbcceb21dcbcbed"
)
# the curves of one bpcurve run at design 20,10,1,3000, --nv 5,
# --max-partitions 12, each over the parameters its objective reads; both
# curves are bounded exactly, box by box: the m_sys curve at its corners and
# the b curve, contamination off, at each box's dark and bright corners
BPCURVE_SHA256 = {
    "belpl_b.csv": "925c2e34c98c1b4353266dab016ef79a0c98a136373ff893b484726e86282cd1",
    "belpl_m_sys.csv": "fe910860b65047aa4e8887b7fceedd9110b5e2605884ea475e546e7bebcb4f7a",
}
TRAJECTORY_SHA256 = {
    "off": "871ef20545927077a1d0dbf6d3b9e81a3d57fe36cbd8aafaa2211bb233b2a837",
    "on": "624669b325e99250ec808ce5246d34cad45d343c2f873059dece7acb90c4cb69",
}


@pytest.fixture(scope="module")
def scenario():
    return load_scenario(reference_scenario_path())


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("contamination", [False, True])
def test_locked_model_evaluations(scenario, contamination):
    model = make_model(scenario, "deterministic", contamination)
    for (text, cont), (m_sys, b, n_arcs) in LOCKED_EVALUATIONS.items():
        if cont != contamination:
            continue
        ev = model.evaluate(parse_design(text), scenario.fixed_uncertain)
        assert abs(ev.m_sys - m_sys) <= REL * abs(m_sys), text
        assert abs(ev.b - b) <= REL * abs(b), text
        assert ev.n_arcs == n_arcs, text


def test_locked_deterministic_archive(tiny_scenario, tmp_path):
    out = tmp_path / "det"
    code = main(["--mode", "deterministic", "--scenario", str(tiny_scenario),
                 "--out", str(out), "--seed", "77"])
    assert code == 0
    assert sha256(out / "archive_deterministic.csv") == DETERMINISTIC_ARCHIVE_SHA256


def test_locked_minmax_archive(tiny_scenario, tmp_path):
    out = tmp_path / "minmax"
    code = main(["--mode", "minmax", "--scenario", str(tiny_scenario),
                 "--out", str(out), "--seed", "77"])
    assert code == 0
    assert sha256(out / "archive_minmax.csv") == MINMAX_ARCHIVE_SHA256


def test_locked_bpcurve_curves(tiny_scenario, tmp_path):
    out = tmp_path / "bpcurve"
    code = main(["--mode", "bpcurve", "--scenario", str(tiny_scenario),
                 "--out", str(out), "--seed", "77", "--design", "20,10,1,3000",
                 "--nv", "5", "--max-partitions", "12"])
    assert code == 0
    assert {name: sha256(out / name) for name in BPCURVE_SHA256} == BPCURVE_SHA256


@pytest.mark.parametrize("contamination", ["off", "on"])
def test_locked_propagate_trajectory(tiny_scenario, tmp_path, contamination):
    out = tmp_path / contamination
    code = main(["--mode", "propagate", "--scenario", str(tiny_scenario),
                 "--out", str(out), "--design", "20,10,1,3000",
                 "--contamination", contamination])
    assert code == 0
    assert sha256(out / "trajectory.csv") == TRAJECTORY_SHA256[contamination]
