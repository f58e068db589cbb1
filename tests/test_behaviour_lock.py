"""Behaviour lock: pinned model outputs and CLI payload digests.

A change that only restructures the code must leave every value here
unchanged. A change that alters behaviour on purpose updates the pinned
values in the same commit and records why in CHANGES.md.

The model values are (m_sys [kg], b [km], arcs) of one deterministic
evaluation at the reference uncertain values, with the scenario margins,
compared at a relative tolerance of 1e-12.

The digests are the listing of ``scripts/cli_digests.py``: the sha256 of
every file that every CLI mode writes, contamination off and on, at the
script's tiny budgets (its ``RUNS``, ``SOLVER``, ``SEED`` and ``DESIGN``).
``tests/data/cli_digests.txt`` pins all of them but the two
``propagate_summary.json`` files, whose RK oracle b moves with the BLAS
kernel. A deliberate change regenerates the listing from the repository
root with

    python scripts/cli_digests.py . /tmp/d | grep -v '/propagate_summary.json$' > tests/data/cli_digests.txt

sizes the move with ``cli_digests.py --compare`` against the parent's
payloads, and records why in CHANGES.md.

Both kinds of value depend on the floating-point results of the platform
they were pinned on (x86-64, CPython 3, numpy).
"""
import subprocess
import sys
from pathlib import Path

import pytest

import cli_digests
from neodeflect.cli import parse_design
from neodeflect.mission import (
    MODES,
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


@pytest.fixture(scope="module")
def scenario():
    return load_scenario(reference_scenario_path())


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


ROOT = Path(__file__).resolve().parent.parent
LISTING = ROOT / "tests" / "data" / "cli_digests.txt"
# written by every run but not pinned: the RK b moves with the BLAS kernel
SUMMARIES = {f"propagate-{c}/propagate_summary.json" for c in ("off", "on")}


def read_listing(text: str) -> dict[str, str]:
    """file -> sha256 of a ``cli_digests.py`` listing."""
    return {name: digest for digest, name in (line.split("  ") for line in text.splitlines())}


PINNED = read_listing(LISTING.read_text())


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """The listing of one ``cli_digests.py`` run of this tree, and its OUT."""
    out = tmp_path_factory.mktemp("cli_digests")
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "cli_digests.py"),
                           str(ROOT), str(out)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return read_listing(done.stdout), out


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cli_payload_is_pinned(cli_run, name):
    digests, out = cli_run
    assert digests.get(name) == PINNED[name], (
        f"{name} differs from {LISTING.name}: size the move with "
        f"python scripts/cli_digests.py PARENT_TREE OLD, then "
        f"python scripts/cli_digests.py --compare OLD {out}"
    )


def test_cli_run_writes_exactly_the_pinned_files(cli_run):
    digests, _ = cli_run
    assert sorted(digests) == sorted(PINNED.keys() | SUMMARIES)


def test_every_mode_is_pinned():
    assert sorted(mode for mode, _ in cli_digests.RUNS) == sorted(MODES)
