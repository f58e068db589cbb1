"""CLI orchestration: exit codes, outputs, provenance reproducibility."""
import contextlib
import functools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neodeflect import cli, mission
from neodeflect.cli import de_box_bounder, main, parse_design
from neodeflect.evidence import FocalStructure, SubBox, first_inside
from neodeflect.fpet import ArcOverflowError
from neodeflect.mission import (
    B_NAMES,
    TECH_NAMES,
    evidence_structure,
    load_scenario,
    reference_scenario_path,
)
from neodeflect.orbits import KeplerConvergenceError
from neodeflect.search import decode_design, inner_bound_search

import oracles
from oracles import box_search


def test_parse_design():
    d = parse_design("12.5, 7, 3.5, 2200")
    assert (d.d_m, d.n_sc, d.t_warn, d.c_r) == (12.5, 7, 3.5, 2200.0)
    with pytest.raises(ValueError):
        parse_design("1,2,3")


def test_unknown_mode_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["--mode", "nonsense"])


def test_schema_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code = main(["--mode", "propagate", "--scenario", str(bad),
                 "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("mode, design", [
    ("propagate", "20,10,8,0"),
    ("propagate", "20,10,0,3000"),
    ("propagate", "20,0,2,3000"),
    ("propagate", "25,10,2,3000"),
    ("bpcurve", "20,10,0,3000"),
    ("sensitivity", "20,10,0,3000"),
])
def test_design_outside_bounds_exit_code(tiny_scenario, tmp_path, capsys, mode, design):
    """A --design outside the scenario's design bounds is an input error."""
    code = main(["--mode", mode, "--scenario", str(tiny_scenario),
                 "--design", design, "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "outside bounds" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("mode", ["propagate", "deterministic"])
@pytest.mark.parametrize("block, name, value", [
    ("design_bounds", "d_m", 5),
    ("design_bounds", "d_m", [2]),
    ("design_bounds", "d_m", [20, 2]),
    ("fixed_uncertain", "c_a", "x"),
    ("fixed_uncertain", "c_a", -5),
    ("fixed_uncertain", "c_a", math.nan),
    ("fixed_uncertain", "c_a", math.inf),
    (None, "mu_sun_km3s2", math.nan),
    ("technology", "m_bus", math.nan),
    ("station", "x", math.nan),
    ("arc_control", "a_const", math.nan),
    ("solver", "outer_budget", math.inf),
    ("solver", "inner_pop", 4.5),
    ("technology", "c_geo", 0.0),
    ("technology", "emiss_rad", 0.0),
    ("technology", "emiss_rad", 1.5),
    ("technology", "t_rad", 0.0),
    ("technology", "m_bus", -1e6),
    ("technology", "mf_c", -0.1),
    ("technology", "mf_p", -0.1),
    ("asteroid_properties", "m_a", 0.0),
    ("asteroid_properties", "m_a", -1.0),
    ("design_bounds", "d_m", [0, 20]),
    ("design_bounds", "n_sc", [0, 10]),
    ("design_bounds", "t_warn", [0, 8]),
    ("design_bounds", "c_r", [0, 3000]),
    ("design_bounds", "n_spacecraft", [1, 3]),
    ("fixed_uncertain", "eta_L", 0.9),
    ("design_bounds", "n_sc", [1.2, 1.4]),
    ("design_bounds", "n_sc", [2.4, 3.4]),
    ("technology", "emiss_m", True),
    ("margins", "k_dry", True),
    ("station", "theta_va", "x"),
    ("station", "x", [1.0]),
    ("station", "psi_vf", 2.0),
    (None, "contamination_on", True),
    ("asteroid_properties", "c_a", 1500.0),
    ("technology", "rho_m", 0.5),
    ("fixed_uncertain", "t_sub", 1700.0),
    ("repeated", "seed", 9),
], ids=["bound-number", "bound-one", "bound-reversed", "uncertain-string",
        "uncertain-negative", "uncertain-nan", "uncertain-inf", "mu-nan",
        "technology-nan", "station-nan", "arc-control-nan", "solver-budget-inf",
        "solver-pop-fraction", "c-geo-zero", "emiss-rad-zero", "emiss-rad-above-one",
        "t-rad-zero", "m-bus-negative", "mf-c-negative", "mf-p-negative", "m-a-zero",
        "m-a-negative", "d-m-lower-zero", "n-sc-lower-zero", "t-warn-lower-zero",
        "c-r-lower-zero", "bound-unknown-name", "uncertain-unknown-name",
        "n-sc-fractional-no-count", "n-sc-fractional", "emiss-m-bool", "k-dry-bool",
        "theta-va-string", "station-x-array", "psi-vf-past-right-angle",
        "top-level-unknown-name", "c-a-copy-differs", "rho-m-copy-differs",
        "t-sub-copy-differs", "seed-repeated"])
def test_malformed_scenario_value_exit_code(tiny_scenario, tmp_path, capsys, mode, block,
                                            name, value):
    """A design bound that is not a (lo, hi) pair of numbers with lo <= hi,
    a lower design bound that admits d_m, t_warn or c_r <= 0 or no spacecraft,
    spacecraft-count bounds that are not integers (their rounded counts
    would leave them: [1.2, 1.4] holds no count),
    an unknown name among the design bounds, the fixed uncertain values or
    the document's own keys (``contamination_on`` would be read as nothing),
    a fixed uncertain value that is not a number or that its dataclass
    refuses, a technology or asteroid value that the sizing or the thrust
    would divide by or turn negative, a solver size that is not an integer,
    a value not of its field's type (a bool for a number), a station view
    angle whose cosine is negative, a baseline's copy of an uncertain
    parameter that differs from its fixed value (no evaluation reads the
    copy), a NaN or infinity anywhere in the document, or a key given twice
    in one object (block ``repeated``: first with ``value``, then with its
    own), is a scenario error: exit 2 with one line on stderr that names
    the key, nothing written."""
    doc = json.loads(tiny_scenario.read_text())
    if block == "repeated":  # raw text, as json.dumps cannot repeat a key
        text = json.dumps(doc).replace(f'"{name}": ', f'"{name}": {value}, "{name}": ', 1)
    else:
        (doc[block] if block else doc)[name] = value
        text = json.dumps(doc)
    tiny_scenario.write_text(text)
    out = tmp_path / "run"
    code = main(["--mode", mode, "--scenario", str(tiny_scenario), "--design", "10,5,2,2000",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and name in err
    assert not out.exists()


@pytest.mark.parametrize("block, name", [
    ("station", "x"), ("asteroid_properties", "mol_mass"), ("solver", None),
])
def test_missing_scenario_key_exit_code(tiny_scenario, tmp_path, capsys, block, name):
    """A block without one of its owner's keys is a scenario error (its
    dataclass has no default to run at): exit 2 with one line naming the
    key."""
    doc = json.loads(tiny_scenario.read_text())
    if name is None:  # an empty block lacks its first key
        name = next(iter(doc[block]))
        doc[block] = {}
    else:
        del doc[block][name]
    tiny_scenario.write_text(json.dumps(doc))
    code = main(["--mode", "propagate", "--scenario", str(tiny_scenario),
                 "--design", "20,10,2,3000", "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"{block}: missing required key {name!r}" in err


@pytest.mark.parametrize("design", ["25,10,2,3000", "20,10"])
def test_optimization_modes_ignore_design(tiny_scenario, tmp_path, design):
    code = main(["--mode", "deterministic", "--scenario", str(tiny_scenario),
                 "--design", design, "--out", str(tmp_path / "run")])
    assert code == 0


# an edit of the shipped opinions: (expert field or the first c_a interval's
# field, value, what the error message names)
_OPINION_EDITS = {
    "nan-lo": ("lo", math.nan, "finite"),
    "inf-hi": ("hi", math.inf, "finite"),
    "nan-weight": ("weight", math.nan, "weight"),
    "negative-weight": ("weight", -1.0, "weight"),
    "bool-lo": ("lo", True, "not of type 'number'"),
}
# a key of the shipped opinions renamed, or added where the old key is
# None: (block of expert a, old key, new key, which the error message names)
_OPINION_KEYS = {
    "unknown-document-key": ("document", None, "comment"),
    "misspelt-weight": ("expert", "weight", "wieght"),
    "misspelt-parameter": ("parameters", "c_a", "c_A"),
    "unknown-interval-key": ("interval", None, "mode"),
}
# opinion documents of the wrong shape
_OPINION_DOCS = {
    "string-expert": {"experts": ["x"]},
    "null-expert": {"experts": [None]},
    "list-parameters": {"experts": [{"id": "a", "parameters": []}]},
}


@pytest.mark.parametrize("opinions", ["missing", "malformed", "incomplete", "repeated-weight",
                                      *_OPINION_EDITS, *_OPINION_KEYS, *_OPINION_DOCS])
@pytest.mark.parametrize("mode", ["minmin", "minmin-margins", "minmax", "bpcurve",
                                  "sensitivity"])
def test_expert_opinion_failure_exit_code(tiny_scenario, tmp_path, capsys, mode, opinions):
    """An opinion file that is missing, is not JSON, leaves out a parameter,
    gives a key twice in one object, has an interval bound that is not
    finite or a bool, an expert weight that is not a finite number >= 0, a
    key or a parameter name the format does not know, or an expert or
    parameter block that is not an object is a scenario error: exit 2 with
    one line on stderr."""
    path = tmp_path / "opinions.json"
    shipped = reference_scenario_path().parent / "expert_opinions.json"
    doc = json.loads(shipped.read_text())
    if opinions == "malformed":
        path.write_text('{"experts": [')
    elif opinions == "incomplete":
        for expert in doc["experts"]:
            expert["parameters"].pop("c_a", None)
        path.write_text(json.dumps(doc))
    elif opinions == "repeated-weight":  # raw text, as json.dumps cannot repeat a key
        path.write_text(json.dumps(doc).replace('"weight": 1.0', '"weight": 1.0, "weight": 5.0', 1))
    elif opinions in _OPINION_EDITS:
        key, value, _ = _OPINION_EDITS[opinions]
        expert = next(e for e in doc["experts"] if e["parameters"].get("c_a"))
        (expert if key == "weight" else expert["parameters"]["c_a"][0])[key] = value
        path.write_text(json.dumps(doc))
    elif opinions in _OPINION_KEYS:
        block, old, new = _OPINION_KEYS[opinions]
        expert = doc["experts"][0]
        target = {"document": doc, "expert": expert, "parameters": expert["parameters"],
                  "interval": expert["parameters"]["c_a"][0]}[block]
        target[new] = target.pop(old) if old else 1.0
        path.write_text(json.dumps(doc))
    elif opinions in _OPINION_DOCS:
        path.write_text(json.dumps(_OPINION_DOCS[opinions]))
    scenario = json.loads(tiny_scenario.read_text())
    scenario["expert_opinions_file"] = str(path)
    tiny_scenario.write_text(json.dumps(scenario))
    code = main(["--mode", mode, "--scenario", str(tiny_scenario),
                 "--design", "20,10,2,3000", "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: expert opinions {path}: ")
    assert len(err.splitlines()) == 1
    if opinions in _OPINION_EDITS:
        assert _OPINION_EDITS[opinions][2] in err
    if opinions in _OPINION_KEYS:
        assert repr(_OPINION_KEYS[opinions][2]) in err
    if opinions in _OPINION_DOCS:
        assert "is not of type 'object'" in err
    if opinions == "repeated-weight":
        assert "key 'weight' is given twice" in err


def test_degenerate_bplane_exit_code(tiny_scenario, tmp_path, capsys):
    """Reference orbits with no encounter velocity are a scenario error,
    not a solver-budget one: the earth block repeats the asteroid's."""
    doc = json.loads(tiny_scenario.read_text())
    doc["earth"] = doc["asteroid"]
    tiny_scenario.write_text(json.dumps(doc))
    code = main(["--mode", "propagate", "--scenario", str(tiny_scenario),
                 "--design", "2,1,1,1000", "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: |v_inf| = 0.000e+00 km/s is below ")
    assert len(err.splitlines()) == 1


def _config_hash(tiny_scenario, out, *args):
    assert main(["--scenario", str(tiny_scenario), "--out", str(out), *args]) == 0
    return json.loads((out / "manifest.json").read_text())["config_hash"]


def test_config_hash_covers_what_the_mode_reads(tiny_scenario, tmp_path):
    """Arguments a mode ignores, or spell the same design, leave the hash
    alone; one that changes the payload changes it."""
    det = ["--mode", "deterministic", "--seed", "5"]
    assert _config_hash(tiny_scenario, tmp_path / "d1", *det, "--design", "20,10,8,3000") == (
        _config_hash(tiny_scenario, tmp_path / "d2", *det, "--design", "5,3,2,2000")
    )
    prop = ["--mode", "propagate", "--design", "20,10,1,3000"]
    plain = _config_hash(tiny_scenario, tmp_path / "p1", *prop)
    assert plain != _config_hash(tiny_scenario, tmp_path / "p2", *prop, "--oracle")
    assert plain == _config_hash(tiny_scenario, tmp_path / "p3", "--mode", "propagate",
                                 "--design", "20.0,10,1.0,3e3")
    # the evidence modes read the expert-opinion file, named alike in both
    # runs: a weight that moves the fused structure moves the hash
    doc = json.loads(tiny_scenario.read_text())
    opinions = json.loads(Path(doc["expert_opinions_file"]).read_text())
    path = tmp_path / "opinions.json"
    doc["expert_opinions_file"] = str(path)
    tiny_scenario.write_text(json.dumps(doc))
    curve = ["--mode", "bpcurve", "--design", "20,10,2,3000", "--nv", "3",
             "--max-partitions", "2"]
    hashes, structures = [], []
    for weight in (1.0, 3.0):
        next(e for e in opinions["experts"] if e["id"] == "a")["weight"] = weight
        path.write_text(json.dumps(opinions))
        out = tmp_path / f"w{weight}"
        hashes.append(_config_hash(tiny_scenario, out, *curve))
        structures.append((out / "fused_structure.csv").read_text())
    assert structures[0] != structures[1]
    assert hashes[0] != hashes[1]


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("target, replacement", [
    ("neodeflect.mission.propagate_trajectory",
     _raise(ArcOverflowError("exceeded 200000 arcs before reaching t_end"))),
    ("neodeflect.mission.propagate_keplerian",
     _raise(KeplerConvergenceError("Kepler solve did not converge"))),
    ("scipy.integrate.solve_ivp",
     lambda *a, **k: SimpleNamespace(success=False, message="step size too small")),
], ids=["arc_overflow", "kepler_convergence", "reference_integration"])
def test_numerical_failure_exit_code(tiny_scenario, tmp_path, capsys, monkeypatch,
                                     target, replacement):
    """The arc cap, a Kepler solve and the reference integration fail as
    exit 4 with one line on stderr, not as a traceback."""
    monkeypatch.setattr(target, replacement)
    code = main([
        "--mode", "propagate", "--scenario", str(tiny_scenario), "--oracle",
        "--design", "20,10,1,3000", "--out", str(tmp_path / "run"),
    ])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure: ")
    assert len(err.splitlines()) == 1


def test_reference_stage_outside_elliptic_domain_exit_code(tiny_scenario, tmp_path, capsys):
    """A stage of the reference integration that leaves the elliptic domain
    is a failed reference integration: exit 4 with one line on stderr. At
    the ``B_NAMES`` bright corner with contamination on, the oracle's
    solver tries such a stage at this design."""
    doc = json.loads(tiny_scenario.read_text())
    bright = {"c_a": 375.0, "k_a": 0.2, "rho_a": 1100.0, "t_sub": 1700.0, "e_sub": 2.7e5,
              "eta_l": 0.664, "eta_sa": 0.5}
    doc["fixed_uncertain"].update(bright)
    for name, value in bright.items():
        if name in TECH_NAMES:
            doc["technology"][name] = value
        else:
            doc["asteroid_properties"]["t_subl" if name == "t_sub" else name] = value
    tiny_scenario.write_text(json.dumps(doc))
    code = main(["--mode", "propagate", "--scenario", str(tiny_scenario), "--oracle",
                 "--contamination", "on", "--design", "14.5,10,3.05,1003",
                 "--out", str(tmp_path / "run")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure: reference integration failed: ")
    assert "elliptic" in err and len(err.splitlines()) == 1


def test_inner_budget_below_population_exit_code(tiny_scenario, tmp_path, capsys):
    """An inner budget that cannot evaluate one inner population is rejected
    when the scenario loads, exit 2 like the other budget checks, before any
    search starts."""
    doc = json.loads(tiny_scenario.read_text())
    doc["solver"].update(inner_budget=3, inner_pop=4)
    tiny_scenario.write_text(json.dumps(doc))
    out = tmp_path / "run"
    code = main(["--mode", "minmax", "--scenario", str(tiny_scenario), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario block: inner budget must cover")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("capacity", [0, 1])
def test_archive_capacity_below_two_exit_code(tiny_scenario, tmp_path, capsys, capacity):
    """An archive that cannot hold both extremes of the front is rejected
    when the scenario loads, exit 2, before an empty or extreme-less
    archive is written."""
    doc = json.loads(tiny_scenario.read_text())
    doc["solver"]["archive_capacity"] = capacity
    tiny_scenario.write_text(json.dumps(doc))
    out = tmp_path / "run"
    code = main(["--mode", "deterministic", "--scenario", str(tiny_scenario),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario block: archive capacity must be at least 2")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_nonfinite_objective_exit_code(tiny_scenario, tmp_path, capsys, monkeypatch):
    """A NaN objective is a numerical failure, in a search as in a single
    propagation: exit 4, not the exit 3 of an invalid value."""
    monkeypatch.setattr(mission.DeflectionModel, "evaluate",
                        lambda self, design, u: SimpleNamespace(m_sys=math.nan, b=1.0))
    for mode in ("deterministic", "propagate"):
        code = main(["--mode", mode, "--scenario", str(tiny_scenario),
                     "--out", str(tmp_path / mode)])
        assert code == 4, mode
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure: objectives must be finite"), mode
        assert len(err.splitlines()) == 1, mode


def test_propagate_mass_overflow_exit_code(tiny_scenario, tmp_path, capsys):
    """A finite bus mass whose formation mass overflows to infinity is a
    numerical failure of ``propagate``: exit 4, no payload written."""
    doc = json.loads(tiny_scenario.read_text())
    doc["technology"]["m_bus"] = 1e308
    tiny_scenario.write_text(json.dumps(doc))
    out = tmp_path / "run"
    code = main(["--mode", "propagate", "--scenario", str(tiny_scenario),
                 "--design", "20,10,1,3000", "--out", str(out)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure: objectives must be finite, got m_sys=inf")
    assert len(err.splitlines()) == 1
    assert list(out.iterdir()) == []


def test_invalid_value_during_run_exit_code(tiny_scenario, tmp_path, capsys, monkeypatch):
    """An invalid value that only the run meets exits 3."""
    def reject(self, design, u):
        raise ValueError("semi-major axis must be positive, got -1.0")

    monkeypatch.setattr(mission.DeflectionModel, "evaluate", reject)
    code = main(["--mode", "deterministic", "--scenario", str(tiny_scenario),
                 "--out", str(tmp_path / "run")])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "error: semi-major axis must be positive, got -1.0\n"


@pytest.mark.parametrize("mode", ["bpcurve", "sensitivity"])
def test_nv_below_two_exit_code(tiny_scenario, tmp_path, capsys, mode):
    """A curve needs two thresholds: ``--nv 1`` is an argument error, exit 2
    before anything is written."""
    out = tmp_path / "run"
    code = main(["--mode", mode, "--scenario", str(tiny_scenario), "--nv", "1",
                 "--design", "20,10,2,3000", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: --nv must be at least 2, got 1\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["bpcurve", "sensitivity"])
@pytest.mark.parametrize("cap", [0, -3])
def test_max_partitions_below_one_exit_code(tiny_scenario, tmp_path, capsys, mode, cap):
    """A curve needs at least its first partition: ``--max-partitions``
    below 1 is an argument error, exit 2 before anything is written."""
    out = tmp_path / "run"
    code = main(["--mode", mode, "--scenario", str(tiny_scenario), "--nv", "3",
                 "--max-partitions", str(cap), "--design", "20,10,2,3000",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: --max-partitions must be at least 1, got {cap}\n"
    assert not out.exists()


@pytest.mark.parametrize("where", ["flag", "scenario"])
def test_negative_seed_exit_code(tiny_scenario, tmp_path, capsys, where):
    """The searches draw from numpy seed sequences, which take no negative
    seed: ``--seed -1``, or a scenario seed of -1, exits 2 with one line on
    stderr before anything is written."""
    flags = ["--seed", "-1"]
    if where == "scenario":
        doc = json.loads(tiny_scenario.read_text())
        doc["seed"] = -1
        tiny_scenario.write_text(json.dumps(doc))
        flags = []
    out = tmp_path / "run"
    code = main(["--mode", "deterministic", "--scenario", str(tiny_scenario), *flags,
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("seed must be non-negative, got -1\n")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_cli_import_leaves_scipy_integrate_unloaded():
    """Only the ``--oracle`` reference integration needs scipy.integrate,
    so importing the CLI, which every run does first, does not load it."""
    env = dict(os.environ, PYTHONPATH=str(Path(mission.__file__).parents[1]))
    probe = "import sys, neodeflect.cli; print('scipy.integrate' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


def test_one_evaluation_loads_neither_jsonschema_nor_scipy():
    """A fresh interpreter that imports the CLI, loads the reference
    scenario and evaluates one design never imports jsonschema or scipy:
    every run pays for what it imports before its first evaluation."""
    env = dict(os.environ, PYTHONPATH=str(Path(mission.__file__).parents[1]))
    probe = "\n".join([
        "import sys, neodeflect.cli",
        "from neodeflect import mission",
        "from neodeflect.sizing import DesignVector",
        "scenario = mission.load_scenario(mission.reference_scenario_path())",
        "model = mission.make_model(scenario, 'deterministic', scenario.contamination)",
        "ev = model.evaluate(DesignVector(20.0, 10, 2.0, 3000.0), scenario.fixed_uncertain)",
        "assert ev.b > 0.0",
        "print(sorted(m for m in ('jsonschema', 'scipy') if m in sys.modules))",
    ])
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("scenario", ["missing.json", "."], ids=["missing", "directory"])
def test_unreadable_scenario_exit_code(tmp_path, capsys, monkeypatch, scenario):
    """A scenario file that is missing or cannot be read exits 2 with one
    line on stderr, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    code = main(["--mode", "deterministic", "--scenario", scenario, "--out", "run"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{scenario}'" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_unwritable_out_exit_code(tiny_scenario, tmp_path, capsys):
    """An ``--out`` that is an existing file, or an output that cannot be
    written, exits 2 with one line on stderr and leaves the file as it
    was."""
    out = tmp_path / "run"
    out.write_text("kept\n")
    blocked = tmp_path / "blocked"
    (blocked / "trajectory.csv").mkdir(parents=True)
    for target, name in ((out, out), (blocked, blocked / "trajectory.csv")):
        code = main(["--mode", "propagate", "--scenario", str(tiny_scenario),
                     "--design", "20,10,1,3000", "--out", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(name) in err
        assert len(err.splitlines()) == 1
    assert out.read_text() == "kept\n"


def test_propagate_mode_outputs(tiny_scenario, tmp_path):
    out = tmp_path / "run"
    code = main([
        "--mode", "propagate", "--scenario", str(tiny_scenario),
        "--design", "20,10,2,3000", "--out", str(out),
    ])
    assert code == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "manifest.json").exists()
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t_s,a_km,p1,p2,q1,q2,ell_rad,eps_km_s2"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == "propagate"
    assert "config_hash" in manifest


def test_propagate_with_oracle(tiny_scenario, tmp_path):
    out = tmp_path / "run"
    code = main([
        "--mode", "propagate", "--scenario", str(tiny_scenario),
        "--design", "20,10,1,3000", "--out", str(out), "--oracle",
    ])
    assert code == 0
    summary = json.loads((out / "propagate_summary.json").read_text())
    assert summary["b_rel_diff_vs_oracle"] < 1e-2


def test_deterministic_mode_and_reproducibility(tiny_scenario, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        code = main([
            "--mode", "deterministic", "--scenario", str(tiny_scenario),
            "--out", str(out), "--seed", "77",
        ])
        assert code == 0
    payload1 = (out1 / "archive_deterministic.csv").read_bytes()
    payload2 = (out2 / "archive_deterministic.csv").read_bytes()
    assert payload1 == payload2
    rows = payload1.decode().splitlines()
    assert rows[0].startswith("d_m,n_sc,t_warn,c_r,m_sys_kg,b_km,mode")
    assert len(rows) > 1


# boxes with fewer distinct designs than the outer budget of 14
_SMALL_BOXES = {
    "one-point": {"d_m": [20, 20], "n_sc": [10, 10], "t_warn": [2, 2], "c_r": [3000, 3000]},
    "n-sc-only": {"d_m": [20, 20], "n_sc": [1, 10], "t_warn": [2, 2], "c_r": [3000, 3000]},
}


@pytest.mark.parametrize("mode", ["deterministic", "minmin", "minmin-margins", "minmax"])
@pytest.mark.parametrize("box", list(_SMALL_BOXES))
def test_search_ends_on_a_box_with_fewer_designs_than_the_budget(tiny_scenario, tmp_path,
                                                                 mode, box):
    """The outer search also ends when the box runs out of new designs: each
    run, in a process of its own with a timeout, exits 0 with an archive of
    distinct designs of the box."""
    doc = json.loads(tiny_scenario.read_text())
    doc["design_bounds"] = _SMALL_BOXES[box]
    doc["solver"].update(outer_budget=14, outer_pop=4)
    tiny_scenario.write_text(json.dumps(doc))
    out = tmp_path / "run"
    env = dict(os.environ, PYTHONPATH=str(Path(mission.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-m", "neodeflect.cli", "--mode", mode,
                             "--scenario", str(tiny_scenario), "--out", str(out)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    header, *rows = (out / f"archive_{mode}.csv").read_text().splitlines()
    assert header.startswith("d_m,n_sc,t_warn,c_r,")
    designs = [tuple(float(c) for c in row.split(",")[:4]) for row in rows]
    assert designs and len(set(designs)) == len(designs)
    for design in designs:
        for value, (lo, hi) in zip(design, _SMALL_BOXES[box].values()):
            assert lo <= value <= hi
    if box == "one-point":
        assert designs == [(20.0, 10.0, 2.0, 3000.0)]


def test_minmax_mode_outputs_witnesses(tiny_scenario, tmp_path):
    out = tmp_path / "run"
    code = main([
        "--mode", "minmax", "--scenario", str(tiny_scenario),
        "--out", str(out), "--seed", "3",
    ])
    assert code == 0
    lines = (out / "archive_minmax.csv").read_text().splitlines()
    # each witness over the parameters its objective reads
    assert lines[0].split(",")[7:] == [f"witness_b_{n}" for n in B_NAMES] + [
        f"witness_m_{n}" for n in TECH_NAMES]
    assert all(len(row.split(",")) == 7 + 7 + 5 for row in lines[1:])
    assert (out / "extremes_minmax.csv").exists()
    extremes = (out / "extremes_minmax.csv").read_text().splitlines()
    assert all(",belief,1" in row for row in extremes[1:])


def test_extremes_csv_labels(tiny_scenario, tmp_path):
    """The worst-case front carries Belief 1 and the best-case front
    Plausibility 0, one row per archive member in the archive's order."""
    for mode, label in (("minmax", ["belief", "1"]), ("minmin", ["plausibility", "0"])):
        out = tmp_path / mode
        code = main(["--mode", mode, "--scenario", str(tiny_scenario),
                     "--out", str(out), "--seed", "3"])
        assert code == 0
        archive = (out / f"archive_{mode}.csv").read_text().splitlines()
        extremes = (out / f"extremes_{mode}.csv").read_text().splitlines()
        assert extremes[0] == "d_m,n_sc,t_warn,c_r,m_sys_kg,b_km,label,value"
        assert len(extremes) == len(archive) > 1
        for arow, erow in zip(archive[1:], extremes[1:]):
            assert erow.split(",") == arow.split(",")[:6] + label


def test_a_certified_worst_case_b_reads_zero(tiny_scenario, tmp_path):
    """On the reference evidence every design is dark at the dark corner,
    so each ``minmax`` row's b is a certified 0.0, written ``0``, not
    ``-0``, and carries Belief 1."""
    out = tmp_path / "run"
    assert main(["--mode", "minmax", "--scenario", str(tiny_scenario),
                 "--out", str(out), "--seed", "3"]) == 0
    for name in ("archive_minmax.csv", "extremes_minmax.csv"):
        header, *rows = (out / name).read_text().splitlines()
        b = header.split(",").index("b_km")
        assert rows and all(row.split(",")[b] == "0" for row in rows)
    _, *rows = (out / "extremes_minmax.csv").read_text().splitlines()
    assert all(row.split(",")[6:] == ["belief", "1"] for row in rows)


def test_worst_case_rows_are_labelled_certified_or_estimate(tiny_scenario, tmp_path,
                                                            monkeypatch):
    """On evidence about b narrowed about the fixed values the dark corner
    ablates at large designs: with contamination on, their row's b is a
    search's estimate, labelled ``estimate`` with an empty value, while a
    row whose b is a certified 0.0 keeps Belief 1."""
    reference = cli.evidence_structure
    monkeypatch.setattr(cli, "evidence_structure", lambda scenario: oracles.lit_b_structure(
        reference(scenario), scenario.fixed_uncertain))
    out = tmp_path / "run"
    # seed 0's front holds a dark design (b 0.0) and two lit ones
    assert main(["--mode", "minmax", "--scenario", str(tiny_scenario),
                 "--out", str(out), "--seed", "0", "--contamination", "on"]) == 0
    archive = (out / "archive_minmax.csv").read_text().splitlines()
    extremes = (out / "extremes_minmax.csv").read_text().splitlines()
    assert len(extremes) == len(archive)
    labels = []
    for arow, erow in zip(archive[1:], extremes[1:]):
        cells = erow.split(",")
        assert cells[:6] == arow.split(",")[:6]
        labels.append(cells[6:])
        assert cells[6:] == (["belief", "1"] if cells[5] == "0" else ["estimate", ""])
    assert ["belief", "1"] in labels and ["estimate", ""] in labels


def test_extremes_labels_follow_the_contamination(tiny_scenario, tmp_path, monkeypatch):
    """With contamination off every b is exact at a corner: a best-case row
    keeps Plausibility 0 and a worst-case row Belief 1 even where its b is
    lit (on evidence narrowed about the fixed values). With contamination on
    a best-case b is a search's estimate: ``estimate`` with an empty value."""
    reference = cli.evidence_structure
    monkeypatch.setattr(cli, "evidence_structure", lambda scenario: oracles.lit_b_structure(
        reference(scenario), scenario.fixed_uncertain))
    for mode, contamination, label in (("minmax", "off", ["belief", "1"]),
                                       ("minmin", "off", ["plausibility", "0"]),
                                       ("minmin", "on", ["estimate", ""]),
                                       ("minmin-margins", "on", ["estimate", ""])):
        out = tmp_path / f"{mode}-{contamination}"
        assert main(["--mode", mode, "--scenario", str(tiny_scenario), "--out", str(out),
                     "--seed", "0", "--contamination", contamination]) == 0
        archive = (out / f"archive_{mode}.csv").read_text().splitlines()
        extremes = (out / f"extremes_{mode}.csv").read_text().splitlines()
        assert len(extremes) == len(archive) > 1
        for arow, erow in zip(archive[1:], extremes[1:]):
            assert erow.split(",") == arow.split(",")[:6] + label
        if mode == "minmax":
            assert any(float(row.split(",")[5]) > 0.0 for row in extremes[1:])


def test_contamination_off_b_curve_ends_are_certified(tiny_scenario, tmp_path):
    """With contamination off both ends of the b curve are certified: b at
    the whole marginal's dark corner, 0.0, and at its bright corner."""
    out = tmp_path / "run"
    assert main(["--mode", "bpcurve", "--scenario", str(tiny_scenario), "--design",
                 "10,5,1,2000", "--out", str(out), "--nv", "5", "--max-partitions", "24",
                 "--contamination", "off"]) == 0
    meta = json.loads((out / "belpl_meta.json").read_text())["b"]
    assert meta["v_min_certified"] and meta["v_max_certified"]
    scenario = load_scenario(tiny_scenario)
    space = evidence_structure(scenario).marginal(B_NAMES)
    b = mission.b_at(mission.make_model(scenario, "bpcurve", False), parse_design("10,5,1,2000"),
                     space)
    dark, bright = mission.b_corners(space, [(0.0, 1.0)] * space.dim)
    assert (meta["v_min"], meta["v_max"]) == (b(dark), b(bright))
    assert meta["v_min"] == 0.0 < meta["v_max"]


def test_box_bounder_stays_inside_the_box():
    """A box over k_a cell 2, [1.47, 1.6], is searched on that interval
    only: its lower face belongs to it, not to cell 1, [0.2, 2.0]."""
    k_a = evidence_structure(load_scenario(reference_scenario_path())).params[1]
    structure = FocalStructure([k_a])
    assert (k_a.intervals[2].lo, k_a.intervals[2].hi) == (1.47, 1.6)
    seen = []

    def objective(u):
        seen.append(float(structure.unit_to_physical(u)[0]))
        return seen[-1]

    bounds = de_box_bounder(objective, 40, 4, 0, lambda box: mission.b_corners(structure, box)[0])
    vmin, vmax = bounds(SubBox(((2, 3),)).unit_box(structure))
    assert all(1.47 <= v <= 1.6 for v in seen)
    assert (vmin, vmax) == (pytest.approx(1.47), pytest.approx(1.6))


def test_box_bounds_are_in_order():
    """At a budget of one population per search, the minimum search can
    draw points above all of the maximum search's; every value is
    attained in the box, so they come back in order."""
    for seed in range(300):
        bounds = de_box_bounder(lambda u: float(u[0]), 4, 4, seed, lambda box: np.array([0.5]))
        vmin, vmax = bounds(((0.0, 1.0),))
        assert vmin <= vmax


@pytest.fixture(scope="module")
def reference():
    return load_scenario(reference_scenario_path())


@contextlib.contextmanager
def box_searches(**patches):
    """The (sense, value) of every inner search the box bounds run, with
    the other ``cli`` names of ``patches`` replaced meanwhile."""
    seen = []

    def spy(f, dim, sense, *args):
        result = inner_bound_search(f, dim, sense, *args)
        seen.append((sense, result.value))
        return result

    with pytest.MonkeyPatch.context() as mp:
        for name, value in {"inner_bound_search": spy, **patches}.items():
            mp.setattr(cli, name, value)
        yield seen


UNIT = st.floats(0.0, 1.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(genes=st.lists(UNIT, min_size=4, max_size=4),
       cells=st.lists(st.tuples(UNIT, UNIT), min_size=len(B_NAMES), max_size=len(B_NAMES)))
# the brightest cell: the asteroid parameters' first, eta_l's and eta_sa's last
@example(genes=[1.0, 1.0, 0.15, 1.0], cells=[(0.0, 0.0)] * 5 + [(1.0, 0.0)] * 2)
def test_a_dark_corner_certifies_the_b_box_minimum(reference, genes, cells):
    """With contamination on each box of the b marginal is tried first at
    its dark corner, a point of the box. Where the bounder skips the minimum
    search, the spot never ablates there (one arc, b exactly 0.0) and the
    minimum is 0.0; the maximum search keeps its generator key, so the
    maximum is that search's value bit for bit. Elsewhere both searches run
    and the corner's value joins them. ``cells`` places each dimension's
    range of cells: its first cell, then its length, as fractions of what
    is left."""
    scenario = replace(reference, solver=replace(reference.solver, inner_budget=4, inner_pop=4))
    space = evidence_structure(scenario).marginal(B_NAMES)
    ranges = []
    for n, (at, length) in zip(space.counts(), cells):
        first = min(int(at * n), n - 1)
        ranges.append((first, first + 1 + min(int(length * (n - first)), n - first - 1)))
    box = SubBox(tuple(ranges))
    unit_box = box.unit_box(space)
    corner = mission.b_corners(space, unit_box)[0]
    for d, (u, (lo_u, hi_u), (first, end)) in enumerate(zip(corner, unit_box, box.ranges)):
        assert lo_u <= u <= hi_u and first <= space.cell_of(d, u) < end

    design = decode_design(np.array(genes), scenario.design_bounds)
    model = mission.make_model(scenario, "bpcurve", True)
    b = functools.cache(mission.b_at(model, design, space))  # shared with the oracle

    def f(u):
        return b(tuple(u))

    with box_searches(b_at=lambda *args: f) as searches:
        lo, hi = cli.b_box_bounder(model, design, space)(unit_box)
    max_search = box_search(f, unit_box, "max", 4, 4, scenario.seed)
    b_c = f(corner)
    if [sense for sense, _ in searches] == ["max"]:
        ev = model.evaluate(design, {**scenario.fixed_uncertain,
                                     **mission.uncertain_dict(space, corner)})
        assert (ev.b, ev.n_arcs) == (0.0, 1)
        assert (lo, hi) == (0.0, max_search)
    else:
        assert [sense for sense, _ in searches] == ["min", "max"] and b_c > 0.0
        values = [b_c, box_search(f, unit_box, "min", 4, 4, scenario.seed), max_search]
        assert (lo, hi) == (min(values), max(values))


# with contamination off the box is bounded at its two corners, no search
@pytest.mark.parametrize("contamination", [True])
def test_the_reference_design_certifies_the_root_b_box(reference, contamination):
    """At the reference design the spot never ablates at the dark corner of
    the whole b marginal, so with contamination on its box runs the maximum
    search alone."""
    scenario = replace(reference, solver=replace(reference.solver, inner_budget=4, inner_pop=4))
    space = evidence_structure(scenario).marginal(B_NAMES)
    model = mission.make_model(scenario, "bpcurve", contamination)
    with box_searches() as searches:
        lo, hi = cli.b_box_bounder(model, parse_design("20,10,8,3000"), space)(
            SubBox(tuple((0, n) for n in space.counts())).unit_box(space))
    assert [sense for sense, _ in searches] == ["max"]
    assert (lo, hi) == (0.0, searches[0][1])


def test_the_dark_corner_is_the_dimmest_corner_of_the_brightest_b_cell(reference):
    """On the cell of the asteroid parameters' first intervals and eta_l's
    and eta_sa's last, the spot ablates at every hull corner at
    20,10,2,3000, and least at the dark corner: taking any dimension's
    other end raises b."""
    space = evidence_structure(reference).marginal(B_NAMES)
    cell = SubBox(tuple((0, 1) if name in mission.PHYSICAL_NAMES else (n - 1, n)
                        for name, n in zip(space.names, space.counts())))
    unit_box = cell.unit_box(space)
    b = mission.b_at(mission.make_model(reference, "bpcurve", False),
                     parse_design("20,10,2,3000"), space)
    dark = mission.b_corners(space, unit_box)[0]
    others = [u for u in oracles.hull_corners(space, unit_box) if not np.array_equal(u, dark)]
    assert len(others) == 2 ** space.dim - 1
    assert 0.0 < b(dark) < min(b(u) for u in others)


def test_a_box_without_a_dark_corner_keeps_both_searches(reference):
    """k_a alone, every other parameter at its fixed value, never darkens
    the spot at 20,10,2,3000: with contamination on both searches run, and
    the corner's b, 18.588 km, below the minimum search's 19.126 km, is the
    box's minimum."""
    scenario = replace(reference, solver=replace(reference.solver, inner_budget=16))
    space = evidence_structure(scenario).marginal(["k_a"])
    unit_box = SubBox(((0, space.counts()[0]),)).unit_box(space)
    model = mission.make_model(scenario, "sensitivity", True)
    design = parse_design("20,10,2,3000")
    with box_searches() as searches:
        lo, hi = cli.b_box_bounder(model, design, space)(unit_box)
    b_c = mission.b_at(model, design, space)(mission.b_corners(space, unit_box)[0])
    assert [sense for sense, _ in searches] == ["min", "max"]
    (_, min_search), (_, max_search) = searches
    assert lo == b_c < min_search and hi == max_search
    assert (b_c, min_search) == (pytest.approx(18.588, abs=5e-4), pytest.approx(19.126, abs=5e-4))


def b_box_panel(reference):
    """A fixed-seed soundness panel of the contamination-off b boxes. For
    each of 4 designs (20,10,2,3000 and 3 drawn) and 9 boxes (the root of
    the ``B_NAMES`` marginal, 3 drawn blocks of its cells, and the 5
    ``sensitivity`` roots of one asteroid parameter each), it yields
    ``(design, names, lo, hi, b)``: the box's bounds from
    ``cli.b_box_bounder`` and a b evaluated in the box, at 12 interior
    samples per box and, at 20,10,2,3000, at every point of a minimum and a
    maximum search at the shipped inner budget over the root box and the
    k_a box."""
    rng = np.random.default_rng(35)
    structure = evidence_structure(reference)
    config = reference.solver
    model = mission.make_model(reference, "bpcurve", False)
    designs = [parse_design("20,10,2,3000"),
               *(decode_design(rng.random(4), reference.design_bounds) for _ in range(3))]
    for k, design in enumerate(designs):
        boxes = [(B_NAMES, None), *((B_NAMES, rng) for _ in range(3)),
                 *(([name], None) for name in mission.PHYSICAL_NAMES)]
        for names, draw in boxes:
            space = structure.marginal(names)
            ranges = [(0, n) for n in space.counts()]
            if draw is not None:
                ranges = [(first, last + 1) for first, last in
                          (sorted(draw.integers(0, n, 2).tolist()) for n in space.counts())]
            unit_box = SubBox(tuple(ranges)).unit_box(space)
            lo, hi = cli.b_box_bounder(model, design, space)(unit_box)
            b = mission.b_at(model, design, space)
            lo_u, hi_u = np.array(unit_box).T
            floor = np.array([first_inside(edge) for edge in lo_u])
            for u in rng.random((12, space.dim)):
                yield design, names, lo, hi, b(np.maximum(lo_u + u * (hi_u - lo_u), floor))
            if k == 0 and draw is None and names in (B_NAMES, ["k_a"]):
                for sense in ("min", "max"):
                    seen = []

                    def f(u):
                        seen.append(b(u))
                        return seen[-1]

                    box_search(f, unit_box, sense, config.inner_budget, config.inner_pop,
                               config.seed)
                    assert len(seen) == config.inner_budget
                    yield from ((design, names, lo, hi, value) for value in seen)


def outside(item) -> bool:
    """A b of the panel outside its box's bounds by more than b's rounding."""
    _, _, lo, hi, value = item
    return not lo - oracles.B_ROUNDING_KM <= value <= hi + oracles.B_ROUNDING_KM


def test_no_b_of_a_box_leaves_its_corner_bounds(reference):
    """With contamination off each b box is bounded at its dark and bright
    corners, and no b the panel evaluates in a box leaves those bounds. The
    panel is not vacuous: 1-D boxes whose dark corner ablates are in it, and
    boxes with a range of hundreds of thousands of km."""
    items = list(b_box_panel(reference))
    assert len(items) == 4 * 9 * 12 + 4 * reference.solver.inner_budget
    assert not [item for item in items if outside(item)]
    assert any(len(names) == 1 and lo > 0.0 for _, names, lo, _, _ in items)
    assert max(hi - lo for _, _, lo, hi, _ in items) > 1e5


def test_a_bright_corner_with_eta_sa_low_fails_the_panel(reference, monkeypatch):
    """The upper bound rests on each end of the bright corner; a mutant that
    takes eta_sa's lower end there bounds a box below b at its points."""
    b_corners = mission.b_corners

    def mutant(space, unit_box):
        dark, bright = b_corners(space, unit_box)
        if "eta_sa" in space.names:
            d = space.names.index("eta_sa")
            bright[d] = space.hull_ends(unit_box)[d][0]
        return dark, bright

    monkeypatch.setattr(cli, "b_corners", mutant)
    assert any(outside(item) for item in b_box_panel(reference))


def test_bpcurve_mode(tiny_scenario, tmp_path):
    out = tmp_path / "run"
    code = main([
        "--mode", "bpcurve", "--scenario", str(tiny_scenario),
        "--design", "10,5,1,2000", "--out", str(out), "--nv", "5",
        "--max-partitions", "24", "--contamination", "on",
    ])
    assert code == 0
    for tag in ("b", "m_sys"):
        lines = (out / f"belpl_{tag}.csv").read_text().splitlines()
        assert lines[0] == "v,bel,pl"
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 5
        bel = [r[1] for r in rows]
        pl = [r[2] for r in rows]
        assert all(b <= p + 1e-12 for b, p in zip(bel, pl))
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bel, bel[1:]))
        assert all(p2 >= p1 - 1e-12 for p1, p2 in zip(pl, pl[1:]))
    # the mass ends are exact; with contamination on b's lower end is 0.0,
    # evaluated at the dark corner, and its upper end a search's estimate
    meta = json.loads((out / "belpl_meta.json").read_text())
    assert meta["m_sys"]["v_min_certified"] and meta["m_sys"]["v_max_certified"]
    assert meta["b"]["v_min"] == 0.0 and meta["b"]["v_min_certified"]
    assert not meta["b"]["v_max_certified"]


def test_sensitivity_mode(tiny_scenario, tmp_path):
    out = tmp_path / "run"
    code = main([
        "--mode", "sensitivity", "--scenario", str(tiny_scenario),
        "--design", "10,5,1,2000", "--out", str(out), "--nv", "5",
    ])
    assert code == 0
    lines = (out / "sensitivity_b.csv").read_text().splitlines()
    assert lines[0] == "parameter,v,bel,pl"
    params = {ln.split(",")[0] for ln in lines[1:]}
    assert params == {"c_a", "k_a", "rho_a", "t_sub", "e_sub"}
