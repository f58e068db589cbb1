"""Scenario handling, calibration and the composed mission model."""
import copy
import functools
import itertools
import json
import math
from dataclasses import MISSING, asdict, fields, replace
from functools import reduce
from operator import getitem
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import REFERENCE
from neodeflect import mission
from neodeflect.ablation import AsteroidProperties, StationGeometry, ThrustModel
from neodeflect.constants import AU_KM, S0, YEAR_S
from neodeflect.evidence import (
    FocalStructure,
    ParameterBPA,
    SubBox,
    UncertainInterval,
    bel_pl_curve,
)
from neodeflect.fpet import ArcControl
from neodeflect.mission import (
    B_NAMES,
    TECH_NAMES,
    DeflectionModel,
    OPINIONS_SCHEMA,
    SCENARIO_SCHEMA,
    ScenarioError,
    UNCERTAIN_NAMES,
    apply_uncertain,
    deterministic_evaluator,
    evidence_evaluator,
    evidence_structure,
    load_expert_opinions,
    load_scenario,
    make_model,
    reference_scenario_path,
    scenario_from_dict,
    scenario_to_dict,
    uncertain_dict,
)
from neodeflect.orbits import propagate_keplerian
from neodeflect.search import SolverConfig, decode_design
from neodeflect.sizing import (
    GENE_NAMES,
    DesignVector,
    Margins,
    TechnologyParams,
    UNIT_MARGINS,
    size_spacecraft,
)

import oracles
from calibration import CalibrationError, calibrate_scenario, nominal_miss


@pytest.fixture(scope="module")
def scenario():
    return load_scenario(reference_scenario_path())


DESIGN = DesignVector(16.0, 8, 3.0, 2800.0)


# ---------------------------------------------------------------------------
# Scenario document handling
# ---------------------------------------------------------------------------

def test_scenario_roundtrip_identity(scenario):
    doc = scenario_to_dict(scenario)
    again = scenario_to_dict(scenario_from_dict(doc))
    assert doc == again


def test_scenario_schema_violations(tmp_path):
    doc = scenario_to_dict(load_scenario(reference_scenario_path()))
    del doc["asteroid"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError):
        load_scenario(bad)

    bad.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(bad)


def test_scenario_rejects_invalid_blocks():
    doc = scenario_to_dict(load_scenario(reference_scenario_path()))
    doc["margins"]["k_dry"] = 0.5
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)
    doc2 = scenario_to_dict(load_scenario(reference_scenario_path()))
    del doc2["fixed_uncertain"]["e_sub"]
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc2)
    doc3 = scenario_to_dict(load_scenario(reference_scenario_path()))
    doc3["solver"]["explorers"] = 0
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc3)
    # malformed values: a design bound that is not a (lo, hi) pair of
    # numbers with lo <= hi, a lower design bound at or below 0 (below 1
    # for n_sc), an unknown design or uncertain name, an uncertain value
    # that is not a number or that its dataclass refuses, a solver size that
    # is not an integer, a NaN or infinity anywhere in the document; the
    # error names the key
    for block, name, value in [("design_bounds", "d_m", 5), ("design_bounds", "d_m", [2]),
                               ("design_bounds", "d_m", [20, 2]),
                               ("design_bounds", "n_sc", [1, "10"]),
                               ("design_bounds", "c_r", [1000.0, math.inf]),
                               ("design_bounds", "d_m", [0.0, 20.0]),
                               ("design_bounds", "n_sc", [0, 10]),
                               ("design_bounds", "t_warn", [-1.0, 8.0]),
                               ("design_bounds", "c_r", [0.0, 3000.0]),
                               ("design_bounds", "n_spacecraft", [1, 3]),
                               ("fixed_uncertain", "eta_L", 0.9),
                               ("fixed_uncertain", "c_a", "x"),
                               ("fixed_uncertain", "c_a", -5.0),
                               ("fixed_uncertain", "eta_l", 1.5),
                               ("fixed_uncertain", "c_a", math.nan),
                               ("fixed_uncertain", "c_a", math.inf),
                               ("asteroid", "e", -math.inf),
                               (None, "mu_sun_km3s2", math.nan),
                               (None, "t_impact_s", math.inf),
                               ("asteroid_properties", "a1", math.inf),
                               ("technology", "m_bus", math.nan),
                               ("margins", "k_dry", math.inf),
                               ("arc_control", "a_const", math.nan),
                               ("station", "x", math.nan),
                               ("solver", "outer_budget", math.inf),
                               ("solver", "inner_pop", 4.5),
                               ("solver", "outer_pop", "10"),
                               ("technology", "emiss_m", True),
                               ("margins", "k_dry", True),
                               ("station", "theta_va", "x"),
                               ("station", "x", [1.0]),
                               ("station", "psi_vf", 2.0),
                               ("asteroid_properties", "m_a", "x")]:
        bad = scenario_to_dict(load_scenario(reference_scenario_path()))
        (bad[block] if block else bad)[name] = value
        with pytest.raises(ScenarioError, match=name):
            scenario_from_dict(bad)


@pytest.mark.parametrize("block", ["asteroid_properties", "technology", "station", "solver"])
def test_scenario_refuses_a_missing_block_key(block):
    """Every key of a dataclass block is required: none falls back to the
    dataclass's default."""
    for name in scenario_to_dict(load_scenario(reference_scenario_path()))[block]:
        doc = scenario_to_dict(load_scenario(reference_scenario_path()))
        del doc[block][name]
        with pytest.raises(ScenarioError, match=f"{block}: missing required key {name!r}"):
            scenario_from_dict(doc)


def test_scenario_whole_float_seed_is_an_integer():
    """JSON Schema counts 3.0 as an integer; the scenario holds it as 3."""
    doc = scenario_to_dict(load_scenario(reference_scenario_path()))
    doc["seed"] = 3.0
    scenario = scenario_from_dict(doc)
    assert type(scenario.seed) is int and type(scenario.solver.seed) is int
    assert scenario.seed == 3


def test_scenario_whole_float_solver_sizes_are_integers():
    """The solver sizes are integers too: 5.0 is held as 5, 4.5 is refused."""
    doc = scenario_to_dict(load_scenario(reference_scenario_path()))
    doc["solver"] = {name: float(value) for name, value in doc["solver"].items()}
    solver = scenario_from_dict(doc).solver
    assert all(type(value) is int for value in asdict(solver).values())
    assert solver == load_scenario(reference_scenario_path()).solver


@pytest.mark.parametrize("bounds", [[1.2, 1.4], [2.4, 3.4]])
def test_scenario_refuses_fractional_spacecraft_bounds(bounds):
    """The spacecraft count's bounds are integers, in JSON's sense: a
    fractional pair is refused by name, a whole-float pair loads."""
    doc = scenario_to_dict(load_scenario(reference_scenario_path()))
    doc["design_bounds"]["n_sc"] = bounds
    with pytest.raises(ScenarioError, match=r"design_bounds\.n_sc"):
        scenario_from_dict(doc)
    doc["design_bounds"]["n_sc"] = [2.0, 3.0]
    assert scenario_from_dict(doc).design_bounds["n_sc"] == (2, 3)


def test_schema_key_lists_are_their_owners_fields():
    """The schema's dataclass blocks and design bounds name the fields of
    the dataclasses that hold them, in order, as the shipped file does (the
    solver's seed is a top-level key), each typed by its annotation; no
    field has a default, so the document is the one source of every value."""
    blocks = SCENARIO_SCHEMA["properties"]
    doc = json.loads(reference_scenario_path().read_text())
    json_types = {float: "number", int: "integer", float | None: ["number", "null"]}
    for block, owner in (("asteroid_properties", AsteroidProperties),
                         ("technology", TechnologyParams), ("margins", Margins),
                         ("arc_control", ArcControl), ("station", StationGeometry),
                         ("solver", SolverConfig), ("design_bounds", DesignVector)):
        hints = {name: hint for name, hint in get_type_hints(owner).items() if name != "seed"}
        assert blocks[block]["required"] == list(hints)
        assert list(doc[block]) == list(hints)
        assert [f.name for f in fields(owner)
                if f.default is not MISSING or f.default_factory is not MISSING] == []
        if block != "design_bounds":
            assert blocks[block]["properties"] == {
                name: {"type": json_types[hint]} for name, hint in hints.items()}
    assert list(blocks["design_bounds"]["properties"]) == list(GENE_NAMES)


def test_every_schema_block_holds_exactly_its_keys():
    """No block of the document is a bare object: each requires every key
    it names and refuses any other."""
    blocks = [sub for sub in SCENARIO_SCHEMA["properties"].values()
              if sub.get("type") == "object"]
    assert len(blocks) == 10
    for sub in blocks:
        assert sub["required"] == list(sub["properties"])
        assert sub["additionalProperties"] is False


REFERENCE_DOC = scenario_to_dict(load_scenario(reference_scenario_path()))
# each schema with the shipped document it describes and the loader of a
# document at a path
SCHEMA_CASES = {
    "scenario": (SCENARIO_SCHEMA, REFERENCE_DOC, load_scenario),
    "opinions": (OPINIONS_SCHEMA, json.loads(
        (reference_scenario_path().parent / "expert_opinions.json").read_text()),
        load_expert_opinions),
}


def _schema_sites(schema, value, path=()):
    """Every (path, subschema) the schema constrains in ``value``."""
    yield path, schema
    if isinstance(value, dict):
        for key, item in value.items():
            sub = schema.get("properties", {}).get(key, schema.get("additionalProperties"))
            if isinstance(sub, dict):
                yield from _schema_sites(sub, item, path + (key,))
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            yield from _schema_sites(schema["items"], item, path + (i,))


def _replacements(schema, value):
    """Values of every JSON type; where a number or an integer is expected,
    only the reference value as a float or an int (and, for an integer, one
    that is not whole), so that an accepted document stays physical."""
    pool = [True, "x", None, [1.0, 2.0], {}]
    if schema.get("type") in ("number", "integer"):
        pool += [float(value)] + ([int(value)] if float(value).is_integer() else [])
    else:
        pool += [3, 2.5]
    if "exclusiveMinimum" in schema:
        pool += [0, 0.0, -value, 2.0 * value]
    if "const" in schema:
        pool += [1.0, True, 2]
    if schema.get("type") == "integer":
        pool += [value + 0.5]
    return pool


@st.composite
def mutated_documents(draw, root, document):
    """``document`` with one finite mutation at a site of its schema
    ``root``: a value replaced, a required key dropped, a key added where
    the schema speaks of additional keys, or an array one item short or
    long."""
    doc = copy.deepcopy(document)
    path, schema = draw(st.sampled_from(list(_schema_sites(root, document))))
    value = reduce(getitem, path, doc)
    moves = ["replace"]
    if schema.get("required"):
        moves.append("drop")
    if "additionalProperties" in schema:
        moves.append("add")
    if isinstance(value, list):
        moves.append("resize")
    move = draw(st.sampled_from(moves))
    if move == "replace":
        new = copy.deepcopy(draw(st.sampled_from(_replacements(schema, value))))
        if not path:
            return new
        reduce(getitem, path[:-1], doc)[path[-1]] = new
    elif move == "drop":
        del value[draw(st.sampled_from(schema["required"]))]
    elif move == "add":
        value["x"] = draw(st.sampled_from([1.0, [1.0, 2.0], True, "x"]))
    elif draw(st.booleans()):
        value.pop()
    else:
        value.append(value[-1])
    return doc


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("documents") / "document.json"


@pytest.mark.parametrize("case", SCHEMA_CASES)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_scenario_checker_agrees_with_jsonschema(case, data, document_path):
    """On finite documents a scenario and an expert-opinion file load
    exactly when jsonschema accepts them: the mutations keep every number
    one the dataclasses accept, so the schema alone decides. jsonschema is
    a declared test extra: without it this oracle fails rather than
    skips."""
    import jsonschema
    schema, document, load = SCHEMA_CASES[case]
    doc = data.draw(mutated_documents(schema, document))
    accepted = jsonschema.Draft202012Validator(schema).is_valid(doc)
    document_path.write_text(json.dumps(doc))
    try:
        load(document_path)
        loaded = True
    except ScenarioError:
        loaded = False
    assert loaded == accepted


# the keywords ``mission._check`` reads
CHECKED_KEYWORDS = frozenset({"type", "const", "required", "properties", "additionalProperties",
                              "items", "minItems", "maxItems", "exclusiveMinimum"})


def _subschemas(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    for sub in (*schema.get("properties", {}).values(), schema.get("additionalProperties"),
                schema.get("items")):
        if isinstance(sub, dict):
            yield from _subschemas(sub)


@pytest.mark.parametrize("case", SCHEMA_CASES)
def test_schemas_use_only_the_checked_keywords(case):
    """The checker reads only ``CHECKED_KEYWORDS`` and does not look for
    others at each node, so a schema that used another would have it
    ignored: no schema uses one."""
    schemas = list(_subschemas(SCHEMA_CASES[case][0]))
    assert len(schemas) > 10
    for schema in schemas:
        assert schema.keys() <= CHECKED_KEYWORDS, sorted(schema.keys() - CHECKED_KEYWORDS)


def test_reference_scenario_is_calibrated(scenario):
    assert nominal_miss(scenario) < 1.0


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def test_calibration_idempotent(scenario):
    again = calibrate_scenario(scenario)
    assert nominal_miss(again) < 1.0
    assert math.cos(again.asteroid.theta - scenario.asteroid.theta) == pytest.approx(
        1.0, abs=1e-9
    )


def test_calibration_restores_perturbed_phase(scenario):
    perturbed = replace(
        scenario, asteroid=replace(scenario.asteroid,
                                   theta=scenario.asteroid.theta + 1e-3)
    )
    assert nominal_miss(perturbed) > 1.0
    fixed = calibrate_scenario(perturbed)
    assert nominal_miss(fixed) < 1.0


def test_calibration_fails_without_intercept(scenario):
    # shrink the orbit so it never reaches 1 AU
    hopeless = replace(
        scenario,
        asteroid=replace(scenario.asteroid, a=0.5 * scenario.asteroid.a, e=0.01),
    )
    with pytest.raises(CalibrationError):
        calibrate_scenario(hopeless)


# ---------------------------------------------------------------------------
# Composed model
# ---------------------------------------------------------------------------

def test_apply_uncertain_overrides(scenario):
    u = dict(scenario.fixed_uncertain)
    u["e_sub"] = 1.23e7
    u["rho_l"] = 0.019
    ast, tech = apply_uncertain(scenario, u)
    assert ast.e_sub == 1.23e7
    assert tech.rho_l == 0.019
    assert ast.c_a == scenario.fixed_uncertain["c_a"]


def test_model_zero_thrust_limit(scenario):
    """Killing the input power must reproduce the calibrated zero miss."""
    u = dict(scenario.fixed_uncertain)
    u["e_sub"] = 1e30  # no ablation yield at any finite flux
    model = make_model(scenario, "deterministic", contamination=False)
    ev = model.evaluate(DESIGN, u)
    assert ev.b < 1.0


def test_model_deterministic_reference(scenario):
    model = make_model(scenario, "deterministic", contamination=False)
    ev = model.evaluate(DESIGN, scenario.fixed_uncertain)
    assert ev.b > 100.0
    # mass agrees with a direct sizing call at the same flux
    _, tech = apply_uncertain(scenario, scenario.fixed_uncertain)
    flux = S0 * (AU_KM / model.deflection_start(DESIGN, scenario.fixed_uncertain)[0].radius()) ** 2
    assert ev.m_sys == size_spacecraft(DESIGN, tech, scenario.margins, flux).m_sys


def test_impact_b_matches_the_three_state_projection(scenario):
    """The encounter frame fixed at construction projects a deviated state
    bit for bit as the three-state reference does; the nominal state
    projects to 0.0, and a state off the impact epoch is refused."""
    model = make_model(scenario, "deterministic", contamination=False)
    ev = model.evaluate(DESIGN, scenario.fixed_uncertain)
    deviated = propagate_keplerian(ev.trajectory.final, scenario.t_impact, scenario.mu)
    ref = oracles.impact_parameter(deviated, model.nominal_at_impact, model.earth_at_impact,
                                   scenario.t_impact, scenario.mu)
    assert ev.b == model.impact_b(deviated) == ref
    assert model.impact_b(model.nominal_at_impact) == 0.0
    with pytest.raises(ValueError, match="not at t_impact"):
        model.impact_b(ev.trajectory.states[0])


def test_model_mass_only_matches_evaluate(scenario):
    model = make_model(scenario, "deterministic", contamination=False)
    u = scenario.fixed_uncertain
    assert model.mass_only(DESIGN, apply_uncertain(scenario, u)[1]) == (
        model.evaluate(DESIGN, u).m_sys)


def test_start_state_is_solved_once_per_design(scenario, monkeypatch):
    """The two mass corners and the b evaluations of one design share one
    Kepler solve of the start state, and keep the bits of a fresh model's."""
    structure = evidence_structure(scenario)
    config = replace(REFERENCE.solver, outer_budget=10, outer_pop=4, explorers=1,
                     inner_budget=4, inner_pop=4, seed=3)
    designs = (DESIGN, DesignVector(2.0, 1, 1.07, 3000.0))
    fresh = [evidence_evaluator(make_model(scenario, "minmax", False), structure,
                                config, "max")(design) for design in designs]
    model = make_model(scenario, "minmax", False)
    solves = []
    propagate = mission.propagate_keplerian

    def counted(eq, t_target, mu):
        if eq is model.asteroid_eq:
            solves.append(t_target)
        return propagate(eq, t_target, mu)

    monkeypatch.setattr(mission, "propagate_keplerian", counted)
    evaluate = evidence_evaluator(model, structure, config, "max")
    for design, expected in zip(designs, fresh):
        found = evaluate(design)
        assert found.objectives == expected.objectives
    assert len(solves) == 2


def test_longer_warning_time_deflects_more(scenario):
    model = make_model(scenario, "deterministic", contamination=False)
    u = scenario.fixed_uncertain
    b_short = model.evaluate(DesignVector(16.0, 8, 2.0, 2800.0), u).b
    b_long = model.evaluate(DesignVector(16.0, 8, 6.0, 2800.0), u).b
    assert b_long > b_short


def test_uncertain_structure_and_nominal_image(scenario):
    structure = evidence_structure(scenario)
    assert structure.names == list(UNCERTAIN_NAMES)
    assert oracles.n_elements(structure) == 93312
    u0 = structure.physical_to_unit([scenario.fixed_uncertain[n] for n in structure.names])
    assert np.all((0 <= u0) & (u0 <= 1))
    back = uncertain_dict(structure, u0)
    for name in UNCERTAIN_NAMES:
        assert back[name] == pytest.approx(scenario.fixed_uncertain[name], rel=1e-12)


def test_evidence_evaluator_sandwich(scenario):
    """Seeded inner searches keep min <= nominal <= max at any budget."""
    config = replace(
        REFERENCE.solver, outer_budget=10, outer_pop=4, explorers=1,
        inner_budget=12, inner_pop=4, seed=5,
    )
    structure = evidence_structure(scenario)
    det_model = make_model(scenario, "deterministic", contamination=False)
    plain_model = make_model(scenario, "minmin", contamination=False)

    design = DesignVector(12.0, 6, 2.0, 2500.0)
    det = deterministic_evaluator(det_model)(design)
    lo = evidence_evaluator(plain_model, structure, config, "min")(design)
    hi = evidence_evaluator(plain_model, structure, config, "max")(design)

    # deviation objective: margins play no role, the sandwich is exact
    assert lo.objectives.neg_b <= det.objectives.neg_b <= hi.objectives.neg_b
    # mass: the margin-free minimum cannot exceed the margined nominal
    assert lo.objectives.m_sys <= det.objectives.m_sys
    assert hi.witness_mass is not None and hi.witness_negb is not None


def test_evidence_evaluator_deterministic_under_seed(scenario):
    config = replace(
        REFERENCE.solver, outer_budget=10, outer_pop=4, explorers=1,
        inner_budget=10, inner_pop=4, seed=9,
    )
    structure = evidence_structure(scenario)
    model = make_model(scenario, "minmax", contamination=False)
    design = DesignVector(8.0, 3, 1.5, 1500.0)
    a = evidence_evaluator(model, structure, config, "max")(design)
    b = evidence_evaluator(model, structure, config, "max")(design)
    assert a.objectives.as_tuple() == b.objectives.as_tuple()
    np.testing.assert_array_equal(a.witness_negb, b.witness_negb)


def test_make_model_margin_policy(scenario):
    assert make_model(scenario, "deterministic", False).margins == scenario.margins
    assert make_model(scenario, "minmin-margins", False).margins == scenario.margins
    assert make_model(scenario, "minmin", False).margins == UNIT_MARGINS
    assert make_model(scenario, "minmax", False).margins == UNIT_MARGINS
    assert make_model(scenario, "bpcurve", False).margins == UNIT_MARGINS
    assert make_model(scenario, "sensitivity", False).margins == UNIT_MARGINS
    assert make_model(scenario, "propagate", True).margins == scenario.margins
    with pytest.raises(ValueError):
        make_model(scenario, "robust", False)


def test_contamination_cuts_deflection_by_an_order_of_magnitude(scenario):
    """At the max-deviation design the fouled optics lose >= 10x of b."""
    off = make_model(scenario, "deterministic", contamination=False)
    on = make_model(scenario, "deterministic", contamination=True)
    design = DesignVector(20.0, 10, 8.0, 3000.0)
    b_off = off.evaluate(design, scenario.fixed_uncertain).b
    b_on = on.evaluate(design, scenario.fixed_uncertain).b
    assert b_on > 0.0
    assert b_off / b_on >= 10.0


def test_mass_witness_rails_at_heavy_technology(scenario):
    """m_sys grows in every areal/specific mass, so the worst-case witness
    must sit high in the rho_r, rho_l, rho_m hulls."""
    structure = evidence_structure(scenario)
    model = make_model(scenario, "minmax", contamination=False)
    config = replace(
        REFERENCE.solver, outer_budget=10, outer_pop=4, explorers=1,
        inner_budget=150, inner_pop=6, seed=31,
    )
    hi = evidence_evaluator(model, structure, config, "max")(DESIGN)
    witness = uncertain_dict(structure.marginal(TECH_NAMES), hi.witness_mass)
    # monotonicity oracle on the sizing chain
    base = model.mass_only(DESIGN, apply_uncertain(scenario, scenario.fixed_uncertain)[1])
    for name, bump in (("rho_r", 4.0), ("rho_l", 0.02), ("rho_m", 0.5)):
        u = dict(scenario.fixed_uncertain)
        u[name] = bump
        assert model.mass_only(DESIGN, apply_uncertain(scenario, u)[1]) > base
    # witness in the upper half of each monotone parameter's hull
    assert witness["rho_r"] > 2.5
    assert witness["rho_l"] > 0.0125
    assert witness["rho_m"] > 0.25


@pytest.mark.parametrize("contamination", [False, True])
def test_the_dark_corner_of_the_b_marginal_never_ablates(scenario, contamination):
    """At the corner of the B_NAMES marginal's hull where the five asteroid
    parameters sit at their upper ends and eta_l, eta_sa at their lower
    ends, the spot is dark on the whole orbit from the start of every
    design drawn: one coasted arc, b exactly 0.0, the worst case of b."""
    b_space = evidence_structure(scenario).marginal(B_NAMES)
    corners = oracles.hull_corners(b_space, [(0.0, 1.0)] * b_space.dim)
    values = [b_space.unit_to_physical(u) for u in corners]
    high, low = np.max(values, axis=0), np.min(values, axis=0)
    target = [high[d] if name in mission.PHYSICAL_NAMES else low[d]
              for d, name in enumerate(b_space.names)]
    dark = next(u for u, x in zip(corners, values) if x.tolist() == target)
    u = {**scenario.fixed_uncertain, **uncertain_dict(b_space, dark)}
    rng = np.random.default_rng(11)
    designs = [decode_design(rng.random(4), scenario.design_bounds) for _ in range(150)]
    model = make_model(scenario, "minmax", contamination)
    for design in [*designs, DesignVector(20.0, 10, 8.0, 3000.0)]:
        start, thrust = model.deflection_start(design, u)
        assert thrust.dark_until(start, 0.0) == math.inf
        ev = model.evaluate(design, u)
        assert ev.b == 0.0
        assert ev.n_arcs == 1


def worst_case_b(model, structure, config, design):
    """The sense-max evaluation of a design, the uncertain points of the
    model evaluations it made, and the dark corner of the b marginal's
    cube."""
    seen = []
    evaluate = model.evaluate

    def spy(design, u):
        seen.append(dict(u))
        return evaluate(design, u)

    model.evaluate = spy  # on this instance only
    try:
        found = evidence_evaluator(model, structure, config, "max")(design)
    finally:
        del model.evaluate
    b_space = structure.marginal(B_NAMES)
    return found, seen, mission.b_corners(b_space, [(0.0, 1.0)] * b_space.dim)[0]


def certified_at_the_dark_corner(scenario, structure, model, found, seen, dark) -> bool:
    """One evaluation, at the dark corner, b exactly 0.0 with that corner as
    witness, which re-evaluates to b 0.0 in one arc."""
    b_space = structure.marginal(B_NAMES)
    u = {**scenario.fixed_uncertain, **uncertain_dict(b_space, dark)}
    ev = model.evaluate(found.design, {**scenario.fixed_uncertain,
                                       **uncertain_dict(b_space, found.witness_negb)})
    return (seen == [u] and found.objectives.neg_b == 0.0
            and np.array_equal(found.witness_negb, dark) and (ev.b, ev.n_arcs) == (0.0, 1))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(genes=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
       contamination=st.booleans())
def test_the_worst_case_b_is_certified_at_the_dark_corner(scenario, genes, contamination):
    """Sense max evaluates b once, at the dark corner of the ``B_NAMES``
    cube, and runs no search: b there is exactly 0.0, the least b, with
    that corner as witness, and b reads +0.0, not -0.0."""
    structure = evidence_structure(scenario)
    config = replace(REFERENCE.solver, outer_budget=10, outer_pop=4, explorers=1,
                     inner_budget=8, inner_pop=4, seed=3)
    model = make_model(scenario, "minmax", contamination)
    design = decode_design(np.array(genes), scenario.design_bounds)

    def no_search(*args, **kwargs):
        raise AssertionError("the certified worst case ran a search")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mission, "inner_bound_search", no_search)
        found, seen, dark = worst_case_b(model, structure, config, design)
    assert certified_at_the_dark_corner(scenario, structure, model, found, seen, dark)
    assert math.copysign(1.0, -found.objectives.neg_b) == 1.0


def test_a_dark_corner_with_eta_sa_high_certifies_nothing(scenario, monkeypatch):
    """The certificate rests on each end of the dark corner; a mutant that
    takes eta_sa's upper end ablates at 20,10,8,3000 with contamination
    on (b 24.480 km; 578.7 km off), so the evaluator runs its search there
    and the certificate's checks fail."""
    structure = evidence_structure(scenario)
    config = replace(REFERENCE.solver, outer_budget=10, outer_pop=4, explorers=1,
                     inner_budget=8, inner_pop=4, seed=3)
    model = make_model(scenario, "minmax", True)
    b_corners = mission.b_corners

    def mutant(space, unit_box):
        corner, bright = b_corners(space, unit_box)
        d = space.names.index("eta_sa")
        corner[d] = space.hull_ends(unit_box)[d][1]
        return corner, bright

    monkeypatch.setattr(mission, "b_corners", mutant)
    found, seen, corner = worst_case_b(model, structure, config, DesignVector(20.0, 10, 8.0, 3000.0))
    b_corner = mission.b_at(model, found.design, structure.marginal(B_NAMES))(corner)
    assert b_corner == pytest.approx(24.480, abs=5e-4)
    assert len(seen) == config.inner_budget
    assert not certified_at_the_dark_corner(scenario, structure, model, found, seen, corner)


# with contamination off the worst case is b at the dark corner, no search
@pytest.mark.parametrize("contamination", [True])
def test_a_lit_dark_corner_keeps_the_worst_case_search(scenario, contamination):
    """Where the dark corner ablates with contamination on, the worst case
    of b is searched: the search spends exactly ``inner_budget``
    evaluations, the corner one of them, evaluated once, and reports the
    least b it saw, at most the corner's, with a witness that attains it."""
    structure = oracles.lit_b_structure(evidence_structure(scenario), scenario.fixed_uncertain)
    b_space = structure.marginal(B_NAMES)
    config = replace(REFERENCE.solver, outer_budget=10, outer_pop=4, explorers=1,
                     inner_budget=12, inner_pop=4, seed=3)
    model = make_model(scenario, "minmax", contamination)
    design = DesignVector(20.0, 10, 2.0, 3000.0)
    found, seen, dark = worst_case_b(model, structure, config, design)
    at_dark = {**scenario.fixed_uncertain, **uncertain_dict(b_space, dark)}
    b = mission.b_at(model, design, b_space)
    assert len(seen) == config.inner_budget
    assert seen[0] == at_dark and seen.count(at_dark) == 1
    assert b(dark) > 0.0
    bs = [model.evaluate(design, u).b for u in seen]
    assert -found.objectives.neg_b == min(bs) <= b(dark)
    assert -b(found.witness_negb) == found.objectives.neg_b


@pytest.mark.parametrize("sense", ["min", "max"])
def test_mass_bound_is_exact_at_the_technology_corners(scenario, sense):
    """m_sys is linear in each technology parameter, so no point of a box of
    the technology marginal leaves the range of its 32 hull corners
    (``oracles.hull_corners``), which are points of the box themselves and
    sit at each dimension's interval hull over the box's cells, not at the
    box's unit ends, and ``mass_box_bounder`` reports that range. Over the
    whole cube the evaluator reports that range's end exactly, with its
    corner as the witness, whatever the inner budget."""
    structure = evidence_structure(scenario)
    tech = structure.marginal(TECH_NAMES)
    model = make_model(scenario, "minmax", contamination=False)
    config = replace(REFERENCE.solver, outer_budget=10, outer_pop=4, explorers=1,
                     inner_budget=4, inner_pop=4, seed=3)
    rng = np.random.default_rng(3)
    counts = tech.counts()
    eta_l = tech.names.index("eta_l")
    cube = SubBox(tuple((0, n) for n in counts))
    # eta_l cells 1-2 overlap, [0.5, 0.6] and [0.55, 0.664]: hull [0.5, 0.664]
    overlap = SubBox(tuple((1, 3) if d == eta_l else (0, n) for d, n in enumerate(counts)))
    # one interior cell per dimension: its lower faces belong to the cells below
    single = SubBox(tuple((1, 2) for _ in counts))
    # the largest hi in the first cell: the cube's upper unit end maps to 0.4
    eta_sa = tech.names.index("eta_sa")
    skewed = FocalStructure([
        ParameterBPA("eta_sa", (UncertainInterval(0.2, 0.5, 0.5), UncertainInterval(0.3, 0.4, 0.5)))
        if d == eta_sa else p for d, p in enumerate(tech.params)])
    cases = (
        (tech, cube, {"eta_l": (0.4, 0.664), "rho_l": (0.005, 0.02)}),
        (tech, overlap, {"eta_l": (0.5, 0.664)}),
        (tech, single, {"eta_l": (0.5, 0.6), "rho_r": (1.0, 3.0), "rho_l": (0.01, 0.02)}),
        (skewed, SubBox(tuple((0, n) for n in skewed.counts())), {"eta_sa": (0.2, 0.5)}),
    )
    for design in (DESIGN, DesignVector(2.0, 1, 1.07, 3000.0)):
        for struct, box, hull in cases:
            unit_box = box.unit_box(struct)
            lo_u, hi_u = np.array(unit_box).T

            def in_box(u):
                return all(first <= struct.cell_of(d, u[d]) < end
                           for d, (first, end) in enumerate(box.ranges))

            corners = oracles.hull_corners(struct, unit_box)
            assert len(corners) == 32 and all(in_box(u) for u in corners)
            # a lower face inside the cube is taken one step inside the box,
            # so its value may sit one rounding above the interval's lo
            for name, ends in hull.items():
                values = sorted({uncertain_dict(struct, u)[name] for u in corners})
                assert values == pytest.approx(ends, rel=1e-15, abs=0.0)
            # the corners are points of the box, so both ends are attained
            masses = [model.mass_only(design, oracles.technology_at(scenario, struct, u))
                      for u in corners]
            lo, hi = min(masses), max(masses)
            assert lo < hi
            inside = np.maximum(lo_u + rng.random((300, struct.dim)) * (hi_u - lo_u),
                                np.nextafter(lo_u, 1.0))
            for u in inside:
                assert in_box(u)
                mass = model.mass_only(design, oracles.technology_at(scenario, struct, u))
                assert lo * (1 - 1e-12) <= mass <= hi * (1 + 1e-12)
            assert mission.mass_box_bounder(model, design, struct)(unit_box) == (lo, hi)
        found = evidence_evaluator(model, structure, config, sense)(design)
        ends = mission.mass_box_bounder(model, design, tech)(cube.unit_box(tech))
        assert found.objectives.m_sys == ends[sense == "max"]
        witness = oracles.technology_at(scenario, tech, found.witness_mass)
        assert model.mass_only(design, witness) == found.objectives.m_sys


def with_intervals(structure: FocalStructure, **intervals) -> FocalStructure:
    """``structure`` with the named parameters' evidence replaced by
    intervals ``(lo, hi)`` of equal mass."""
    def evidence(p):
        ivs = intervals.get(p.name)
        return p if ivs is None else ParameterBPA(
            p.name, tuple(UncertainInterval(lo, hi, 1.0 / len(ivs)) for lo, hi in ivs))

    return FocalStructure([evidence(p) for p in structure.params])


def mass_extreme_mismatches(scenario, wins: set | None = None) -> tuple[int, int]:
    """(pairs, mismatches) of ``mission.mass_extreme`` against the brute
    force over all 32 hull corners (``oracles.mass_extreme``), value and
    witness bit for bit, at 15 drawn designs x 15 drawn boxes, both senses,
    under unit and the scenario margins, on the technology marginal and on
    one whose rho_r evidence is raised to (3, 4.5) and (40, 60), where
    m_sys falls as eta_l eta_sa rises. Each winning candidate is added to
    ``wins`` as (sense, efficiencies high)."""
    tech = evidence_structure(scenario).marginal(TECH_NAMES)
    raised = with_intervals(tech, rho_r=[(3.0, 4.5), (40.0, 60.0)])
    rng = np.random.default_rng(37)
    designs = [decode_design(rng.random(4), scenario.design_bounds) for _ in range(15)]
    pairs = mismatches = 0
    for struct in (tech, raised):
        eta_l = struct.names.index("eta_l")
        boxes = []
        for _ in range(15):
            lo = [int(rng.integers(n)) for n in struct.counts()]
            boxes.append(SubBox(tuple((a, int(rng.integers(a + 1, n + 1)))
                                      for a, n in zip(lo, struct.counts()))).unit_box(struct))
        for margins in (UNIT_MARGINS, scenario.margins):
            model = DeflectionModel(scenario, False, margins)
            for unit_box in boxes:
                high = struct.hull_ends(unit_box)[eta_l][1]
                for sense in ("min", "max"):
                    extreme = mission.mass_extreme(model, struct, unit_box, sense)
                    for design in designs:
                        value, witness = extreme(design)
                        ref_value, ref_witness = oracles.mass_extreme(model, design, struct,
                                                                      unit_box, sense)
                        pairs += 1
                        mismatches += not (value == ref_value
                                           and np.array_equal(witness, ref_witness))
                        if wins is not None:
                            wins.add((sense, bool(witness[eta_l] == high)))
    return pairs, mismatches


def test_mass_extreme_matches_the_32_corner_brute_force(scenario):
    """m_sys cannot fall as a specific mass rises and is linear in
    eta_l eta_sa, so its least and greatest values over a box of the
    technology marginal are at two candidate corners each: the value and
    the witness of the brute force over all 32, bit for bit, in 1800
    pairs, and each of the four candidates wins somewhere."""
    wins = set()
    assert mass_extreme_mismatches(scenario, wins) == (1800, 0)
    assert wins == {(sense, high) for sense in ("min", "max") for high in (False, True)}


def test_a_heavy_end_without_its_low_efficiency_corner_misses(scenario, monkeypatch):
    """A mutant whose greatest value reads only the corner with both
    efficiencies high misses the brute force wherever the radiator
    outweighs the laser."""
    corner = FocalStructure.corner

    def mutant(self, unit_box, upper):
        if tuple(upper) == ("rho_m", "rho_l", "rho_r"):  # the efficiencies-low candidate
            upper = TECH_NAMES
        return corner(self, unit_box, upper)

    monkeypatch.setattr(FocalStructure, "corner", mutant)
    assert mass_extreme_mismatches(scenario)[1] > 0


def test_mass_extreme_witness_where_both_efficiencies_reach_one(scenario):
    """Where both efficiency hulls end at 1.0 no heat is rejected and rho_r
    cannot move m_sys at the greatest value: the candidate takes rho_r high
    (corner 31), the brute force's first corner low (corner 30), with the
    same value. The least value keeps the brute force's witness."""
    tech = with_intervals(evidence_structure(scenario).marginal(TECH_NAMES),
                          eta_l=[(0.5, 1.0)], eta_sa=[(0.3, 1.0)])
    cube = [(0.0, 1.0)] * tech.dim
    corners = oracles.hull_corners(tech, cube)
    model = make_model(scenario, "minmax", False)
    value, witness = mission.mass_extreme(model, tech, cube, "max")(DESIGN)
    ref_value, ref_witness = oracles.mass_extreme(model, DESIGN, tech, cube, "max")
    assert value == ref_value
    assert np.array_equal(witness, corners[31]) and np.array_equal(ref_witness, corners[30])
    value, witness = mission.mass_extreme(model, tech, cube, "min")(DESIGN)
    ref_value, ref_witness = oracles.mass_extreme(model, DESIGN, tech, cube, "min")
    assert value == ref_value and np.array_equal(witness, ref_witness)


@pytest.mark.parametrize("contamination", [False, True])
def test_mass_is_evaluated_twice_per_design_and_four_times_per_box(scenario, monkeypatch,
                                                                   contamination):
    """A robust design reads m_sys at its two candidate corners and a box of
    the m_sys curve at four, never at all 32. The corners' technologies do
    not depend on the design: each design an evaluator meets sizes the same
    two ``TechnologyParams`` objects."""
    calls = []
    mass_only = DeflectionModel.mass_only

    def counted(self, design, tech):
        calls.append(tech)
        return mass_only(self, design, tech)

    monkeypatch.setattr(DeflectionModel, "mass_only", counted)
    structure = evidence_structure(scenario)
    config = replace(REFERENCE.solver, outer_budget=10, outer_pop=4, explorers=1,
                     inner_budget=4, inner_pop=4, seed=3)
    for mode in ("minmin", "minmin-margins", "minmax"):
        sense = "max" if mode == "minmax" else "min"
        evaluate = evidence_evaluator(make_model(scenario, mode, contamination), structure,
                                      config, sense)
        calls.clear()
        evaluate(DESIGN)
        assert len(calls) == 2, mode
        first = list(calls)
        calls.clear()
        evaluate(DesignVector(2.0, 1, 1.07, 3000.0))
        assert len(calls) == 2, mode
        assert all(a is b for a, b in zip(first, calls)), mode
        assert all(isinstance(tech, TechnologyParams) for tech in first), mode
    tech = structure.marginal(TECH_NAMES)
    bounds = mission.mass_box_bounder(make_model(scenario, "bpcurve", contamination), DESIGN,
                                      tech)
    for box in (SubBox(tuple((0, n) for n in tech.counts())), SubBox(((1, 2),) * tech.dim)):
        calls.clear()
        bounds(box.unit_box(tech))
        assert len(calls) == 4


@pytest.mark.parametrize("sense", ["min", "max"])
def test_evidence_evaluator_searches_b_over_what_it_reads(scenario, monkeypatch, sense):
    """Every point the evaluator's b search gives the model holds rho_m,
    rho_l and rho_r at their fixed values; the b witness is a point of the
    ``B_NAMES`` marginal that attains the reported b, and the mass witness
    one of the ``TECH_NAMES`` marginal. Only with contamination on is b
    searched, and the reference structure certifies the worst case of b at
    its dark corner without a search, so sense max runs on one whose dark
    corner is lit."""
    structure = evidence_structure(scenario)
    if sense == "max":
        structure = oracles.lit_b_structure(structure, scenario.fixed_uncertain)
    model = make_model(scenario, "minmax", contamination=True)
    config = replace(REFERENCE.solver, outer_budget=10, outer_pop=4, explorers=1,
                     inner_budget=12, inner_pop=4, seed=3)
    fixed = scenario.fixed_uncertain
    seen = []
    evaluate = model.evaluate

    def spy(design, u):
        seen.append(dict(u))
        return evaluate(design, u)

    monkeypatch.setattr(model, "evaluate", spy)
    design = DesignVector(20.0, 10, 2.0, 3000.0)
    found = evidence_evaluator(model, structure, config, sense)(design)
    assert len(seen) == config.inner_budget
    for u in seen:
        assert u.keys() == fixed.keys()
        assert [u[name] for name in ("rho_m", "rho_l", "rho_r")] == [
            fixed[name] for name in ("rho_m", "rho_l", "rho_r")]
    assert len({tuple(u[name] for name in B_NAMES) for u in seen}) > 1
    assert found.witness_negb.shape == (len(B_NAMES),)
    assert found.witness_mass.shape == (len(TECH_NAMES),)
    b = mission.b_at(model, design, structure.marginal(B_NAMES))
    assert -b(found.witness_negb) == found.objectives.neg_b


@pytest.mark.parametrize("sense", ["min", "max"])
@pytest.mark.parametrize("lit", [False, True])
def test_without_contamination_b_is_read_at_one_corner(scenario, monkeypatch, sense, lit):
    """With contamination off the evaluator's b is one FPET evaluation, at
    the ``B_NAMES`` cube's bright corner for the best case (sense min) and
    at its dark corner for the worst case (sense max), lit or not, with that
    corner as witness; no search runs. On the lit structure the dark corner
    ablates (b 1489.4 km at 20,10,2,3000)."""
    structure = evidence_structure(scenario)
    if lit:
        structure = oracles.lit_b_structure(structure, scenario.fixed_uncertain)
    b_space = structure.marginal(B_NAMES)
    dark, bright = mission.b_corners(b_space, [(0.0, 1.0)] * b_space.dim)
    corner = bright if sense == "min" else dark
    config = replace(REFERENCE.solver, outer_budget=10, outer_pop=4, explorers=1,
                     inner_budget=12, inner_pop=4, seed=3)
    model = make_model(scenario, "minmin" if sense == "min" else "minmax", False)
    design = DesignVector(20.0, 10, 2.0, 3000.0)
    b = mission.b_at(model, design, b_space)
    b_corner = b(corner)
    seen = []
    evaluate = model.evaluate

    def spy(design, u):
        seen.append(dict(u))
        return evaluate(design, u)

    def no_search(*args, **kwargs):
        raise AssertionError("b was searched with contamination off")

    monkeypatch.setattr(model, "evaluate", spy)
    monkeypatch.setattr(mission, "inner_bound_search", no_search)
    found = evidence_evaluator(model, structure, config, sense)(design)
    assert seen == [{**scenario.fixed_uncertain, **uncertain_dict(b_space, corner)}]
    assert np.array_equal(found.witness_negb, corner)
    assert -found.objectives.neg_b == b_corner
    if sense == "min":
        assert b_corner > 0.0
    else:
        assert b_corner == (pytest.approx(1489.4, abs=0.05) if lit else 0.0)


def b_hull(space: FocalStructure) -> tuple[np.ndarray, np.ndarray]:
    """Per parameter of ``space``, the least and the greatest end of its
    intervals."""
    return (np.array([min(iv.lo for iv in p.intervals) for p in space.params]),
            np.array([max(iv.hi for iv in p.intervals) for p in space.params]))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(genes=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
       base=st.lists(st.floats(0.0, 1.0), min_size=len(B_NAMES), max_size=len(B_NAMES)),
       at=st.floats(0.0, 1.0))
# the bright corner of the hull at 20,10,2,3000, where every line ablates
@example(genes=[1.0, 1.0, 0.15, 1.0], base=[0.0] * 5 + [1.0] * 2, at=0.5)
def test_b_is_monotone_in_each_parameter_it_reads(scenario, genes, base, at):
    """With contamination off b cannot rise with c_a, k_a, rho_a, t_sub or
    e_sub and cannot fall with eta_l or eta_sa, up to its rounding
    (``oracles.B_ROUNDING_KM``), the rule ``mission.b_corners`` rests on.
    Each parameter walks 6 points across its whole hull and 6 points across
    1e-6 of it from ``at``, the other six at ``base`` in their hulls, at a
    drawn design."""
    space = evidence_structure(scenario).marginal(B_NAMES)
    lo, hi = b_hull(space)
    point = lo + np.array(base) * (hi - lo)
    design = decode_design(np.array(genes), scenario.design_bounds)
    model = make_model(scenario, "bpcurve", False)
    for d, name in enumerate(space.names):
        falls = name in mission.PHYSICAL_NAMES
        start = lo[d] + at * (1.0 - 1e-6) * (hi[d] - lo[d])
        for line in (np.linspace(lo[d], hi[d], 6), start + np.linspace(0.0, 1e-6, 6) * (hi[d] - lo[d])):
            bs = []
            for x in line:
                point[d] = x
                bs.append(model.evaluate(design, {**scenario.fixed_uncertain,
                                                  **dict(zip(space.names, point.tolist()))}).b)
            steps = np.diff(bs) * (-1.0 if falls else 1.0)
            assert steps.min() >= -oracles.B_ROUNDING_KM, (name, design, line, bs)
        point[d] = lo[d] + base[d] * (hi[d] - lo[d])


@pytest.mark.parametrize("d_m", [2.0, 20.0])
def test_the_thrust_sample_does_not_rise_with_t_sub(scenario, d_m):
    """The ejecta speed rises with t_sub, but the mass flow falls faster:
    the thrust sample falls or holds on 201 points across t_sub's hull,
    1700-1812 K, at the greatest flux of the design box (c_r at its upper
    bound, eta_l and eta_sa at their upper ends, the asteroid at its
    perihelion), with c_a, k_a, rho_a and e_sub at each of their 16 hull
    corners. Lower flux only adds weight to the re-radiation, which rises
    with t_sub. This is the one direction of ``mission.b_corners`` that
    does not follow from the form of ``mass_flow_rate``."""
    space = evidence_structure(scenario).marginal(B_NAMES)
    lo, hi = (dict(zip(space.names, ends.tolist())) for ends in b_hull(space))
    model = make_model(scenario, "bpcurve", False)
    start = model.asteroid_eq
    perihelion = replace(start, ell=math.atan2(start.p1, start.p2))
    design = DesignVector(d_m, 1, 1.0, scenario.design_bounds["c_r"][1])
    t_subs = np.linspace(lo["t_sub"], hi["t_sub"], 201).tolist()
    for ends in itertools.product((lo, hi), repeat=4):
        u = {**scenario.fixed_uncertain, "eta_l": hi["eta_l"], "eta_sa": hi["eta_sa"],
             **{name: end[name] for name, end in zip(("c_a", "k_a", "rho_a", "e_sub"), ends)}}
        thrusts = []
        for t_sub in t_subs:
            ast, tech = apply_uncertain(scenario, {**u, "t_sub": t_sub})
            sample = ThrustModel(design, tech, ast, scenario.station, contamination_on=False,
                                 t_reference=perihelion.t)
            thrusts.append(sample(perihelion, perihelion.t, 0.0)[0].eps)
        assert thrusts[0] > 0.0
        assert all(b <= a for a, b in zip(thrusts, thrusts[1:])), ends


@pytest.mark.parametrize("contamination", [False, True])
def test_objectives_read_only_their_names(scenario, contamination):
    """b reads only ``B_NAMES`` and ``m_sys`` only ``TECH_NAMES``: redrawing
    every other uncertain parameter leaves each bit-identical, at drawn
    designs and unit points."""
    structure = evidence_structure(scenario)
    model = make_model(scenario, "bpcurve", contamination)
    rng = np.random.default_rng(17)
    bounds = scenario.design_bounds
    not_b = [d for d, name in enumerate(structure.names) if name not in B_NAMES]
    not_mass = [d for d, name in enumerate(structure.names) if name not in TECH_NAMES]
    assert [structure.names[d] for d in not_b] == ["rho_m", "rho_l", "rho_r"]
    assert [structure.names[d] for d in not_mass] == list(UNCERTAIN_NAMES[:5])
    pushed = 0
    for _ in range(8):
        design = DesignVector(rng.uniform(*bounds["d_m"]),
                              int(rng.integers(bounds["n_sc"][0], bounds["n_sc"][1] + 1)),
                              rng.uniform(*bounds["t_warn"]), rng.uniform(*bounds["c_r"]))
        u = rng.random(structure.dim)
        point = uncertain_dict(structure, u)
        for dims, objective in ((not_b, lambda v: model.evaluate(design, v).b),
                                (not_mass, lambda v: model.mass_only(
                                    design, apply_uncertain(scenario, v)[1]))):
            redrawn = u.copy()
            redrawn[dims] = rng.random(len(dims))
            assert objective(uncertain_dict(structure, redrawn)) == objective(point)
        pushed += model.evaluate(design, point).b > 0.0
    assert pushed >= 3  # the b check is not vacuous: not every point is dark


def test_mass_curve_over_the_technology_marginal_is_exact(scenario):
    """At 20,10,2,3000 the ``m_sys`` curve over the five technology
    parameters refines to single cells within the shipped partition budget
    and equals the enumeration of those cells."""
    design = DesignVector(20.0, 10, 2.0, 3000.0)
    marginal = evidence_structure(scenario).marginal(TECH_NAMES)
    # each cell is bounded once, not once per threshold of the enumeration
    bounds = functools.lru_cache(maxsize=None)(
        mission.mass_box_bounder(make_model(scenario, "bpcurve", False), design, marginal))
    curve = bel_pl_curve(bounds, marginal, n_v=11, max_partitions=10**5)
    assert not curve.partial
    for j, v in enumerate(curve.thresholds):
        bel, pl = oracles.enumerate_bel_pl(bounds, marginal, v)
        assert curve.bel[j] == pytest.approx(bel, abs=1e-12)
        assert curve.pl[j] == pytest.approx(pl, abs=1e-12)
