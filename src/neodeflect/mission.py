"""Scenario ingestion, end-to-end deflection model and reference cross-checks.

A scenario bundles the reference orbits, the asteroid and technology
baselines, the evidence document, margins, bounds and solver settings. The
deflection model composes the trajectory, ablation and sizing chains into
the two mission objectives (formation mass, impact parameter) for a design
point and a value of the uncertain parameters, either fixed or supplied by
the evidence-space searches.

``SCENARIO_SCHEMA`` alone states the scenario's shape in JSON Schema
terms: its keys are ``schema_version`` and the fields of ``Scenario`` but
``source_path``, and each block's keys and types those of the dataclass
that holds it; no other key is allowed. ``OPINIONS_SCHEMA`` states the
expert-opinion file's. Both are read by one JSON reader that refuses a key
given twice, and checked by a small checker of the keywords the schemas
use, as jsonschema would, except that it also rejects NaN and infinities
anywhere. The dataclasses check only physical ranges.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .ablation import AsteroidProperties, StationGeometry, ThrustModel
from .constants import AU_KM, S0, YEAR_S
from .evidence import ExpertOpinion, FocalStructure, UncertainInterval, fuse_experts
from .fpet import ArcControl, Trajectory, propagate_trajectory
from .orbits import (
    EquinoctialState,
    KeplerianElements,
    bplane_normal,
    bplane_offset,
    equinoctial_to_cartesian,
    gauss_rhs,
    keplerian_to_equinoctial,
    propagate_keplerian,
)
from .search import (
    Individual,
    Objectives,
    SolverConfig,
    inner_bound_search,
    quantize_design,
    zero_or_search,
)
from .sizing import (
    GENE_NAMES,
    DesignVector,
    Margins,
    TechnologyParams,
    UNIT_MARGINS,
    size_spacecraft,
)

# Dimension order of the uncertain space: five asteroid physical
# parameters, then five spacecraft technology parameters.
UNCERTAIN_NAMES = (
    "c_a", "k_a", "rho_a", "t_sub", "e_sub",
    "eta_l", "eta_sa", "rho_m", "rho_l", "rho_r",
)
PHYSICAL_NAMES = UNCERTAIN_NAMES[:5]
TECH_NAMES = UNCERTAIN_NAMES[5:]
B_NAMES = UNCERTAIN_NAMES[:7]  # what b reads; m_sys reads TECH_NAMES
_EFFICIENCIES = ("eta_l", "eta_sa")  # the spot's flux and the laser's power rise with each

_AST_FIELD = {"c_a": "c_a", "k_a": "k_a", "rho_a": "rho_a",
              "t_sub": "t_subl", "e_sub": "e_sub"}

MODES = ("deterministic", "minmin", "minmin-margins", "minmax",
         "bpcurve", "sensitivity", "propagate")


class ScenarioError(ValueError):
    """Scenario document failed validation."""


class ReferenceIntegrationError(RuntimeError):
    """The Runge-Kutta reference integration did not reach the impact epoch."""


# scenario key -> KeplerianElements field
_ELEMENT_KEYS = {"a_km": "a", "e": "e", "i_rad": "i", "raan_rad": "raan",
                 "argp_rad": "argp", "theta_rad": "theta"}

# JSON type of a dataclass field by its annotation (the modules postpone
# annotations, so each is its source text)
_JSON_TYPES = {"float": "number", "int": "integer", "float | None": ["number", "null"]}


@dataclass(frozen=True)
class Scenario:
    """Complete description of one deflection campaign study."""

    mu: float
    t_impact: float
    asteroid: KeplerianElements
    earth: KeplerianElements
    asteroid_properties: AsteroidProperties
    technology: TechnologyParams
    margins: Margins
    design_bounds: dict
    arc_control: ArcControl
    station: StationGeometry
    contamination: bool
    fixed_uncertain: dict
    expert_opinions_file: str
    solver: SolverConfig
    seed: int
    source_path: Path | None = None

    def expert_opinions_path(self) -> Path:
        p = Path(self.expert_opinions_file)
        if not p.is_absolute() and self.source_path is not None:
            p = self.source_path.parent / p
        return p


def _object(properties: dict) -> dict:
    """Schema of an object that holds exactly the keys of ``properties``,
    each matching its schema."""
    return {"type": "object", "required": list(properties), "properties": properties,
            "additionalProperties": False}


def _block(types: dict) -> dict:
    """Schema of a block that holds exactly the keys of ``types``, each of
    its JSON type."""
    return _object({key: {"type": kind} for key, kind in types.items()})


_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_ELEMENTS = _block(dict.fromkeys(_ELEMENT_KEYS, "number"))
# the schema of each Scenario field the document holds, by field name
_FIELD_SCHEMAS = {
    "mu": _POSITIVE,
    "t_impact": _POSITIVE,
    "asteroid": _ELEMENTS,
    "earth": _ELEMENTS,
    **{block: _block({f.name: _JSON_TYPES[f.type] for f in fields(owner)
                      if f.name != "seed"})  # the solver's seed is a top-level key
       for block, owner in (("asteroid_properties", AsteroidProperties),
                            ("technology", TechnologyParams), ("margins", Margins),
                            ("arc_control", ArcControl), ("station", StationGeometry),
                            ("solver", SolverConfig))},
    # positive: the thrust divides by d_m, the spot area by c_r, and the
    # deflection needs a warning time and a spacecraft; n_sc's bounds are
    # integers, so its rounding stays inside them
    "design_bounds": _object({name: {"type": "array", "minItems": 2, "maxItems": 2,
                                     "items": {"type": "integer" if name == "n_sc" else "number",
                                               "exclusiveMinimum": 0}}
                              for name in GENE_NAMES}),
    "contamination": {"type": "boolean"},
    "fixed_uncertain": _block(dict.fromkeys(UNCERTAIN_NAMES, "number")),
    "expert_opinions_file": {"type": "string"},
    "seed": {"type": "integer"},
}
# the document's key of a Scenario field where the two names differ
_DOCUMENT_KEYS = {"mu": "mu_sun_km3s2", "t_impact": "t_impact_s"}

# source_path, where the document was read from, is none of its keys
SCENARIO_SCHEMA = _object({
    "schema_version": {"const": 1},
    **{_DOCUMENT_KEYS.get(f.name, f.name): _FIELD_SCHEMAS[f.name]
       for f in fields(Scenario) if f.name != "source_path"},
})

# an expert leaves out each parameter it has no opinion on; of the other
# keys, only the experts and an expert's id are required
_INTERVALS = {"type": "array", "items": _block(dict.fromkeys(("lo", "hi", "bpa"), "number"))}
_EXPERT = {**_object({"id": {"type": "string"}, "weight": {"type": "number"},
                      "parameters": {**_object(dict.fromkeys(UNCERTAIN_NAMES, _INTERVALS)),
                                     "required": []}}),
           "required": ["id"]}
OPINIONS_SCHEMA = {**_object({"schema_version": {"const": 1}, "description": {"type": "string"},
                              "experts": {"type": "array", "items": _EXPERT}}),
                   "required": ["experts"]}

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}


def _is_type(value, name: str) -> bool:
    """JSON Schema's types as jsonschema reads parsed JSON: a bool is no
    number, and a float with an integral value is an integer."""
    if name in ("number", "integer"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return name == "number" or isinstance(value, int) or value.is_integer()
    return isinstance(value, _TYPES[name])


def _invalid(path: str, problem: str) -> ScenarioError:
    return ScenarioError(f"failed schema validation: {path or 'the document'}: {problem}")


def _check(value, schema: dict, path: str = "") -> None:
    """Raise ScenarioError naming the first part of ``value`` that breaks
    ``schema``. Reads only the keywords ``type``, ``const``, ``required``,
    ``properties``, ``additionalProperties``, ``items``, ``minItems``,
    ``maxItems`` and ``exclusiveMinimum``, the only ones the two schemas
    use (``tests/test_mission.py`` walks them)."""
    if isinstance(value, float) and not math.isfinite(value):
        raise _invalid(path, f"{value!r} is not a finite number")
    kinds = schema.get("type")
    if kinds is not None and not (_is_type(value, kinds) if isinstance(kinds, str)
                                  else any(_is_type(value, kind) for kind in kinds)):
        raise _invalid(path, f"{value!r} is not of type {kinds!r}")
    if "const" in schema:
        const = schema["const"]
        if isinstance(value, bool) != isinstance(const, bool) or value != const:
            raise _invalid(path, f"{value!r} is not {const!r}")
    if "exclusiveMinimum" in schema and _is_type(value, "number"):
        if not value > schema["exclusiveMinimum"]:
            raise _invalid(path, f"{value!r} is not greater than {schema['exclusiveMinimum']!r}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise _invalid(path, f"missing required key {key!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", {})
        for key, item in value.items():
            sub = properties.get(key, additional)
            if sub is False:
                raise _invalid(path, f"unexpected key {key!r}")
            _check(item, {} if sub is True else sub, f"{path}.{key}" if path else key)
    if isinstance(value, list):
        lo, hi = schema.get("minItems", 0), schema.get("maxItems", math.inf)
        if not lo <= len(value) <= hi:
            raise _invalid(path, f"has {len(value)} items, not {lo} to {hi}")
        for i, item in enumerate(value):
            _check(item, schema.get("items", {}), f"{path}[{i}]")


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key it gives twice, which ``json.loads``
    would read as its last value, is a ScenarioError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(key for k, (key, _) in enumerate(pairs) if key in dict(pairs[:k]))
        raise ScenarioError(f"key {key!r} is given twice in one object")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)  # reads both documents


def _elements_from_dict(d: dict) -> KeplerianElements:
    return KeplerianElements(**{attr: d[key] for key, attr in _ELEMENT_KEYS.items()})


def _elements_to_dict(k: KeplerianElements) -> dict:
    return {key: getattr(k, attr) for key, attr in _ELEMENT_KEYS.items()}


def scenario_from_dict(doc: dict, source_path: Path | None = None) -> Scenario:
    """Build a validated scenario from a parsed JSON document.

    The document must match ``SCENARIO_SCHEMA`` with only finite numbers,
    each design bound ``[lo, hi]`` must have lo <= hi, every block, the
    fixed uncertain values applied to the baselines included, must pass its
    dataclass's checks, and the baselines' ten uncertain entries must equal
    their ``fixed_uncertain`` values; anything else raises ScenarioError.
    """
    _check(doc, SCENARIO_SCHEMA)
    for name, (lo, hi) in doc["design_bounds"].items():
        if not lo <= hi:
            raise ScenarioError(f"design_bounds {name}: lower bound {lo} exceeds upper {hi}")
    # JSON Schema's integers include 3.0; the scenario holds them as ints
    seed = int(doc["seed"])
    solver = {name: int(value) for name, value in doc["solver"].items()}
    try:
        scenario = Scenario(
            mu=doc["mu_sun_km3s2"],
            t_impact=doc["t_impact_s"],
            asteroid=_elements_from_dict(doc["asteroid"]),
            earth=_elements_from_dict(doc["earth"]),
            asteroid_properties=AsteroidProperties(**doc["asteroid_properties"]),
            technology=TechnologyParams(**doc["technology"]),
            margins=Margins(**doc["margins"]),
            design_bounds={k: tuple(v) for k, v in doc["design_bounds"].items()},
            arc_control=ArcControl(**doc["arc_control"]),
            station=StationGeometry(**doc["station"]),
            contamination=doc["contamination"],
            fixed_uncertain=dict(doc["fixed_uncertain"]),
            expert_opinions_file=doc["expert_opinions_file"],
            solver=SolverConfig(seed=seed, **solver),
            seed=seed,
            source_path=source_path,
        )
        apply_uncertain(scenario, scenario.fixed_uncertain)
    except ValueError as exc:
        raise ScenarioError(f"invalid scenario block: {exc}") from exc
    # every evaluation reads the uncertain values from fixed_uncertain or
    # from the evidence, so the blocks' copies must restate them
    for name in UNCERTAIN_NAMES:
        block, key = (("asteroid_properties", _AST_FIELD[name]) if name in _AST_FIELD
                      else ("technology", name))
        if doc[block][key] != doc["fixed_uncertain"][name]:
            raise ScenarioError(f"{block}.{key} {doc[block][key]!r} differs from "
                                f"fixed_uncertain.{name} {doc['fixed_uncertain'][name]!r}")
    return scenario


def scenario_to_dict(s: Scenario) -> dict:
    solver = asdict(s.solver)
    del solver["seed"]  # a top-level key of the document
    return {
        "schema_version": 1,
        "mu_sun_km3s2": s.mu,
        "t_impact_s": s.t_impact,
        "asteroid": _elements_to_dict(s.asteroid),
        "earth": _elements_to_dict(s.earth),
        "asteroid_properties": asdict(s.asteroid_properties),
        "technology": asdict(s.technology),
        "margins": asdict(s.margins),
        "design_bounds": {k: list(v) for k, v in s.design_bounds.items()},
        "arc_control": asdict(s.arc_control),
        "station": asdict(s.station),
        "contamination": s.contamination,
        "fixed_uncertain": dict(s.fixed_uncertain),
        "expert_opinions_file": s.expert_opinions_file,
        "solver": solver,
        "seed": s.seed,
    }


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        doc = _DECODER.decode(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc, source_path=path)


def load_expert_opinions(path: str | Path) -> list[ExpertOpinion]:
    """The opinions of the file at ``path``, which must match
    ``OPINIONS_SCHEMA`` with only finite numbers and no key given twice (a
    ScenarioError) and pass the dataclasses' range checks (a ValueError).
    An expert without a weight weighs 1.0."""
    doc = _DECODER.decode(Path(path).read_text())
    _check(doc, OPINIONS_SCHEMA)
    return [ExpertOpinion(expert_id=entry["id"], weight=entry.get("weight", 1.0),
                          parameters={name: tuple(UncertainInterval(**iv) for iv in intervals)
                                      for name, intervals in entry.get("parameters", {}).items()})
            for entry in doc["experts"]]


def reference_scenario_path() -> Path:
    return Path(__file__).parent / "data" / "reference_scenario.json"


# ---------------------------------------------------------------------------
# End-to-end model
# ---------------------------------------------------------------------------

def apply_uncertain(
    scenario: Scenario, u: dict
) -> tuple[AsteroidProperties, TechnologyParams]:
    """The scenario's asteroid and technology baselines with their ten
    uncertain fields taken from ``u``, which must name all ten; each copy
    passes its dataclass's range checks."""
    return (replace(scenario.asteroid_properties,
                    **{_AST_FIELD[k]: u[k] for k in PHYSICAL_NAMES}),
            replace(scenario.technology, **{k: u[k] for k in TECH_NAMES}))


@dataclass
class ModelEvaluation:
    """One full evaluation of the mission objectives."""

    m_sys: float
    b: float
    budget: object
    trajectory: Trajectory

    @property
    def n_arcs(self) -> int:
        return self.trajectory.n_arcs


class DeflectionModel:
    """Objectives (m_sys, b) as functions of the design and uncertain vectors.

    The asteroid is released from its calibrated orbit a warning time
    before impact, pushed by the ablation thrust until the impact epoch,
    and the resulting b-plane deviation is measured against the
    unperturbed orbit. The formation is sized at the deflection-start
    heliocentric distance. ``deflection_start`` and ``impact_b`` are the
    two ends of every deflected trajectory, whichever propagator runs in
    between. The encounter frame (the nominal position and v_inf =
    v_nominal - v_earth at impact) is fixed per model, and its b-plane is
    checked at construction (DegenerateBPlaneError).
    """

    def __init__(self, scenario: Scenario, contamination: bool, margins: Margins):
        self.scenario = scenario
        self.contamination = contamination
        self.margins = margins
        self.mu = scenario.mu
        self.asteroid_eq = keplerian_to_equinoctial(scenario.asteroid)
        self.earth_eq = keplerian_to_equinoctial(scenario.earth)
        self.nominal_at_impact = propagate_keplerian(
            self.asteroid_eq, scenario.t_impact, self.mu
        )
        self.earth_at_impact = propagate_keplerian(
            self.earth_eq, scenario.t_impact, self.mu
        )
        self._r_nominal, v_nominal = equinoctial_to_cartesian(self.nominal_at_impact, self.mu)
        v_inf = v_nominal - equinoctial_to_cartesian(self.earth_at_impact, self.mu)[1]
        self._v_hat = bplane_normal(v_inf)
        self._start = (None, None, None)

    def _started(self, t_warn_years: float) -> tuple[EquinoctialState, float]:
        """Asteroid state at the deflection start and the solar flux
        [W/m^2] at its heliocentric distance, where the formation is sized,
        kept for the next call: every mass corner and b evaluation of one
        design starts there."""
        warn, state, flux = self._start
        if warn != t_warn_years:
            t_start = self.scenario.t_impact - t_warn_years * YEAR_S
            state = propagate_keplerian(self.asteroid_eq, t_start, self.mu)
            flux = S0 * (AU_KM / state.radius()) ** 2
            self._start = (t_warn_years, state, flux)
        return state, flux

    def deflection_start(
        self, design: DesignVector, u: dict
    ) -> tuple[EquinoctialState, ThrustModel]:
        """Asteroid state at the deflection start and the thrust model of
        one trajectory from it."""
        ast, tech = apply_uncertain(self.scenario, u)
        eq_start = self._started(design.t_warn)[0]
        thrust = ThrustModel(
            design, tech, ast, self.scenario.station,
            contamination_on=self.contamination, t_reference=eq_start.t,
        )
        return eq_start, thrust

    def impact_b(self, deviated: EquinoctialState) -> float:
        """b [km] of a deviated asteroid state at the impact epoch: its
        Cartesian offset from the nominal position, projected on the
        b-plane."""
        if abs(deviated.t - self.scenario.t_impact) > 1.0:
            raise ValueError(
                f"deviated state epoch {deviated.t} is not at t_impact {self.scenario.t_impact}")
        r_dev, _ = equinoctial_to_cartesian(deviated, self.mu)
        return math.hypot(*bplane_offset(r_dev - self._r_nominal, self._v_hat).tolist())

    def mass_only(self, design: DesignVector, tech: TechnologyParams) -> float:
        """Formation mass [kg] of a design built with ``tech``; no
        propagation involved."""
        return size_spacecraft(design, tech, self.margins, self._started(design.t_warn)[1]).m_sys

    def evaluate(self, design: DesignVector, u: dict) -> ModelEvaluation:
        """Both objectives for one design and uncertain point, with the
        FPET trajectory they came from."""
        eq_start, thrust = self.deflection_start(design, u)
        traj = propagate_trajectory(
            eq_start, thrust, self.scenario.t_impact, self.scenario.arc_control,
            self.mu,
        )
        if any(traj.eps_history):
            # exact two-body coast closes the last arc's first-order landing
            # gap so the b-plane difference is not polluted by along-track
            # epoch error
            b = self.impact_b(propagate_keplerian(traj.final, self.scenario.t_impact, self.mu))
        else:
            b = 0.0  # never pushed, the asteroid is on its nominal orbit
        budget = size_spacecraft(design, thrust.tech, self.margins,
                                 self._started(design.t_warn)[1])
        return ModelEvaluation(m_sys=budget.m_sys, b=b, budget=budget, trajectory=traj)


def evidence_structure(scenario: Scenario) -> FocalStructure:
    """Fused ten-parameter evidence structure of the scenario. A missing or
    malformed opinion file, or opinions that leave out a parameter, is a
    ScenarioError."""
    path = scenario.expert_opinions_path()
    try:
        opinions = load_expert_opinions(path)
        params = [fuse_experts(opinions, name) for name in UNCERTAIN_NAMES]
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"expert opinions {path}: {type(exc).__name__}: {exc}") from exc
    return FocalStructure(params)


def uncertain_dict(structure: FocalStructure, u_vec: np.ndarray) -> dict:
    """Physical values of a unit point by name, as plain (fast) floats."""
    values = structure.unit_to_physical(u_vec)
    return dict(zip(structure.names, values.tolist()))


# ---------------------------------------------------------------------------
# Mode evaluators for the outer search
# ---------------------------------------------------------------------------

def deterministic_evaluator(model: DeflectionModel):
    """J(x) at the fixed reference uncertain values."""
    fixed = model.scenario.fixed_uncertain

    def evaluate(design: DesignVector) -> Individual:
        ev = model.evaluate(design, fixed)
        return Individual(design, Objectives(ev.m_sys, -ev.b))

    return evaluate


def _inner_rng(seed: int, design: DesignVector) -> np.random.Generator:
    """Order-independent generator of a design's b search, keyed on the design."""
    key = [seed, 2, *(abs(q) for q in quantize_design(design))]  # 2 tags the b objective
    return np.random.default_rng(np.random.SeedSequence(key))


def b_at(model: DeflectionModel, design: DesignVector, structure: FocalStructure):
    """b [km] of a design as a function of a unit point of ``structure``,
    every uncertain parameter outside it at the scenario's fixed value."""
    fixed = model.scenario.fixed_uncertain
    return lambda u: model.evaluate(design, {**fixed, **uncertain_dict(structure, u)}).b


def b_corners(structure: FocalStructure, unit_box) -> tuple[np.ndarray, np.ndarray]:
    """The dark and the bright corner of a unit box of a ``B_NAMES``
    marginal's hull over the box's cells (``FocalStructure.hull_ends``),
    both points of the box. The dark corner takes each asteroid parameter
    at its upper end and ``eta_l`` and ``eta_sa`` at their lower ends, where
    the spot is dimmest; the bright corner takes the other end of each.

    b cannot rise with an asteroid parameter nor fall with the flux:
    ``mass_flow_rate`` cannot rise with ``c_a``, ``k_a``, ``rho_a``,
    ``t_sub`` or ``e_sub`` and cannot fall with ``eta_l`` or ``eta_sa``,
    ``rho_a`` also weighs the asteroid, and the thrust sample does not rise
    with ``t_sub`` over its hull (measured, as the ejecta speed rises with
    it; ``tests/test_mission.py`` gates it). So with contamination off b's
    least and greatest values over the box are b at these two corners, up
    to b's rounding (lines in each parameter fell against its direction by
    at most 2.8e-5 km).
    With contamination on b can rise with ``e_sub``, and only the dark
    corner's certificate of a 0.0 holds (``search.zero_or_search``)."""
    # b falls as an asteroid parameter rises: its dark end is its upper one
    return structure.corner(unit_box, PHYSICAL_NAMES), structure.corner(unit_box, _EFFICIENCIES)


def mass_extreme(model: DeflectionModel, structure: FocalStructure, unit_box, sense: str):
    """The least (``sense`` ``min``) or greatest (``max``) ``m_sys`` over a
    unit box of the technology marginal ``structure`` and the hull corner at
    it, as a function of the design. ``m_sys`` cannot fall as ``rho_m``,
    ``rho_l`` or ``rho_r`` rises and is linear in P = ``eta_l eta_sa``
    (``size_spacecraft``: the laser's mass rises with P, the radiator's
    falls), so each end is at a corner with every specific mass at that end
    and both efficiencies low or both high, the first on a tie. Where both
    efficiency hulls end at 1.0 ``rho_r`` cannot move ``m_sys``, and the
    greatest value's corner takes ``rho_r`` high, not low as the first of
    the 32 hull corners to attain it does.

    The technology does not depend on the design, so both candidates'
    ``TechnologyParams`` are built here, once, and each call sizes them."""
    ends = ("rho_m", "rho_l", "rho_r") if sense == "max" else ()
    candidates = [structure.corner(unit_box, ends + effs) for effs in ((), _EFFICIENCIES)]
    techs = [replace(model.scenario.technology, **uncertain_dict(structure, u))
             for u in candidates]

    def extreme(design: DesignVector) -> tuple[float, np.ndarray]:
        masses = [model.mass_only(design, tech) for tech in techs]
        k = masses.index((min if sense == "min" else max)(masses))
        return masses[k], candidates[k]

    return extreme


def mass_box_bounder(model: DeflectionModel, design: DesignVector, structure: FocalStructure):
    """Exact (min, max) of ``m_sys`` over a unit box of the technology
    marginal, each at one of two hull corners (``mass_extreme``), which are
    points of the box: the box bounder of the formation-mass Bel/Pl curve."""
    return lambda unit_box: tuple(mass_extreme(model, structure, unit_box, sense)(design)[0]
                                  for sense in ("min", "max"))


def evidence_evaluator(
    model: DeflectionModel,
    structure: FocalStructure,
    config: SolverConfig,
    sense: str,
):
    """J(x), each objective over the marginal of the parameters it reads:
    the mass exactly, at one of two technology corners (``mass_extreme``),
    and b over the ``B_NAMES`` marginal's unit cube. Each witness is a point
    of its objective's marginal.

    With contamination off b is exact at one FPET evaluation: its best case
    (sense ``min``) is b at the cube's bright corner and its worst case
    (sense ``max``, the least b) b at the dark corner (``b_corners``), lit
    or not, each corner its witness.

    With contamination on the best case is an inner bound search seeded
    with the nominal point's image, which pins the bound on the correct
    side of the deterministic value by construction, an estimate. The
    worst case is tried first by one FPET evaluation at the dark corner,
    through the rule the b boxes of the curves share
    (``search.zero_or_search``): b exactly 0.0 there is the least b,
    certified, with the corner as its witness, and no search runs;
    otherwise the search runs, seeded with the nominal point's image and
    the corner, whose b it knows, so it spends ``inner_budget`` evaluations
    with the corner one of them and reports at most the corner's b, an
    estimate. The two mass corners and the two b corners do not depend
    on the design: they are built once per evaluator.
    """
    fixed = model.scenario.fixed_uncertain
    b_space, mass_space = structure.marginal(B_NAMES), structure.marginal(TECH_NAMES)
    seed_point = b_space.physical_to_unit([fixed[name] for name in b_space.names])
    dark, bright = b_corners(b_space, [(0.0, 1.0)] * b_space.dim)
    exact = bright if sense == "min" else dark  # b's extreme with contamination off
    mass = mass_extreme(model, mass_space, [(0.0, 1.0)] * mass_space.dim, sense)
    b_sense = "max" if sense == "min" else "min"  # the sense bounds -b

    def evaluate(design: DesignVector) -> Individual:
        m_sys, witness_mass = mass(design)
        b = b_at(model, design, b_space)

        def search(f, *seeds):
            return inner_bound_search(f, b_space.dim, b_sense, config.inner_budget,
                                      config.inner_pop, _inner_rng(config.seed, design),
                                      seeds=(seed_point, *seeds))

        def search_past(at_dark):  # seeded with the corner, whose b is not evaluated again
            return search(lambda u: at_dark.value if np.array_equal(u, dark) else b(u), dark)

        if not model.contamination:
            b_value, witness = b(exact), exact
        else:
            found = search(b) if sense == "min" else zero_or_search(b, dark, search_past)[-1]
            b_value, witness = found.value, found.point
        return Individual(design, Objectives(m_sys, -b_value),
                          witness_mass=witness_mass, witness_negb=witness)

    return evaluate


def make_model(scenario: Scenario, mode: str, contamination: bool) -> DeflectionModel:
    """Model with the margins policy the mode prescribes: the scenario
    margins for the deterministic front, the margined best case and a
    single propagation; none where evidence theory bounds the uncertainty."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    margined = mode in ("deterministic", "minmin-margins", "propagate")
    return DeflectionModel(scenario, contamination,
                           scenario.margins if margined else UNIT_MARGINS)


# ---------------------------------------------------------------------------
# Runge-Kutta reference propagation (cross-check route)
# ---------------------------------------------------------------------------

def rk_impact_parameter(
    scenario: Scenario, design: DesignVector, u: dict, contamination: bool,
    rtol: float = 1e-10,
) -> float:
    """b [km] from a numerical integration of the variational equations
    with the ablation model evaluated continuously (the expensive reference
    the arc-wise analytic propagation is benchmarked against).

    The contamination layer [cm] rides along as a seventh state, fed by
    the growth rate the thrust sample returns (0 with contamination off),
    so adaptive stepping sees a smooth right-hand side. ``scipy.integrate``, most of the
    package's import time, is imported here: no other route needs it.
    """
    from scipy.integrate import solve_ivp
    model = make_model(scenario, "propagate", contamination)
    eq0, thrust_model = model.deflection_start(design, u)
    t_start = eq0.t
    mu = scenario.mu

    def rhs(t, y):
        try:
            state = EquinoctialState(a=y[0], p1=y[1], p2=y[2], q1=y[3], q2=y[4], ell=y[5], t=t)
        except ValueError as exc:  # a solver stage left the elliptic domain
            raise ReferenceIntegrationError(f"reference integration failed: {exc}") from exc
        thrust, growth = thrust_model(state, t, y[6])
        return [*gauss_rhs(state, thrust, mu), growth * 100.0]  # m -> cm

    y0 = [eq0.a, eq0.p1, eq0.p2, eq0.q1, eq0.q2, eq0.ell, 0.0]
    sol = solve_ivp(
        rhs, (t_start, scenario.t_impact), y0, method="DOP853",
        rtol=rtol, atol=[1e-3, 1e-12, 1e-12, 1e-12, 1e-12, 1e-10, 1e-12],
    )
    if not sol.success:
        raise ReferenceIntegrationError(f"reference integration failed: {sol.message}")
    yf = sol.y[:, -1]
    return model.impact_b(EquinoctialState(
        a=yf[0], p1=yf[1], p2=yf[2], q1=yf[3], q2=yf[4], ell=yf[5],
        t=scenario.t_impact,
    ))
