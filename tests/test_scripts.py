"""The scripts next to the package import without touching ``sys.path``,
``cli_digests --compare`` pairs the cells of two CSVs by column name,
``ab_evaluate`` counts and sizes the evaluations and bounds that differ,
``bench_pairs`` names a source tree by a digest of its ``src/``,
``api_counts`` counts a tree's lines, public names and defaults, and every
name the benchmark in ``perfbench/`` wraps or reads resolves."""
import ast
import importlib
import importlib.util
import inspect
import math
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ab_evaluate import Tally, relative_difference, timing_table
from api_counts import main as api_counts
from bench_pairs import src_digest
from cli_digests import compare

from neodeflect.mission import Scenario
from neodeflect.search import SolverConfig

SCRIPTS = Path(__file__).parent.parent / "scripts"
PERFBENCH = Path(__file__).parent.parent / "perfbench"

# what perfbench/worker.py's Counters patches, and the box-bounder factory
# perfbench/tracer.py wraps, as (owner path, attribute)
PATCHED_BY_PERFBENCH = (
    ("neodeflect.mission.DeflectionModel", "evaluate"),
    ("neodeflect.mission.DeflectionModel", "mass_only"),
    ("neodeflect.search.ParetoArchive", "add"),
    ("neodeflect.mission", "inner_bound_search"),
    ("neodeflect.cli", "inner_bound_search"),
    ("neodeflect.cli", "de_box_bounder"),
)


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_every_script_imports(path):
    """A script that reads a name the package no longer has fails here, not
    when someone first runs it."""
    importlib.import_module(path.stem)


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_importing_a_script_leaves_sys_path_unchanged(path):
    """Only a script run as a program may put the package's ``src`` on the
    path; importing one, as this suite and ``make_reference_scenario`` do,
    changes nothing for the importer."""
    before = list(sys.path)
    sys.modules.pop(path.stem, None)  # executed afresh, not taken from the cache
    importlib.import_module(path.stem)
    assert sys.path == before


def test_compare_pairs_cells_by_column_name(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for tree in (old, new):
        (tree / "run").mkdir(parents=True)
    # columns a and b swapped, c dropped: no cell the two sides share moved
    (old / "run" / "table.csv").write_text("a,b,c\n1,2,3\n4,5,6\n")
    (new / "run" / "table.csv").write_text("b,a\n2,1\n5,4\n")
    (old / "run" / "added.csv").write_text("a,b\n1,x\n")
    (new / "run" / "added.csv").write_text("a,b,e\n1.5,y,0\n")
    (old / "run" / "rows.csv").write_text("a\n1\n")
    (new / "run" / "rows.csv").write_text("a\n1\n2\n")
    (old / "run" / "same.csv").write_text("a\n1\n")
    (new / "run" / "same.csv").write_text("a\n1\n")
    (old / "gone.csv").write_text("a\n1\n")
    (new / "run" / "extra.csv").write_text("d\n7\n")
    compare(old, new)
    assert capsys.readouterr().out.splitlines() == [
        f"gone.csv: missing under {new}",
        "run/added.csv: added columns e, 1 rows, max abs 0.5, max rel 0.333, other cells 1",
        f"run/extra.csv: only under {new}",
        "run/rows.csv: rows 1 -> 2",
        "run/table.csv: dropped columns c, 2 rows, max abs 0, max rel 0, other cells 0",
    ]


def test_compare_names_every_file_and_the_json_keys_that_differ(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for tree in (old, new):
        (tree / "run").mkdir(parents=True)
    (old / "run" / "meta.json").write_text(
        '{"b": {"v_max": 1.0, "partial": true}, "n": [1, 2], "gone": 0}')
    (new / "run" / "meta.json").write_text(
        '{"b": {"v_max": 1.5, "partial": true}, "n": [1, 3], "new": 0}')
    (old / "run" / "layout.json").write_text('{"a": 1}')
    (new / "run" / "layout.json").write_text('{\n  "a": 1\n}\n')
    (old / "run" / "list.json").write_text("[1]")
    (new / "run" / "list.json").write_text("[2]")
    (old / "run" / "notes.txt").write_text("x")
    (new / "run" / "notes.txt").write_text("y")
    (old / "run" / "same.json").write_text('{"a": 1}')
    (new / "run" / "same.json").write_text('{"a": 1}')
    (old / "manifest.json").write_text("{}")
    (new / "run" / "summary.json").write_text("{}")
    compare(old, new)
    assert capsys.readouterr().out.splitlines() == [
        f"manifest.json: missing under {new}",
        "run/layout.json: bytes differ, every value equal",
        "run/list.json: bytes differ",
        "run/meta.json: keys differ: b.v_max gone n new",
        "run/notes.txt: bytes differ",
        f"run/summary.json: only under {new}",
    ]


def _evaluation(b: float, m_sys: float = 1500.0):
    state = SimpleNamespace(a=1.0, p1=0.1, p2=0.2, q1=0.0, q2=0.0, ell=3.0, t=1e8)
    trajectory = SimpleNamespace(eps_history=[1e-10], states=[state, state])
    return SimpleNamespace(b=b, m_sys=m_sys, n_arcs=1, trajectory=trajectory)


def test_ab_evaluate_counts_and_sizes_a_one_ulp_difference():
    """A difference does not stop the comparison: a 1-ulp b is counted once
    per pair, however often the pair is compared, and sized relative to b.
    A near-zero b that moves by 0.4% sets the largest relative difference,
    so the summary also sizes b in km and relative among the pairs whose b
    is at least 1 km, where the 1-ulp difference is the largest."""
    tally = Tally()
    b = 684.1844220480575
    tally.add("drawn pair 0", _evaluation(b), _evaluation(b))
    assert tally.summary("off") == "# contamination off: 0 of 1 pairs differ"
    for _ in range(2):
        tally.add("panel 20,10,8,3000 off", _evaluation(b), _evaluation(math.nextafter(b, 0.0)))
    tally.add("drawn pair 1", _evaluation(0.0), _evaluation(-0.0))  # signed zeros differ
    assert list(tally.differ) == ["panel 20,10,8,3000 off", "drawn pair 1"]
    assert tally.b_rel == math.ulp(b) / b  # b's ulp below it is the one above it
    assert tally.m_sys_rel == 0.0
    assert tally.b_abs == math.ulp(b)
    assert tally.b_rel_floor == tally.b_rel
    tally.add("drawn pair 2", _evaluation(2.7e-4), _evaluation(2.7e-4 * 1.004))
    assert tally.b_rel == relative_difference(2.7e-4, 2.7e-4 * 1.004) > 3e-3
    assert tally.b_abs == 2.7e-4 * 1.004 - 2.7e-4 > math.ulp(b)
    assert tally.b_rel_floor == math.ulp(b) / b
    assert tally.summary("off") == (
        f"# contamination off: 3 of 4 pairs differ; largest relative difference b "
        f"{tally.b_rel:.3g}, m_sys 0; largest b difference {tally.b_abs:.3g} km, relative "
        f"{tally.b_rel_floor:.3g} at b >= 1 km; first: panel 20,10,8,3000 off: b old {b!r} "
        f"new {math.nextafter(b, 0.0)!r}")


def test_ab_evaluate_counts_a_mass_corner_pair_once_by_value_or_witness():
    """Two mass bounds differ where their values or their witnesses differ
    in any bit; the four bounds of one design are one pair, and only m_sys
    is sized."""
    tally = Tally()
    m, witness = 2893.4521, np.array([0.0, 0.25, 1.0])
    tally.add_mass("mass corners 0", (m, witness), (m, witness.copy()))
    tally.add_mass("mass corners 0", (m, witness), (m, np.array([0.0, 0.25, 1.0])))
    assert tally.summary("off") == "# contamination off: 0 of 1 pairs differ"
    moved = np.array([0.0, math.nextafter(0.25, 1.0), 1.0])
    tally.add_mass("mass corners 1", (m, witness), (m, moved))
    tally.add_mass("mass corners 1", (m, witness), (math.nextafter(m, 0.0), witness))
    tally.add_mass("mass corners 2", (m, witness), (math.nextafter(m, 0.0), witness))
    assert tally.differ == {
        "mass corners 1": f"witness old {witness.tolist()} new {moved.tolist()}",
        "mass corners 2": f"m_sys old {m!r} new {math.nextafter(m, 0.0)!r}"}
    assert tally.m_sys_rel == relative_difference(m, math.nextafter(m, 0.0))
    assert tally.b_rel == tally.b_abs == 0.0


def test_ab_evaluate_counts_a_b_corner_pair_once_by_either_bound():
    """Two b bounds of a box differ where either end differs in any bit,
    signed zeros included; the boxes of one design are one pair, and b is
    sized."""
    tally = Tally()
    b = 684.1844220480575
    for box in ((0.0, b), (12.5, b)):
        tally.add_bounds("b corners 0", box, box)
    assert tally.summary("off") == "# contamination off: 0 of 1 pairs differ"
    moved = math.nextafter(b, 0.0)
    tally.add_bounds("b corners 1", (0.0, b), (0.0, b))
    tally.add_bounds("b corners 1", (12.5, b), (12.5, moved))
    tally.add_bounds("b corners 1", (0.0, b), (-0.0, b))
    tally.add_bounds("b corners 2", (0.0, b), (-0.0, b))
    assert tally.differ == {"b corners 1": f"b max old {b!r} new {moved!r}",
                            "b corners 2": "b min old 0.0 new -0.0"}
    assert tally.summary("off").startswith("# contamination off: 2 of 3 pairs differ")
    assert tally.b_rel == tally.b_rel_floor == math.ulp(b) / b
    assert tally.b_abs == math.ulp(b)
    assert tally.m_sys_rel == 0.0


def _curve(thresholds, bel, pl, n_partitions=6, partial=True):
    return SimpleNamespace(thresholds=np.array(thresholds), bel=np.array(bel),
                           pl=np.array(pl), n_partitions=n_partitions, partial=partial)


def test_ab_evaluate_counts_a_b_curve_once_by_any_of_its_fields():
    """Two Bel/Pl curves of b differ where a threshold, a Bel or Pl value,
    ``n_partitions`` or ``partial`` differs, a value in any bit; a curve
    that differs in several places counts one pair, and b is sized at the
    curve's ends."""
    tally = Tally()
    v = [0.0, 342.09221102402875, 684.1844220480575]
    bel, pl = [0.0, 0.2, 1.0], [0.1, 0.9, 1.0]
    tally.add_curve("b curve 20,10,8,3000", _curve(v, bel, pl), _curve(v, bel, pl))
    assert tally.summary("off") == "# contamination off: 0 of 1 pairs differ"
    moved = [*v[:2], math.nextafter(v[2], 0.0)]
    key = "b curve 20,10,2,3000"
    tally.add_curve(key, _curve(v, bel, pl), _curve(moved, bel, [0.1, 0.8, 1.0], 7))
    assert tally.differ == {key: f"thresholds[2] old {v[2]!r} new {moved[2]!r}"}
    assert tally.summary("off").startswith("# contamination off: 1 of 2 pairs differ")
    assert tally.b_rel == math.ulp(v[2]) / v[2]
    for changed in (_curve(v, [-0.0, 0.2, 1.0], pl), _curve(v, bel, pl, partial=False),
                    _curve(v, bel, pl, n_partitions=5)):
        other = Tally()
        other.add_curve(key, _curve(v, bel, pl), changed)
        assert len(other.differ) == len(other.pairs) == 1


def test_ab_evaluate_prints_arc_counts_and_time_per_arc():
    """Each tree's arcs of one evaluation and its time per arc, a whole
    evaluation's time over its arc count, next to the new/old ratio; over
    all designs, the summed times over the summed arcs."""
    times = {"20,10,8,3000 off": (0.2, 0.1), "8,6,6,2500 on": (0.05, 0.05)}
    arcs = {"20,10,8,3000 off": (500, 500), "8,6,6,2500 on": (100, 125)}
    header, *rows = timing_table(times, arcs, reps=4)
    assert header.split() == ["design", "contamination", "old_s", "new_s", "new/old",
                              "old_arcs", "new_arcs", "old_us/arc", "new_us/arc"]
    assert [row.split() for row in rows] == [
        ["20,10,8,3000", "off", "0.2000", "0.1000", "0.5000", "500", "500", "100.00", "50.00"],
        ["8,6,6,2500", "on", "0.0500", "0.0500", "1.0000", "100", "125", "125.00", "100.00"],
        ["all", "0.2500", "0.1500", "0.6000", "600", "625", "104.17", "60.00"],
    ]


def test_bench_pairs_src_digest_names_a_tree_by_its_source(tmp_path):
    """Two copies of one ``src/`` have the same digest, whatever running
    them leaves behind; a one-byte change moves it."""
    copies = [tmp_path / "a", tmp_path / "b"]
    for copy in copies:
        shutil.copytree(Path(__file__).parent.parent / "src", copy / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    cache = copies[1] / "src" / "neodeflect" / "__pycache__"
    cache.mkdir()
    (cache / "fpet.cpython-311.pyc").write_bytes(b"compiled")
    assert src_digest(copies[0]) == src_digest(copies[1])
    source = copies[1] / "src" / "neodeflect" / "fpet.py"
    text = source.read_bytes()
    source.write_bytes(text[:-1] + b" ")
    assert src_digest(copies[0]) != src_digest(copies[1])


# a module whose counts are known: 6 public module-level names (imports and
# underscored names are none), 2 public methods (__len__ and method), 4
# public annotated class fields, 4 defaulted parameters (y, z, q and the
# private function's x) and 3 defaulted dataclass fields (b, c and _d)
COUNTED_MODULE = """\
from dataclasses import dataclass, field
import math

PUBLIC = 1
_PRIVATE = 2
A, B = 3, 4


def public(x, y=1, *, z=2, w):
    return lambda q=0: q


def _private(x=1):
    return math.pi


@dataclass(frozen=True)
class Block:
    a: float
    b: float = 1.0
    c: list = field(default_factory=list)
    _d: int = 0

    def __post_init__(self):
        pass

    def __len__(self):
        return 0

    def method(self):
        pass

    def _helper(self):
        pass


class Plain:
    e: int = 3

    def __init__(self):
        pass
"""


def test_api_counts_of_a_module_with_known_counts(tmp_path, capsys):
    """Lines, public names, defaulted parameters and defaulted dataclass
    fields, summed over every module under the tree's ``src/``."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "counted.py").write_text(COUNTED_MODULE)
    assert api_counts([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"lines {len(COUNTED_MODULE.splitlines())}", "public_names 12",
        "defaulted_parameters 4", "defaulted_fields 3"]


def test_every_name_the_benchmark_binds_resolves():
    """The benchmark's worker wraps these names where their callers bind
    them, so a cut in ``src/`` that drops or moves one would crash it; the
    trace points are read from ``perfbench/tracer.py`` itself."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    points = [(path, attr) for _, path, attr in tracer.TRACE_POINTS]
    assert points
    for path, attr in points + list(PATCHED_BY_PERFBENCH):
        assert callable(getattr(tracer.resolve_owner(path), attr, None)), (path, attr)


def _resolve(dotted: str):
    """The module, or the object in a module, named by a dotted path."""
    parts = dotted.split(".")
    for k in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ModuleNotFoundError:
            continue
        for attr in parts[k:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def _benchmark_reads():
    """What ``perfbench/`` reads from the package and from the test suite,
    read from its sources without importing them (its scripts edit
    ``sys.path``): the dotted names it looks up, its calls of them as
    (dotted name, positional count, keyword names), and the keywords of its
    ``dataclasses.replace`` calls as (the replaced object's source, names)."""
    names, calls, replaced = set(), [], []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}  # local name -> dotted path
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update({a.asname or a.name: a.name for a in node.names
                              if a.name.split(".")[0] == "neodeflect"})
            elif isinstance(node, ast.ImportFrom) and node.module and (
                    node.module.split(".")[0] in ("neodeflect", "test_acceptance")):
                bound.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})

        def dotted(expr):
            if isinstance(expr, ast.Name):
                return bound.get(expr.id)
            if isinstance(expr, ast.Attribute):
                owner = dotted(expr.value)
                return owner and f"{owner}.{expr.attr}"
            return None

        for node in ast.walk(tree):
            if dotted(node):
                names.add(dotted(node))
            if not isinstance(node, ast.Call):
                continue
            keywords = [k.arg for k in node.keywords if k.arg is not None]
            if isinstance(node.func, ast.Name) and node.func.id == "replace":
                replaced.append((ast.unparse(node.args[0]), keywords))
            unpacked = any(isinstance(a, ast.Starred) for a in node.args) or (
                len(keywords) < len(node.keywords))
            if dotted(node.func) and not unpacked:
                calls.append((dotted(node.func), len(node.args), keywords))
    return names, calls, replaced


def _workload_solver_keys() -> set[str]:
    """The solver fields the workloads of ``perfbench/workloads.py`` set."""
    keys = set()
    for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text())):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and key.value == "solver":
                    keys.update(k.value for k in value.keys)
    return keys


def test_every_name_and_parameter_the_benchmark_reads_resolves():
    """Each name the benchmark imports or looks up exists, each of its calls
    binds to the callee's signature, and each field it replaces on a
    scenario or a solver configuration is one of theirs; so a cut in ``src/``
    or in the test oracles that drops a parameter or a field the benchmark
    passes fails here, not in a benchmark run."""
    names, calls, replaced = _benchmark_reads()
    for name in sorted(names):
        _resolve(name)
    for name, n_args, keywords in calls:
        inspect.signature(_resolve(name)).bind(*range(n_args), **dict.fromkeys(keywords))
    # the reads this test was written for, so that a scan that finds
    # nothing cannot pass
    assert ("neodeflect.mission.rk_impact_parameter", 5, []) in calls  # with rtol
    assert ("neodeflect.mission.DeflectionModel", 3, []) in calls
    assert {"neodeflect.cli.run_bpcurve", "neodeflect.cli.run_optimization",
            "test_acceptance.cartesian_oracle_b"} <= {name for name, _, _ in calls}
    fields = {"Scenario": set(Scenario.__dataclass_fields__),
              "SolverConfig": set(SolverConfig.__dataclass_fields__)}
    found = set()
    for target, keywords in replaced:
        owner = "SolverConfig" if target.endswith(".solver") else "Scenario"
        assert set(keywords) <= fields[owner], (target, keywords)
        found.update(f"{owner}.{k}" for k in keywords)
    assert {"Scenario.seed", "Scenario.design_bounds", "Scenario.solver",
            "SolverConfig.seed"} <= found
    assert _workload_solver_keys() <= fields["SolverConfig"]
